"""The three benchmark workloads: inputs, operations and output checks.

A workload makes its inputs from the seed in ``prepare``, runs one warm-up
operation in ``warmup`` and yields whole rounds of operations from ``round``.
Each operation returns a token that ``check`` compares, outside the timed
region, against the reference fits in ``refit`` and the properties a Lepski
selection and its bands must have.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
from scipy.special import ndtr

from npivband import adaptive, cli, simgen
from npivband.bootstrap import MultiplierPlan

import refit as rf
from refit import require, require_close

N_DRAWS = 500


class McWorkload:
    """One operation is one replication of ``simgen.run_mc`` on a shipped design."""

    def __init__(self, design_name: str, n: int, det_js, seed: int):
        self.design_name = design_name
        self.n = n
        self.det_js = det_js
        self.seed = seed
        self.kind = self.warmup_kind = design_name

    def prepare(self) -> None:
        base = simgen.get_design(self.design_name)
        self.design = simgen.get_design(self.design_name, sampler=self._capture_sample(base.sampler))
        self.det = tuple(base.det_js) if self.det_js is None else tuple(self.det_js)
        self.grid = self.design.report_grid()[:, 0]
        self.truth = {a: (self.design.truth.h if a == 0 else self.design.truth.dh)(self.grid)
                      for a in self.design.targets}
        self._capture_selection()

    def _capture_sample(self, sampler):
        def capture(n, rng):
            self.sample = sampler(n, rng)
            return self.sample
        return capture

    def _capture_selection(self) -> None:
        # Keep only the scalars the checks need, so no selection outlives its
        # replication and peak memory stays that of the program.
        select = getattr(adaptive.select, "__wrapped__", adaptive.select)

        def capture(*args, **kwargs):
            sel = select(*args, **kwargs)
            self.selection = {
                "index_set": list(sel.index_set), "j_tilde": sel.j_tilde,
                "j_hat_max": sel.j_hat_max, "theta_star": sel.theta_star,
                "s_hat_by_j": dict(sel.s_hat_by_j),
            }
            return sel

        capture.__wrapped__ = select
        adaptive.select = capture

    def _op(self, base_seed: int):
        report = simgen.run_mc(
            self.design, [self.n], 1, plan=MultiplierPlan(n_draws=N_DRAWS, base_seed=0),
            det_js=self.det, base_seed=base_seed, n_workers=1,
        )
        return report, self.sample, self.selection

    def warmup(self):
        return self._op(self.seed * 1_000_003 + 999_999)

    def round(self, r: int):
        yield self.kind, lambda: self._op(self.seed * 1_000_003 + r)

    def check(self, kind: str, token) -> None:
        report, sample, sel = token
        n, design = self.n, self.design
        j_tilde = int(report.j_tilde[n][0])
        require(j_tilde == sel["j_tilde"], "McReport and selection disagree on J~")
        rf.require_selection(sel)
        require(float(report.diagnostics[n]["theta_star"][0]) > 0.0, "theta* is not positive")
        quantile_knots = design.x_spec.knot_rule == "empirical_quantile"
        x, w, y = sample.x[:, 0], sample.w[:, 0], sample.y
        if design.mode == "regression":
            require(sel["j_hat_max"] == rf.regression_j_hat_max(n), "J_hat_max differs from the closed form")
        else:
            for j in sel["index_set"]:
                require_close(sel["s_hat_by_j"][j], rf.univariate_s_hat(x, w, j, quantile_knots),
                              f"s_hat at J={j}")
        expected = len(design.targets) * (1 + len(self.det))
        require(len(report.rows) == expected, f"{len(report.rows)} McRows, expected {expected}")
        fits = {}
        for row in report.rows:
            require(row.coverage95 >= row.coverage90, f"{row.method}: coverage95 < coverage90")
            j = j_tilde if row.method == "data_driven" else int(row.method[2:])
            if j not in fits:
                fits[j] = rf.univariate_fit(y, x, j, None if design.mode == "regression" else w,
                                            quantile_knots)
            center = rf.evaluate(fits[j], self.grid, row.target)
            loss = float(np.abs(center - self.truth[row.target]).max())
            require_close(row.mean_loss, loss, f"{row.method} loss of target {row.target}")


# ---------------------------------------------------------------------------
# CLI fits
# ---------------------------------------------------------------------------

N_NPIV = 5000
N_SMALL = 2000
GRID_2D = 40
CLI_KINDS = ("fit_npiv", "fit_reg2d", "fit_additive", "fit_plm", "rebands")


def _write_table(path: str, columns: dict[str, np.ndarray]) -> None:
    data = np.column_stack(list(columns.values()))
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(columns), comments="")


def _read_table(path: str) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _text_columns(path: str) -> dict[str, list[str]]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class CliWorkload:
    """One operation is one ``npivband.cli.main(argv)`` call; a round runs each kind once."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.first_outputs: dict[str, dict[str, bytes]] = {}
        # fit_plm is the cheapest invocation that still parses a CSV, selects
        # J, builds bands and writes all three output files.
        self.warmup_kind = "fit_plm"

    def prepare(self) -> None:
        if os.path.isdir(self.workdir):
            shutil.rmtree(self.workdir)
        os.makedirs(self.workdir)
        rng = [np.random.default_rng(np.random.SeedSequence((self.seed, k))) for k in range(4)]
        self.data = {
            "npiv": self._npiv_data(rng[0]),
            "reg2d": self._reg2d_data(rng[1]),
            "additive": self._additive_data(rng[2]),
            "plm": self._plm_data(rng[3]),
        }
        for name, columns in self.data.items():
            _write_table(self._csv(name), columns)
        seed = ["--seed", str(self.seed)]
        npiv = ["--input", self._csv("npiv"), "--mode", "npiv", "--deriv", "1", "--p-lower", "2.5"]
        self.argv = {
            "fit_npiv": ["fit", *npiv, *seed, "--outdir", self._out("fit_npiv")],
            "fit_reg2d": ["fit", "--input", self._csv("reg2d"), "--mode", "regression",
                          "--grid-size", str(GRID_2D), *seed, "--outdir", self._out("fit_reg2d")],
            "fit_additive": ["fit", "--input", self._csv("additive"), "--mode", "additive",
                             *seed, "--outdir", self._out("fit_additive")],
            "fit_plm": ["fit", "--input", self._csv("plm"), "--mode", "partially_linear",
                        "--linear-cols", "1", *seed, "--outdir", self._out("fit_plm")],
            "rebands": ["bands-plotdata", *npiv, "--from-selection",
                        os.path.join(self._out("fit_npiv"), "selection.json"),
                        *seed, "--outdir", self._out("rebands")],
        }

    def _csv(self, name: str) -> str:
        return os.path.join(self.workdir, f"{name}.csv")

    def _out(self, kind: str) -> str:
        return os.path.join(self.workdir, kind)

    @staticmethod
    def _npiv_data(rng) -> dict[str, np.ndarray]:
        # The npiv_sine_log design: endogenous x, instrument w = Phi(z).
        n = N_NPIV
        z, v, e = rng.standard_normal((3, n))
        d = rng.integers(0, 2, n)
        x = ndtr(d * (z + v) + (1 - d) * v)
        y = np.sin(4.0 * x) * np.log(x) + 0.75 * v + np.sqrt(1 - 0.75**2) * e
        return {"y": y, "x1": x, "w1": ndtr(z)}

    @staticmethod
    def _reg2d_data(rng) -> dict[str, np.ndarray]:
        x1, x2 = rng.random((2, N_SMALL))
        y = np.sin(2 * np.pi * x1) * np.cos(np.pi * x2) + 0.5 * rng.standard_normal(N_SMALL)
        return {"y": y, "x1": x1, "x2": x2}

    @staticmethod
    def _additive_data(rng) -> dict[str, np.ndarray]:
        x1, x2 = rng.random((2, N_SMALL))
        y = 1.0 + np.sin(3 * np.pi * x1) + 4.0 * (x2 - 0.5) ** 2 + 0.5 * rng.standard_normal(N_SMALL)
        return {"y": y, "x1": x1, "x2": x2}

    @staticmethod
    def _plm_data(rng) -> dict[str, np.ndarray]:
        x1, x2 = rng.random((2, N_SMALL))
        y = np.sin(3 * np.pi * x1) + 1.5 * x2 + 0.5 * rng.standard_normal(N_SMALL)
        return {"y": y, "x1": x1, "x2": x2}

    def _call(self, kind: str):
        code = cli.main(self.argv[kind])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"npivband {kind} exited with code {code}")
        return kind

    def warmup(self):
        return self._call(self.warmup_kind)

    def round(self, r: int):
        for kind in CLI_KINDS:
            yield kind, lambda kind=kind: self._call(kind)

    # -- checks --------------------------------------------------------------

    def check(self, kind: str, token) -> None:
        out = self._out(kind)
        files = ("estimates.csv",) if kind == "rebands" else ("estimates.csv", "selection.json")
        outputs = {f: _read_bytes(os.path.join(out, f)) for f in files}
        first = self.first_outputs.setdefault(kind, outputs)
        for f in files:
            require(outputs[f] == first[f], f"{kind}: {f} differs from the first run of the same argv")
        if kind == "rebands":
            fitted = _text_columns(os.path.join(self._out("fit_npiv"), "estimates.csv"))
            rebuilt = _text_columns(os.path.join(out, "estimates.csv"))
            shared = [c for c in rebuilt if c in fitted and c != "x"]
            require(len(shared) >= 5, f"rebands shares only {shared} with fit_npiv")
            for c in shared:
                require(rebuilt[c] == fitted[c], f"rebands column {c} differs from fit_npiv")
            return
        est = _read_table(os.path.join(out, "estimates.csv"))
        with open(os.path.join(out, "selection.json"), encoding="utf-8") as fh:
            sel = json.load(fh)
        getattr(self, f"_check_{kind}")(est, sel)

    def _check_fit_npiv(self, est, sel) -> None:
        data = self.data["npiv"]
        rf.require_selection(sel)
        for j in sel["index_set"]:
            require_close(sel["s_hat_by_j"][str(j)], rf.univariate_s_hat(data["x1"], data["w1"], j),
                          f"fit_npiv s_hat at J={j}")
        grid = est["x"]
        require(np.array_equal(grid, np.linspace(0.0, 1.0, 100)), "fit_npiv grid is not linspace(0, 1, 100)")
        spline = rf.univariate_fit(data["y"], data["x1"], sel["j_tilde"], w=data["w1"])
        require_close(est["center"], rf.evaluate(spline, grid), "fit_npiv centre")
        require_close(est["center_d1"], rf.evaluate(spline, grid, 1), "fit_npiv derivative centre")
        for s in ("", "_d1"):
            rf.require_nested(est[f"lo95{s}"], est[f"lo90{s}"], est[f"center{s}"], est[f"hi90{s}"],
                              est[f"hi95{s}"], f"fit_npiv band{s}")
        require(bool(np.all(est["lo95_robust"] <= est["lo95_d1"]) and np.all(est["hi95_robust"] >= est["hi95_d1"])),
                "fit_npiv robustness band is narrower than the data-driven derivative band")

    def _check_fit_reg2d(self, est, sel) -> None:
        data = self.data["reg2d"]
        rf.require_selection(sel, d=2)
        require(sel["j_hat_max"] == rf.regression_j_hat_max(N_SMALL, d=2), "fit_reg2d J_hat_max differs")
        axis = np.linspace(0.0, 1.0, GRID_2D)
        # estimates.csv carries only x1; rows follow the C-ordered grid (x2 fastest).
        pts = np.column_stack([np.repeat(axis, GRID_2D), np.tile(axis, GRID_2D)])
        require(np.array_equal(est["x"], pts[:, 0]), "fit_reg2d rows are not in C-ordered grid order")
        t = rf.knots(rf.ORDER, rf.level_for(sel["j_tilde"], d=2))
        xy = np.column_stack([data["x1"], data["x2"]])
        coef = rf.lstsq(rf.tensor_basis(t, rf.ORDER, xy), data["y"])
        require_close(est["center"], rf.tensor_basis(t, rf.ORDER, pts) @ coef, "fit_reg2d centre")
        rf.require_nested(est["lo95"], est["lo90"], est["center"], est["hi90"], est["hi95"], "fit_reg2d band")

    def _check_fit_additive(self, est, sel) -> None:
        data = self.data["additive"]
        rf.require_selection(sel)
        require(sel["j_hat_max"] == rf.regression_j_hat_max(N_SMALL), "fit_additive J_hat_max differs")
        j = sel["j_tilde"]
        t = rf.knots(rf.ORDER, rf.level_for(j))
        ints = rf.integrals(t, rf.ORDER)
        blocks = [rf.basis(t, rf.ORDER, data[c]) - ints for c in ("x1", "x2")]
        coef = rf.lstsq(np.hstack([np.ones((N_SMALL, 1)), *blocks]), data["y"])
        grid = est["x"]
        for comp in (1, 2):
            center = (rf.basis(t, rf.ORDER, grid) - ints) @ coef[1 + (comp - 1) * j : 1 + comp * j]
            require_close(est[f"center_c{comp}"], center, f"fit_additive component {comp} centre")
            rf.require_nested(est[f"lo95_c{comp}"], est[f"lo90_c{comp}"], est[f"center_c{comp}"],
                              est[f"hi90_c{comp}"], est[f"hi95_c{comp}"], f"fit_additive component {comp} band")

    def _check_fit_plm(self, est, sel) -> None:
        data = self.data["plm"]
        rf.require_selection(sel)
        require(sel["j_hat_max"] == rf.regression_j_hat_max(N_SMALL), "fit_plm J_hat_max differs")
        j = sel["j_tilde"]
        t = rf.knots(rf.ORDER, rf.level_for(j))
        x2c = data["x2"] - data["x2"].mean()
        coef = rf.lstsq(np.column_stack([rf.basis(t, rf.ORDER, data["x1"]), x2c]), data["y"])
        require_close(sel["beta"], coef[j:], "fit_plm slope of the linear block")
        require_close(est["center"], rf.basis(t, rf.ORDER, est["x"]) @ coef[:j], "fit_plm centre")
        rf.require_nested(est["lo95"], est["lo90"], est["center"], est["hi90"], est["hi95"], "fit_plm band")


WORKLOADS = {
    # Draw generation dominates: ~21 sup-t bootstraps over small score matrices.
    "mc_trade": lambda seed, workdir: McWorkload("trade_lognormal", 1522, None, seed),
    # The contrast matmul dominates: 28 pairs of 100 x 2500 score rows.
    "mc_reg_wiggly": lambda seed, workdir: McWorkload("reg_wiggly", 2500, (), seed),
    "cli_fit": lambda seed, workdir: CliWorkload(seed, workdir),
}
