"""Command-line front end: fit, simulate, bands-plotdata.

All randomness flows from a single seed (flag ``--seed``, falling back to the
``NPIVBAND_SEED`` environment variable, then 0). Output files are written
with 17 significant digits so identical configurations reproduce identical
bytes; ``run_meta.json`` additionally records wall time and is therefore the
one file excluded from the bit-for-bit contract.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
degeneracy or an infeasible sample size.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import adaptive as ad
from . import basis as bs
from . import estimator as est
from . import extensions as ext
from . import simgen as sg
from . import ucb
from .bootstrap import MultiplierPlan
from .errors import (
    ConfigurationError,
    DataError,
    DegenerateVarianceError,
    InsufficientSampleError,
    NpivError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_TRANSFORMS = ("none", "ecdf", "affine", "trade_clamp")


@dataclass
class RunConfig:
    """Echoes every option of a run; serialized into run_meta.json."""

    subcommand: str
    input: str | None = None
    y_col: str = "y"
    x_cols: list[str] = field(default_factory=list)
    w_cols: list[str] = field(default_factory=list)
    fe_cols: list[str] = field(default_factory=list)
    mode: str = "npiv"
    linear_cols: list[int] = field(default_factory=list)
    order: int = 4
    q: int = 2
    knot_rule: str = "uniform_dyadic"
    x_transform: str = "none"
    w_transform: str = "none"
    affine_lo: float = 0.0
    affine_hi: float = 1.0
    grid_size: int = 100
    grid_lo: float = 0.0
    grid_hi: float = 1.0
    alphas: list[float] = field(default_factory=lambda: [0.05, 0.10])
    draws: int = 500
    seed: int = 0
    deriv: int = 0
    p_lower: float | None = None
    design: str | None = None
    n: list[int] = field(default_factory=list)
    reps: int = 200
    outdir: str = "."
    from_selection: str | None = None


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, (float, np.floating)) else v for v in row])


def _read_table(path: str) -> tuple[list[str], list[list[str]]]:
    if not os.path.exists(path):
        raise DataError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"input file {path} is empty") from None
        rows = list(reader)
    if not rows:
        raise DataError(f"input file {path} has no data rows")
    return [h.strip() for h in header], rows


def _resolve_columns(header: list[str], config: RunConfig) -> tuple[str, list[str], list[str]]:
    y_col = config.y_col
    if y_col not in header:
        raise ConfigurationError(f"outcome column {y_col!r} not found in {header}")
    x_cols = config.x_cols or sorted(
        (c for c in header if c.startswith("x") and c[1:].isdigit()),
        key=lambda c: int(c[1:]),
    )
    w_cols = config.w_cols or sorted(
        (c for c in header if c.startswith("w") and c[1:].isdigit()),
        key=lambda c: int(c[1:]),
    )
    if not x_cols:
        raise ConfigurationError("no regressor columns found (expected x1, x2, ... or --x-cols)")
    missing = [c for c in [*x_cols, *w_cols] if c not in header]
    if missing:
        raise ConfigurationError(f"columns {missing} not found in {header}")
    return y_col, x_cols, w_cols


def _parse_numeric(rows: list[list[str]], header: list[str], cols: list[str]) -> np.ndarray:
    idx = [header.index(c) for c in cols]
    out = np.empty((len(rows), len(cols)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"row {i + 1} has {len(row)} fields, expected {len(header)}")
        for k, j in enumerate(idx):
            try:
                out[i, k] = float(row[j])
            except ValueError:
                raise DataError(
                    f"row {i + 1}: cell {row[j]!r} in column {cols[k]!r} is not numeric"
                ) from None
    return out


def _apply_cli_transform(kind: str, data: np.ndarray, config: RunConfig) -> np.ndarray:
    if kind == "none":
        return data
    cols = []
    for j in range(data.shape[1]):
        if kind == "ecdf":
            t = bs.SupportTransform("empirical_cdf")
        elif kind == "trade_clamp":
            t = bs.TRADE_CLAMP
        else:
            t = bs.SupportTransform("affine", lo=config.affine_lo, hi=config.affine_hi)
        cols.append(bs.apply_transform(t, data[:, j]))
    return np.column_stack(cols)


def _seed_from_env(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("NPIVBAND_SEED")
    return int(env) if env else 0


def _build_sample(config: RunConfig) -> est.Sample:
    header, rows = _read_table(config.input)
    y_col, x_cols, w_cols = _resolve_columns(header, config)
    y = _parse_numeric(rows, header, [y_col])[:, 0]
    x = _apply_cli_transform(config.x_transform, _parse_numeric(rows, header, x_cols), config)
    if w_cols:
        w = _apply_cli_transform(config.w_transform, _parse_numeric(rows, header, w_cols), config)
    else:
        if config.mode == "npiv":
            raise ConfigurationError("npiv mode needs instrument columns (w1, ...)")
        w = x
    try:
        return est.Sample(y, x, w)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _band_columns(band: ucb.BandResult, suffix: str) -> dict[str, np.ndarray]:
    pct = round(100 * band.level)
    return {
        f"lo{pct}{suffix}": band.lower,
        f"hi{pct}{suffix}": band.upper,
    }


def _band_block(columns: dict, kinds: list, selection, plan, config: RunConfig, a: int, suffix: str):
    """Center, band and sigma columns of the selection's reported function at derivative a.

    Returns the variance field, which every alpha level shares.
    """
    field = ucb._selection_field(selection, (a,) * selection.backend.grid_dim)
    for alpha in config.alphas:
        band = ucb.band_deriv(selection, varfield=field, plan=plan, alpha=alpha, a=a)
        columns.setdefault(f"center{suffix}", band.center)
        columns.update(_band_columns(band, suffix))
        kinds.append(band.kind)
    columns[f"sigma{suffix}"] = field.sigma[selection.j_tilde]
    return field


def _table(columns: dict[str, np.ndarray]) -> tuple[list[str], list[list[float]]]:
    header = list(columns)
    return header, [[columns[name][i] for name in header] for i in range(columns["x"].size)]


def _estimates_table(selection, plan, config: RunConfig) -> tuple[list[str], list[list[float]], dict]:
    columns: dict[str, np.ndarray] = {"x": selection.grid[:, 0]}
    meta = {"kinds": []}
    field = _band_block(columns, meta["kinds"], selection, plan, config, 0, "")
    if config.deriv > 0:
        field = _band_block(columns, meta["kinds"], selection, plan, config, config.deriv, f"_d{config.deriv}")
    if config.p_lower is not None:
        band = ucb.band_robustness(
            selection, varfield=field, plan=plan, alpha=min(config.alphas),
            a=config.deriv, p_lower=config.p_lower,
        )
        columns.update(_band_columns(band, "_robust"))
        meta["kinds"].append(band.kind)
        meta["p_lower"] = config.p_lower
    return *_table(columns), meta


def _selection_payload(selection) -> dict:
    return {
        "j_hat_max": selection.j_hat_max,
        "index_set": list(selection.index_set),
        "alpha_hat": selection.alpha_hat,
        "theta_star": selection.theta_star,
        "j_hat": selection.j_hat,
        "j_hat_n": selection.j_hat_n,
        "j_tilde": selection.j_tilde,
        "j_minus_set": list(selection.j_minus_set),
        "a_hat": selection.a_hat,
        "lepski_factor": selection.lepski_factor,
        "s_hat_by_j": {str(j): v for j, v in selection.s_hat_by_j.items()},
        "mode": selection.mode,
        "flags": list(selection.flags),
    }


def _load_selection(path: str, sample, x_spec, ispec, mode, grid) -> ad.AdaptiveSelection:
    """Rebuild an AdaptiveSelection from selection.json plus fresh fits."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    backend = est.SieveBackend(sample, est.npiv_model(x_spec, ispec if mode == "npiv" else None))
    pts = bs.as_points(grid, backend.grid_dim)
    index_set = tuple(payload["index_set"])
    return ad.AdaptiveSelection(
        j_hat_max=payload["j_hat_max"],
        index_set=index_set,
        alpha_hat=payload["alpha_hat"],
        theta_star=payload["theta_star"],
        j_hat=payload["j_hat"],
        j_hat_n=payload["j_hat_n"],
        j_tilde=payload["j_tilde"],
        j_minus_set=tuple(payload["j_minus_set"]),
        a_hat=payload["a_hat"],
        mode=payload["mode"],
        grid=pts,
        varfield=est.build_field(backend, pts, (0,) * backend.grid_dim, index_set),
        s_hat_by_j={int(k): v for k, v in payload["s_hat_by_j"].items()},
        backend=backend,
        flags=tuple(payload["flags"]) + ("selection_overridden",),
    )


def _template_spec(config: RunConfig, dim: int) -> bs.BasisSpec:
    return bs.BasisSpec(
        config.order, 0, dim, config.knot_rule,
        interior_knots=(((),) * dim if config.knot_rule == "empirical_quantile" else None),
    )


def _structured_selection(config: RunConfig, sample: est.Sample, plan: MultiplierPlan, grid):
    """Selection for the additive / partially linear modes."""
    has_instruments = not np.array_equal(sample.w, sample.x)
    uni = _template_spec(config, 1)
    if config.mode == "additive":
        if sample.dim < 2:
            raise ConfigurationError("additive mode needs at least two x columns")
        aspec = ext.AdditiveSpec(tuple(uni for _ in range(sample.dim)))
        ispec = bs.InstrumentSpec(uni, q=config.q, dim_w=sample.dim_w) if has_instruments else None
        return ext.select_additive(sample, aspec, ispec, plan)
    linear = tuple(config.linear_cols)
    if not linear:
        raise ConfigurationError("partially_linear mode needs --linear-cols")
    d1 = sample.dim - len(linear)
    plspec = ext.PartiallyLinearSpec(_template_spec(config, d1), linear_cols=linear)
    ispec = (
        bs.InstrumentSpec(plspec.x1_spec, q=config.q, dim_w=sample.dim_w)
        if has_instruments else None
    )
    return ext.select_partially_linear(sample, plspec, ispec, plan, grid=grid)


def _additive_estimates(selection, plan: MultiplierPlan, config: RunConfig):
    grid1 = np.linspace(config.grid_lo, config.grid_hi, config.grid_size)
    columns: dict[str, np.ndarray] = {"x": grid1}
    kinds: list[str] = []
    n_comp = selection.backend.grid_dim
    for comp in range(n_comp):
        view = ext.component_view(selection, comp, grid1)
        for a in ([0, config.deriv] if config.deriv > 0 else [0]):
            suffix = f"_c{comp + 1}" + (f"_d{a}" if a > 0 else "")
            _band_block(columns, kinds, view, plan, config, a, suffix)
    return *_table(columns), {"kinds": kinds, "components": n_comp}


def _run_fit(config: RunConfig, estimates_only: bool = False) -> None:
    t0 = time.time()
    sample = _build_sample(config)
    plan = MultiplierPlan(n_draws=config.draws, base_seed=config.seed)
    if config.mode in ("additive", "partially_linear"):
        if config.from_selection:
            raise ConfigurationError("--from-selection supports the npiv/regression modes only")
        grid = np.linspace(config.grid_lo, config.grid_hi, config.grid_size).reshape(-1, 1)
        selection = _structured_selection(config, sample, plan, grid)
        if config.mode == "additive":
            header, table, meta = _additive_estimates(selection, plan, config)
        else:
            header, table, meta = _estimates_table(selection, plan, config)
        payload = _selection_payload(selection)
        if config.mode == "partially_linear":
            payload["beta"] = selection.backend.fit(selection.j_tilde).beta.tolist()
    else:
        x_spec = _template_spec(config, sample.dim)
        ispec = (
            bs.InstrumentSpec(x_spec, q=config.q, dim_w=sample.dim_w)
            if config.mode == "npiv" else None
        )
        grid = np.linspace(config.grid_lo, config.grid_hi, config.grid_size).reshape(-1, 1) \
            if sample.dim == 1 else ad.default_grid(sample.dim, config.grid_size)
        if config.from_selection:
            selection = _load_selection(config.from_selection, sample, x_spec, ispec, config.mode, grid)
        else:
            selection = ad.select(sample, x_spec, ispec, plan=plan, mode=config.mode, grid=grid)
        header, table, meta = _estimates_table(selection, plan, config)
        payload = _selection_payload(selection)
    os.makedirs(config.outdir, exist_ok=True)
    _write_csv(os.path.join(config.outdir, "estimates.csv"), header, table)
    if not estimates_only:
        _write_json(os.path.join(config.outdir, "selection.json"), payload)
        _write_meta(config, t0, extra=meta)


def _write_meta(config: RunConfig, t0: float, extra: dict | None = None) -> None:
    payload = {
        "config": {k: v for k, v in vars(config).items()},
        "seed": config.seed,
        "version": __version__,
        "wall_time_seconds": time.time() - t0,
    }
    if extra:
        payload["outputs"] = extra
    _write_json(os.path.join(config.outdir, "run_meta.json"), payload)


def _run_simulate(config: RunConfig) -> None:
    t0 = time.time()
    if config.design not in sg.DESIGN_NAMES:
        raise ConfigurationError(
            f"unknown design {config.design!r}; choose from {sg.DESIGN_NAMES}"
        )
    plan = MultiplierPlan(n_draws=config.draws, base_seed=config.seed)
    report = sg.run_mc(
        config.design, config.n or [1250], config.reps, plan=plan,
        base_seed=config.seed, grid_points=config.grid_size,
    )
    os.makedirs(config.outdir, exist_ok=True)
    records = report.to_records()
    header = list(records[0])
    _write_csv(
        os.path.join(config.outdir, "mc_report.csv"),
        header,
        [[("" if r[k] is None else r[k]) for k in header] for r in records],
    )
    _write_json(
        os.path.join(config.outdir, "mc_report.json"),
        {
            "design": report.design,
            "reps": report.reps,
            "base_seed": report.base_seed,
            "rows": records,
            "j_tilde_histogram": {
                str(n): {str(j): int(c) for j, c in zip(*np.unique(vals, return_counts=True))}
                for n, vals in report.j_tilde.items()
            },
        },
    )
    _write_meta(config, t0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npivband",
        description="Sieve NPIV estimation with data-driven dimension and uniform confidence bands",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="master seed (env NPIVBAND_SEED)")
        p.add_argument("--draws", type=int, default=500, help="bootstrap draws")
        p.add_argument("--grid-size", type=int, default=100)
        p.add_argument("--outdir", default=".")

    def add_fit_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="CSV file with a header row")
        p.add_argument("--y-col", default="y")
        p.add_argument("--x-cols", nargs="*", default=[])
        p.add_argument("--w-cols", nargs="*", default=[])
        p.add_argument("--fe-cols", nargs="*", default=[])
        p.add_argument(
            "--mode",
            choices=("npiv", "regression", "additive", "partially_linear"),
            default="npiv",
        )
        p.add_argument("--linear-cols", type=int, nargs="*", default=[],
                        help="x-column indices (0-based) of the linear block")
        p.add_argument("--order", type=int, default=4)
        p.add_argument("--q", type=int, default=2)
        p.add_argument("--knot-rule", choices=bs.KNOT_RULES, default="uniform_dyadic")
        p.add_argument("--x-transform", choices=_TRANSFORMS, default="none")
        p.add_argument("--w-transform", choices=_TRANSFORMS, default="none")
        p.add_argument("--affine-lo", type=float, default=0.0)
        p.add_argument("--affine-hi", type=float, default=1.0)
        p.add_argument("--grid-lo", type=float, default=0.0)
        p.add_argument("--grid-hi", type=float, default=1.0)
        p.add_argument("--alpha", dest="alphas", type=float, nargs="*", default=[0.05, 0.10])
        p.add_argument("--deriv", type=int, default=0)
        p.add_argument("--p-lower", type=float, default=None)
        p.add_argument("--from-selection", default=None,
                        help="selection.json to reuse instead of re-running the dimension selection")
        add_common(p)

    fit = sub.add_parser("fit", help="data-driven fit, selection, and bands from a CSV")
    add_fit_options(fit)

    plot = sub.add_parser("bands-plotdata", help="write estimates.csv only")
    add_fit_options(plot)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study of a shipped design")
    sim.add_argument("--design", required=True)
    sim.add_argument("--n", type=int, nargs="*", default=[1250])
    sim.add_argument("--reps", type=int, default=200)
    add_common(sim)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    payload = {k.replace("-", "_"): v for k, v in vars(args).items()}
    payload["seed"] = _seed_from_env(payload.get("seed"))
    known = {f for f in RunConfig.__dataclass_fields__}
    return RunConfig(**{k: v for k, v in payload.items() if k in known})


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        for alpha in config.alphas:
            if not 0.0 < alpha < 1.0:
                raise ConfigurationError("alpha levels must lie in (0, 1)")
        if config.subcommand == "fit":
            _run_fit(config)
        elif config.subcommand == "bands-plotdata":
            _run_fit(config, estimates_only=True)
        else:
            _run_simulate(config)
        return EXIT_OK
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DegenerateVarianceError, InsufficientSampleError) as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except NpivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
