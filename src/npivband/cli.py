"""Command-line front end: fit, simulate, bands-plotdata.

``fit`` and ``bands-plotdata`` take one path for every ``--mode``: build the
model description (standard NPIV or regression, additive, or partially
linear), run the data-driven selection of J or load a stored one
(``--from-selection``), then write one estimates table of band blocks, one
block set per reported function (h, h1, or each additive component).

All randomness flows from a single seed (flag ``--seed``, falling back to the
``NPIVBAND_SEED`` environment variable, then 0). Output files are written
with 17 significant digits, and ``main`` runs numpy's bundled OpenBLAS on one
thread (restoring the caller's count on return), so identical configurations
reproduce identical bytes whatever the host's cores or thread variables;
with another BLAS the contract holds at one BLAS thread. ``run_meta.json``
additionally records wall time (in total and per stage: read, select, bands,
write), the peak RSS after each stage and, under ``outputs.blas``, the BLAS
library file and thread count (nulls without the OpenBLAS setter), and is
therefore the one file excluded from the bit-for-bit contract. Its
``config`` echoes the subcommand's options.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
degeneracy or an infeasible sample size.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from . import __version__
from . import adaptive as ad
from . import basis as bs
from . import estimator as est
from . import extensions as ext
from . import simgen as sg
from . import ucb
from ._linalg import map_threads, one_blas_thread, openblas
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

# The first match names the exit code of an error; the package's other errors exit 2.
_EXIT_CODES = (
    (ConfigurationError, "configuration error", EXIT_CONFIG),
    (DataError, "data error", EXIT_DATA),
    ((DegenerateVarianceError, InsufficientSampleError), "numerical degeneracy", EXIT_NUMERIC),
    (NpivError, "error", EXIT_CONFIG),
)

_TRANSFORMS = ("none", "ecdf", "affine", "trade_clamp")

#: Rows per block of an all-float table that ``_write_csv`` formats at once.
_CSV_BLOCK = 4096


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


def _csv_cells(column) -> list[str]:
    """A column's cells: floats at 17 significant digits, None empty, anything else as ``str``."""
    return ["" if v is None else "%.17g" % v if isinstance(v, (float, np.floating)) else str(v)
            for v in column]


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write the table given by its ``columns`` under ``header``.

    A table of float arrays is written ``_CSV_BLOCK`` rows at a time through one
    repeated ``%.17g`` row format, which gives the bytes of per-cell formatting
    and holds one block of text at a time; any other table formats each
    column's cells once.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if not all(isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns):
            writer.writerows(zip(*map(_csv_cells, columns)))
            return
        row, n = ",".join(["%.17g"] * len(columns)) + "\n", min(map(len, columns), default=0)
        for lo in range(0, n, _CSV_BLOCK):
            block = np.column_stack([c[lo : min(lo + _CSV_BLOCK, n)] for c in columns])
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


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


def _numbered(header: list[str], prefix: str) -> list[str]:
    """The columns named prefix1, prefix2, ... in numeric order."""
    return sorted((c for c in header if c[:1] == prefix and c[1:].isdigit()), key=lambda c: int(c[1:]))


def _resolve_columns(header: list[str], config: argparse.Namespace) -> tuple[str, list[str], list[str]]:
    y_col = config.y_col
    if y_col not in header:
        raise ConfigurationError(f"outcome column {y_col!r} not found in {header}")
    x_cols = config.x_cols or _numbered(header, "x")
    w_cols = config.w_cols or _numbered(header, "w")
    if not x_cols:
        raise ConfigurationError("no regressor columns found (expected x1, x2, ... or --x-cols)")
    missing = [c for c in [*x_cols, *w_cols] if c not in header]
    if missing:
        raise ConfigurationError(f"columns {missing} not found in {header}")
    return y_col, x_cols, w_cols


def _columns(rows: list[list[str]], header: list[str]) -> list[tuple[str, ...]] | None:
    """The table's cells column by column, or None when a row has the wrong number of fields."""
    if any(len(row) != len(header) for row in rows):
        return None
    return list(zip(*rows))


def _parse_numeric(rows: list[list[str]], header: list[str], cols: list[str], columns=None) -> np.ndarray:
    """The n x len(cols) floats of ``cols``, converted a column at a time from ``_columns``.

    Without ``columns``, or when a cell is not numeric, the rows are scanned
    in order, so the error names the first bad row or cell.
    """
    idx = [header.index(c) for c in cols]
    if columns is not None:
        try:
            return np.column_stack([np.fromiter(map(float, columns[j]), float, len(rows)) for j in idx])
        except ValueError:
            pass
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


def _apply_cli_transform(kind: str, data: np.ndarray, config: argparse.Namespace) -> np.ndarray:
    if kind == "none":
        return data
    if kind == "ecdf":
        t = bs.SupportTransform("empirical_cdf")
    elif kind == "trade_clamp":
        t = bs.TRADE_CLAMP
    else:
        t = bs.SupportTransform("affine", lo=config.affine_lo, hi=config.affine_hi)
    return np.column_stack([bs.apply_transform(t, col) for col in data.T])


def _seed_from_env(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("NPIVBAND_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ConfigurationError(f"NPIVBAND_SEED must be an integer, got {env!r}") from None


def _build_sample(config: argparse.Namespace) -> est.Sample:
    header, rows = _read_table(config.input)
    y_col, x_cols, w_cols = _resolve_columns(header, config)
    columns = _columns(rows, header)
    y = _parse_numeric(rows, header, [y_col], columns)[:, 0]
    x = _apply_cli_transform(config.x_transform, _parse_numeric(rows, header, x_cols, columns), config)
    if w_cols:
        w = _apply_cli_transform(config.w_transform, _parse_numeric(rows, header, w_cols, columns), config)
    else:
        if config.mode == "npiv":
            raise ConfigurationError("npiv mode needs instrument columns (w1, ...)")
        w = x
    try:
        return est.Sample(y, x, w)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _level_label(level: float) -> int:
    """The percent in the estimates.csv column names of a band at ``level``."""
    return round(100 * level)


def _band_columns(band: ucb.BandResult, suffix: str) -> dict[str, np.ndarray]:
    pct = _level_label(band.level)
    return {
        f"lo{pct}{suffix}": band.lower,
        f"hi{pct}{suffix}": band.upper,
    }


def _band_block(columns: dict, kinds: list, selection, plan, config: argparse.Namespace, a: int, suffix: str):
    """Center, band and sigma columns of the selection's reported function at derivative a."""
    for alpha in config.alphas:
        band = ucb.band_deriv(selection, plan=plan, alpha=alpha, a=a)
        columns.setdefault(f"center{suffix}", band.center)
        columns.update(_band_columns(band, suffix))
        kinds.append(band.kind)
    columns[f"sigma{suffix}"] = selection.band_field(a).sigma[selection.j_tilde]


def _estimates_table(selection, plan, config: argparse.Namespace) -> tuple[list[str], list[np.ndarray], dict]:
    """The table's columns of one value per grid point; per reported function the a=0, --deriv and robustness columns."""
    meta: dict = {"kinds": []}
    if config.mode == "additive":
        line = np.linspace(config.grid_lo, config.grid_hi, config.grid_size)
        meta["components"] = selection.backend.grid_dim
        views = [(ext.component_view(selection, comp, line), f"_c{comp + 1}")
                 for comp in range(meta["components"])]
    else:
        views = [(selection, "")]
    columns: dict[str, np.ndarray] = {"x": views[0][0].grid[:, 0]}
    for view, suffix in views:
        _band_block(columns, meta["kinds"], view, plan, config, 0, suffix)
        if config.deriv > 0:
            _band_block(columns, meta["kinds"], view, plan, config, config.deriv, f"{suffix}_d{config.deriv}")
        if config.p_lower is not None:
            band = ucb.band_robustness(view, plan=plan, alpha=min(config.alphas), a=config.deriv,
                                       p_lower=config.p_lower)
            columns.update(_band_columns(band, f"_robust{suffix}"))
            meta["kinds"].append(band.kind)
            meta["p_lower"] = config.p_lower
    return list(columns), list(columns.values()), meta


# The AdaptiveSelection fields that selection.json stores and --from-selection reads.
_STORED = (
    "j_hat_max", "index_set", "alpha_hat", "theta_star", "j_hat", "j_hat_n", "j_tilde",
    "j_minus_set", "a_hat", "lepski_factor", "s_hat_by_j", "mode", "flags",
)


def _selection_payload(selection) -> dict:
    """The ``_STORED`` fields, and ``fit_flags_by_j``: per J of the index set, its fit's flags (not read back)."""
    payload = {name: getattr(selection, name) for name in _STORED}
    payload["s_hat_by_j"] = {str(j): v for j, v in selection.s_hat_by_j.items()}
    payload["fit_flags_by_j"] = {str(j): list(selection.backend.fit(j).flags) for j in selection.index_set}
    return payload


def _load_selection(path: str, backend: est.SieveBackend, mode: str, grid) -> ad.AdaptiveSelection:
    """Rebuild an AdaptiveSelection from selection.json plus fresh fits.

    Every stored J must be a dimension the backend can fit, and the stored
    selection mode must be this run's ``mode``; both are checked before any
    fit. The bands build their variance fields over the J values they use.
    """
    dims = set(backend.candidate_dims())
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        stored = {name: payload[name] for name in _STORED}
        stored.update(
            index_set=tuple(stored["index_set"]),
            j_minus_set=tuple(stored["j_minus_set"]),
            s_hat_by_j={int(j): v for j, v in stored["s_hat_by_j"].items()},
            flags=(*stored["flags"], "selection_overridden"),
        )
        bad = sorted({*stored["index_set"], *stored["j_minus_set"], stored["j_tilde"]} - dims)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"cannot read selection file {path}: {type(exc).__name__}: {exc}") from None
    if bad:
        raise DataError(
            f"selection file {path} holds J values {bad} that this model cannot fit; "
            f"its dimensions on this sample are {sorted(dims)}"
        )
    if stored["mode"] != mode:
        raise DataError(f"selection file {path} holds a {stored['mode']!r} selection; this run selects in {mode!r}")
    return ad.AdaptiveSelection(
        **stored, grid=bs.as_points(grid, backend.grid_dim), varfield=None, backend=backend
    )


def _template_spec(config: argparse.Namespace, dim: int) -> bs.BasisSpec:
    return bs.BasisSpec(
        config.order, 0, dim, config.knot_rule,
        interior_knots=(((),) * dim if config.knot_rule == "empirical_quantile" else None),
    )


def _model(config: argparse.Namespace, sample: est.Sample):
    """The model description, its selection mode and its selection grid.

    Every fit option is checked here, against the sample, before any fit.
    """
    if not config.alphas or not all(0.0 < alpha < 1.0 for alpha in config.alphas):
        raise ConfigurationError("--alpha needs one or more levels in (0, 1)")
    labels = [_level_label(1.0 - alpha) for alpha in config.alphas]
    if len(set(labels)) < len(labels):
        raise ConfigurationError(f"--alpha levels {config.alphas} share band column labels {labels}")
    if config.grid_size < 1:
        raise ConfigurationError("--grid-size must be at least 1")
    if config.deriv < 0:
        raise ConfigurationError("--deriv must be nonnegative")
    if config.p_lower is not None and not config.p_lower > config.deriv:
        raise ConfigurationError(f"--p-lower must exceed --deriv (got {config.p_lower} and {config.deriv})")
    instrumented = config.mode == "npiv" or (
        config.mode != "regression" and not np.array_equal(sample.w, sample.x)
    )
    # The rule run_mc applies to its report interval.
    if not 0.0 <= config.grid_lo < config.grid_hi <= 1.0:
        raise ConfigurationError("--grid-lo and --grid-hi need 0 <= lo < hi <= 1")
    linear = tuple(config.linear_cols) if config.mode == "partially_linear" else ()
    if config.mode == "partially_linear":
        if not linear:
            raise ConfigurationError("partially_linear mode needs --linear-cols (the linear block's x columns)")
        ext.nonparametric_cols(linear, sample.dim)
    if config.mode == "additive" and sample.dim < 2:
        raise ConfigurationError("additive mode needs at least two x columns")
    spec = _template_spec(config, 1 if config.mode == "additive" else sample.dim - len(linear))
    # Derivative bands need a univariate reported function (each additive component is one,
    # and spec has the reported function's dimension) and an order within the spline's smoothness.
    bs.normalize_deriv(spec, config.deriv)
    ispec = bs.InstrumentSpec(spec, q=config.q, dim_w=sample.dim_w) if instrumented else None
    if config.mode == "additive":
        model = ext.additive_model(ext.AdditiveSpec((spec,) * sample.dim), ispec)
    elif config.mode == "partially_linear":
        model = ext.partially_linear_model(ext.PartiallyLinearSpec(spec, linear_cols=linear), ispec)
    else:
        model = est.npiv_model(spec, ispec)
    if model.grid_dim == 1:
        grid = np.linspace(config.grid_lo, config.grid_hi, config.grid_size).reshape(-1, 1)
    else:
        # The additive selection contrasts the full estimate on 25 points per axis.
        unit = ad.default_grid(model.grid_dim, 25 if config.mode == "additive" else config.grid_size)
        grid = config.grid_lo + (config.grid_hi - config.grid_lo) * unit
    return model, "npiv" if ispec is not None else "regression", grid


@contextmanager
def _stage(stages: dict[str, float], peaks: dict[str, float], name: str):
    """Record the enclosed block's wall seconds as ``stages[name]`` and the peak RSS after it as ``peaks[name]``.

    The peak is the process's maximum resident set so far, in MB (``ru_maxrss``
    is in KiB on Linux), so it never falls from one stage to the next.
    """
    tick = time.perf_counter()
    yield
    stages[name] = time.perf_counter() - tick
    peaks[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_fit(config: argparse.Namespace, estimates_only: bool = False) -> None:
    t0 = time.perf_counter()
    stages: dict[str, float] = {}
    peaks: dict[str, float] = {}
    with _stage(stages, peaks, "read"):
        sample = _build_sample(config)
    model, mode, grid = _model(config, sample)
    backend = est.SieveBackend(sample, model)
    plan = MultiplierPlan(n_draws=config.draws, base_seed=config.seed)
    with _stage(stages, peaks, "select"):
        if config.from_selection:
            selection = _load_selection(config.from_selection, backend, mode, grid)
        else:
            selection = ad.run_selection(backend, plan, mode, grid)
    with _stage(stages, peaks, "bands"):
        header, columns, meta = _estimates_table(selection, plan, config)
    with _stage(stages, peaks, "write"):
        os.makedirs(config.outdir, exist_ok=True)
        _write_csv(os.path.join(config.outdir, "estimates.csv"), header, columns)
        if not estimates_only:
            payload = _selection_payload(selection)
            if config.mode == "partially_linear":
                fit = backend.fit(selection.j_tilde)
                payload["beta"] = fit.coef[fit.j:].tolist()
            _write_json(os.path.join(config.outdir, "selection.json"), payload)
    if not estimates_only:
        _write_meta(config, t0, extra={**meta, "stages": stages, "stage_peak_rss_mb": peaks})


def _write_meta(config: argparse.Namespace, t0: float, extra: dict | None = None) -> None:
    lib = openblas()
    blas = {"library": None, "threads": None} if lib is None else {
        "library": os.path.basename(lib._name), "threads": lib.scipy_openblas_get_num_threads64_()}
    # The threads the bootstrap's thread maps used: the draws, and the projections, which call BLAS.
    threads = {"draws": map_threads(), "projections": map_threads(blas=True)}
    payload = {
        "config": vars(config),
        "outputs": {**(extra or {}), "blas": blas, "bootstrap_threads": threads},
        "seed": config.seed,
        "version": __version__,
        "wall_time_seconds": time.perf_counter() - t0,
    }
    _write_json(os.path.join(config.outdir, "run_meta.json"), payload)


def _run_simulate(config: argparse.Namespace) -> None:
    t0 = time.perf_counter()
    plan = MultiplierPlan(n_draws=config.draws, base_seed=config.seed)
    report = sg.run_mc(
        config.design, config.n or [1250], config.reps, plan=plan,
        base_seed=config.seed, grid_points=config.grid_size,
    )
    os.makedirs(config.outdir, exist_ok=True)
    records = report.to_records()
    header = list(records[0])
    _write_csv(os.path.join(config.outdir, "mc_report.csv"), header, [[r[k] for r in records] for k in header])
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
            # Per n, how many replications raised each selection flag.
            "selection_flags": {
                str(n): dict(sorted(Counter(f for flags in rep_flags for f in set(flags)).items()))
                for n, rep_flags in report.flags.items()
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        with one_blas_thread():
            config = parser.parse_args(argv)
            config.seed = _seed_from_env(config.seed)
            if config.subcommand == "fit":
                _run_fit(config)
            elif config.subcommand == "bands-plotdata":
                _run_fit(config, estimates_only=True)
            else:
                _run_simulate(config)
        return EXIT_OK
    except (NpivError, RuntimeError) as exc:
        # run_mc reports a failed replication as a RuntimeError that names it and chains its cause.
        cause = exc if isinstance(exc, NpivError) else exc.__cause__
        for kinds, label, code in _EXIT_CODES:
            if isinstance(cause, kinds):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
