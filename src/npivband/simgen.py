"""Simulation designs and the Monte Carlo harness.

Four designs ship with the package:

* ``npiv_sine_log``: endogenous design with structural function
  sin(4x) log(x), instruments via a normal first stage.
* ``reg_wiggly``: nonparametric regression with conditional mean
  sin(15 pi x) cos(x), which needs a high-dimensional sieve.
* ``trade_lognormal``: intensive-margin design calibrated to a gravity
  model with lognormal firm heterogeneity; the derivative target is the
  intensive-margin elasticity.
* ``trade_pareto``: same design with the Pareto (constant elasticity)
  intensive margin, linear on the transformed scale.

The trade designs resample the cost shifter from a stored value list.  The
shipped default is a synthetic uniform quantile grid (the original
cost-shifter data is not distributable); pass ``z_values`` to use real data.

``run_mc`` runs each replication as one function, ``_replication``. Its data
and bootstrap streams come from ``_rep_seeds(base_seed, n, rep)`` alone, so a
replication does not depend on the others. It returns a record: J~, the
selection flags, the a=0 diagnostics ``(sup_dev, z*, theta*, A_hat)`` and one
outcome ``(loss, covered95, covered90, mean width, excludes constant)`` per
(target, method). ``run_mc`` collects the records in replication order, from
this process or a pool of forked ones, and transposes them into the report's
per-n arrays and rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from . import adaptive as ad
from . import basis as bs
from . import estimator as est
from . import ucb
from .bootstrap import MultiplierPlan
from .errors import ConfigurationError, InvalidDimensionError

DESIGN_NAMES = ("npiv_sine_log", "reg_wiggly", "trade_lognormal", "trade_pareto")

#: smallest sample size a design generates
MIN_N = 10

#: numeric slack for the coverage containment check, relative to band scale
_COVERAGE_ATOL = 1e-9


# ---------------------------------------------------------------------------
# Trade calibration and closed forms
# ---------------------------------------------------------------------------


def _default_z_values(size: int = 1522, lo: float = 5.4, hi: float = 10.1) -> tuple[float, ...]:
    # Uniform quantile grid standing in for a confidential cost-shifter sample.
    probs = (np.arange(size) + 0.5) / size
    return tuple(lo + probs * (hi - lo))


@dataclass(frozen=True)
class TradeCalibration:
    """Constants of the trade DGP; defaults are desk-scale stand-ins.

    The shipped noise covariance and cost-shifter grid are calibrated so the
    participation-share distribution and band-width profile look like real
    bilateral trade data; both accept user overrides.
    """

    mu: float = -2.0
    sigma: float = 1.2
    z_coef: float = 0.875
    z_intercept: float = -7.0
    sigma_tilde: float = 2.9
    kappa_tau: float = 0.36
    noise_cov: tuple[tuple[float, float], tuple[float, float]] = ((0.04, 0.0), (0.0, 0.25))
    z_values: tuple[float, ...] = field(default_factory=_default_z_values)
    pareto_slope: float = -0.23


def lognormal_log_eps(pi, mu: float, sigma: float):
    """Extensive margin log eps(pi) = mu + sigma sqrt(2) erfinv(1 - 2 pi)."""
    return mu - sigma * ndtri(pi)


def pi_from_log_eps(log_eps, mu: float, sigma: float):
    """Exact inverse of the extensive margin: pi = Phi((mu - log eps)/sigma)."""
    return ndtr((mu - np.asarray(log_eps)) / sigma)


def lognormal_log_rho(pi, mu: float, sigma: float):
    """Lognormal intensive margin, evaluated in a numerically stable form."""
    q = ndtri(np.asarray(pi, dtype=np.float64))
    return mu + sigma**2 / 2.0 - np.log(pi) + log_ndtr(sigma**2 + q)


def lognormal_elasticity(pi, sigma: float):
    """d log rho / d log pi for the lognormal intensive margin."""
    pi = np.asarray(pi, dtype=np.float64)
    q = ndtri(pi)
    return -1.0 + np.exp(np.log(pi) - sigma**4 / 2.0 - sigma**2 * q - log_ndtr(sigma**2 + q))


def _x_from_log_pi(log_pi):
    return np.clip(np.asarray(log_pi) / 10.0 + 1.0, 0.0, 1.0)


def _log_pi_from_x(x):
    return 10.0 * (np.asarray(x) - 1.0)


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TruthHandle:
    """Structural function and its first derivative on the transformed scale."""

    h: Callable[[np.ndarray], np.ndarray]
    dh: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class Design:
    name: str
    mode: str
    sampler: Callable[[int, np.random.Generator], est.Sample]
    truth: TruthHandle
    x_spec: bs.BasisSpec
    ispec: bs.InstrumentSpec | None
    report_interval: tuple[float, float]
    targets: tuple[int, ...]
    det_js: tuple[int, ...]

    def report_grid(self, points: int = 100) -> np.ndarray:
        lo, hi = self.report_interval
        return np.linspace(lo, hi, points).reshape(-1, 1)


def _design_npiv_sine_log() -> Design:
    spec = bs.BasisSpec(4, 0)

    def sampler(n: int, rng: np.random.Generator) -> est.Sample:
        z = rng.standard_normal(n)
        v = rng.standard_normal(n)
        u = 0.75 * v + math.sqrt(1.0 - 0.75**2) * rng.standard_normal(n)
        d = rng.integers(0, 2, n)
        x = ndtr(d * (z + v) + (1 - d) * v)
        w = ndtr(z)
        y = np.sin(4.0 * x) * np.log(x) + u
        return est.Sample(y, x, w)

    truth = TruthHandle(
        h=lambda x: np.sin(4.0 * x) * np.log(x),
        dh=lambda x: 4.0 * np.cos(4.0 * x) * np.log(x) + np.sin(4.0 * x) / x,
    )
    return Design(
        name="npiv_sine_log",
        mode="npiv",
        sampler=sampler,
        truth=truth,
        x_spec=spec,
        ispec=bs.InstrumentSpec(spec, q=2),
        report_interval=(0.01, 0.99),
        targets=(0,),
        det_js=(4, 5, 7, 11),
    )


def _design_reg_wiggly() -> Design:
    spec = bs.BasisSpec(4, 0)

    def sampler(n: int, rng: np.random.Generator) -> est.Sample:
        x = rng.random(n)
        y = np.sin(15.0 * np.pi * x) * np.cos(x) + rng.standard_normal(n)
        return est.Sample(y, x, x)

    truth = TruthHandle(
        h=lambda x: np.sin(15.0 * np.pi * x) * np.cos(x),
        dh=lambda x: 15.0 * np.pi * np.cos(15.0 * np.pi * x) * np.cos(x)
        - np.sin(15.0 * np.pi * x) * np.sin(x),
    )
    return Design(
        name="reg_wiggly",
        mode="regression",
        sampler=sampler,
        truth=truth,
        x_spec=spec,
        ispec=None,
        report_interval=(0.0, 1.0),
        targets=(0,),
        det_js=(11, 19, 35, 67),
    )


def _trade_sampler(calib: TradeCalibration, log_rho_fn) -> Callable[[int, np.random.Generator], est.Sample]:
    cov = np.asarray(calib.noise_cov, dtype=np.float64)
    if cov.shape != (2, 2):
        raise ConfigurationError("noise_cov must be 2x2")
    chol = np.linalg.cholesky(cov + 1e-300 * np.eye(2))
    z_pool = np.asarray(calib.z_values, dtype=np.float64)

    def sampler(n: int, rng: np.random.Generator) -> est.Sample:
        z = rng.choice(z_pool, size=n, replace=True)
        noise = rng.standard_normal((n, 2)) @ chol.T
        log_eps = calib.z_coef * z + calib.z_intercept + noise[:, 0]
        pi = pi_from_log_eps(log_eps, calib.mu, calib.sigma)
        log_pi = np.log(pi)
        xbar = log_rho_fn(pi) - calib.sigma_tilde * calib.kappa_tau * z + noise[:, 1]
        y = xbar + calib.sigma_tilde * calib.kappa_tau * z
        x = _x_from_log_pi(log_pi)
        w = bs.apply_transform(bs.SupportTransform("empirical_cdf"), z)
        return est.Sample(y, x, w)

    return sampler


def _design_trade(calib: TradeCalibration, pareto: bool) -> Design:
    spec = bs.BasisSpec(4, 0, knot_rule="empirical_quantile", interior_knots=((),))

    if pareto:
        def log_rho_fn(pi):
            return calib.pareto_slope * np.log(pi)

        def elasticity_fn(pi):
            return np.full_like(np.asarray(pi, dtype=np.float64), calib.pareto_slope)
    else:
        def log_rho_fn(pi):
            return lognormal_log_rho(pi, calib.mu, calib.sigma)

        def elasticity_fn(pi):
            return lognormal_elasticity(pi, calib.sigma)

    truth = TruthHandle(
        h=lambda x: log_rho_fn(np.exp(_log_pi_from_x(x))),
        dh=lambda x: 10.0 * elasticity_fn(np.exp(_log_pi_from_x(x))),
    )
    lo, hi = _x_from_log_pi(math.log(1e-3)), _x_from_log_pi(math.log(0.5))
    return Design(
        name="trade_pareto" if pareto else "trade_lognormal",
        mode="npiv",
        sampler=_trade_sampler(calib, log_rho_fn),
        truth=truth,
        x_spec=spec,
        ispec=bs.InstrumentSpec(spec, q=2, knot_rule="uniform_dyadic"),
        report_interval=(float(lo), float(hi)),
        targets=(0, 1),
        det_js=(4, 5, 7, 11),
    )


def get_design(name: str, calibration: TradeCalibration | None = None, **overrides) -> Design:
    """Look up a shipped design by name; trade designs accept a calibration."""
    if name == "npiv_sine_log":
        design = _design_npiv_sine_log()
    elif name == "reg_wiggly":
        design = _design_reg_wiggly()
    elif name == "trade_lognormal":
        design = _design_trade(calibration or TradeCalibration(), pareto=False)
    elif name == "trade_pareto":
        design = _design_trade(calibration or TradeCalibration(), pareto=True)
    else:
        raise ConfigurationError(f"unknown design {name!r}; choose from {DESIGN_NAMES}")
    return replace(design, **overrides) if overrides else design


def generate(design: Design, n: int, seed: int) -> tuple[est.Sample, TruthHandle]:
    """Draw one sample of size n; deterministic given the seed."""
    if n < MIN_N:
        raise ConfigurationError(f"samples below n={MIN_N} are not supported")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed),)))
    return design.sampler(n, rng), design.truth


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McRow:
    design: str
    n: int
    target: int
    method: str
    reps: int
    base_seed: int
    mean_loss: float
    median_loss: float
    coverage90: float
    coverage95: float
    se_coverage95: float
    mean_width_ratio: float | None
    median_width_ratio: float | None
    reject_rate: float | None
    mean_j: float
    se_loss: float


@dataclass(eq=False)
class McReport:
    rows: list[McRow]
    j_tilde: dict[int, np.ndarray]
    flags: dict[int, list[tuple[str, ...]]]  # per n, each replication's selection flags
    diagnostics: dict[int, dict[str, np.ndarray]]
    design: str
    reps: int
    base_seed: int

    def row(self, n: int, method: str, target: int = 0) -> McRow:
        for r in self.rows:
            if r.n == n and r.method == method and r.target == target:
                return r
        raise KeyError(f"no row for n={n}, method={method!r}, target={target}")

    def to_records(self) -> list[dict]:
        return [vars(r).copy() for r in self.rows]


def _rep_seeds(base_seed: int, n: int, rep: int) -> tuple[int, int]:
    data = np.random.SeedSequence(entropy=(int(base_seed), 1, int(n), int(rep)))
    boot = np.random.SeedSequence(entropy=(int(base_seed), 2, int(n), int(rep)))
    return int(data.generate_state(1, np.uint64)[0]), int(boot.generate_state(1, np.uint64)[0])


def _covered(band: ucb.BandResult, truth_vals: np.ndarray) -> bool:
    slack = _COVERAGE_ATOL * (1.0 + float(np.abs(truth_vals).max()))
    return bool(np.all(np.abs(band.center - truth_vals) <= band.halfwidth + slack))


def _outcome(truth_vals: np.ndarray, b95: ucb.BandResult, b90: ucb.BandResult) -> tuple:
    """(loss, covered95, covered90, mean width, excludes constant) of one method."""
    return (
        float(np.abs(b95.center - truth_vals).max()), _covered(b95, truth_vals),
        _covered(b90, truth_vals), float(b95.width.mean()), ucb.excludes_constant(b95),
    )


def _replication(design: Design, n: int, rep: int, plan: MultiplierPlan, grid: np.ndarray,
                 det_js: tuple[int, ...], truth: dict[int, np.ndarray], base_seed: int) -> tuple:
    """One replication: (J~, flags, a=0 diagnostics or None, {(target, method): outcome})."""
    data_seed, boot_seed = _rep_seeds(base_seed, n, rep)
    rep_plan = MultiplierPlan(n_draws=plan.n_draws, base_seed=boot_seed)
    sample, _ = generate(design, n, data_seed)
    selection = ad.select(sample, design.x_spec, design.ispec, plan=rep_plan, mode=design.mode, grid=grid)
    diag, outcomes = None, {}
    for a, truth_vals in truth.items():
        b95, b90 = (ucb.band_deriv(selection, rep_plan, alpha=al, a=a) for al in (0.05, 0.10))
        outcomes[a, "data_driven"] = _outcome(truth_vals, b95, b90)
        if a == 0:
            dev = np.abs(b95.center - truth_vals) / b95.halfwidth * (b95.z_star + b95.a_hat * b95.theta_star)
            diag = (float(dev.max()), b95.z_star, selection.theta_star, selection.a_hat)
        det_field = est.build_field(selection.backend, grid, (a,), det_js) if det_js else None
        for j in det_js:
            outcomes[a, f"J={j}"] = _outcome(truth_vals, *(
                ucb.band_undersmoothed(det_field, j, rep_plan, alpha=al) for al in (0.05, 0.10)
            ))
    return selection.j_tilde, selection.flags, diag, outcomes


#: The replication function of a forked pool worker, set by ``_adopt`` as the worker starts.
_WORKER_JOB = None


def _adopt(job) -> None:
    global _WORKER_JOB
    _WORKER_JOB = job


def _call_job(task: tuple[int, int]) -> tuple:
    return _WORKER_JOB(*task)


def _run_replications(job, tasks: list[tuple[int, int]], n_workers: int) -> list[tuple]:
    """The records ``job(n, rep)`` of the tasks (n, rep), in task order.

    Above one worker the tasks run in ``n_workers`` forked processes, which
    inherit ``job`` since a ``Design`` holds closures that do not pickle
    (npivband starts no threads that a fork could catch holding a lock);
    only tasks go out and only records come back.
    """
    if n_workers == 1:
        return _in_order((job(*task) for task in tasks), tasks)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(min(n_workers, len(tasks)), multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(job,)) as pool:
        return _in_order(pool.map(_call_job, tasks), tasks)


def _in_order(results, tasks: list[tuple[int, int]]) -> list[tuple]:
    """One record per task; a failure is raised as a RuntimeError that names the task and chains its cause."""
    records = []
    for n, rep in tasks:
        try:
            records.append(next(results))
        except Exception as exc:
            raise RuntimeError(f"replication {rep} failed for n={n}: {exc}") from exc
    return records


def run_mc(
    design: Design | str,
    n_list,
    reps: int,
    plan: MultiplierPlan | None = None,
    report_interval: tuple[float, float] | None = None,
    det_js=None,
    base_seed: int = 0,
    grid_points: int = 100,
    n_workers: int = 1,
) -> McReport:
    """Monte Carlo study of losses, coverage, widths, and selected dimensions.

    The replications run in ``n_workers`` forked processes (1: in this one), and
    the report is bit-identical for any count. Pinning BLAS to one thread
    (``OMP_NUM_THREADS=1``) gives the best throughput.
    """
    if isinstance(design, str):
        design = get_design(design)
    if reps < 1:
        raise ConfigurationError("need at least one replication")
    if n_workers < 1:
        raise ConfigurationError("need at least one worker")
    if base_seed < 0:
        raise ConfigurationError("base_seed must be a nonnegative integer")
    plan = plan or MultiplierPlan(n_draws=500, base_seed=0)
    interval = report_interval or design.report_interval
    if not (0.0 <= interval[0] < interval[1] <= 1.0):
        raise ConfigurationError("report interval must be an increasing pair inside [0, 1]")
    if grid_points < 1:
        raise ConfigurationError("need at least one report grid point")
    grid = np.linspace(interval[0], interval[1], grid_points).reshape(-1, 1)
    det_js = tuple(det_js) if det_js is not None else design.det_js
    n_list = [int(n) for n in (n_list if np.iterable(n_list) else [n_list])]
    if not n_list:
        raise ConfigurationError("need at least one sample size")
    if min(n_list) < MIN_N:
        raise ConfigurationError(f"samples below n={MIN_N} are not supported (got n={min(n_list)})")
    model = est.npiv_model(design.x_spec, design.ispec if design.mode == "npiv" else None)
    for j in det_js:
        try:
            bs.resolution_for_dimension(design.x_spec, j)
            fits_in_n = max(model.widths(j)) <= min(n_list)
        except InvalidDimensionError as exc:
            raise ConfigurationError(f"fixed dimension J={j} is not admissible: {exc}") from None
        if not fits_in_n:
            raise ConfigurationError(
                f"fixed dimension J={j} needs J and K(J) <= n (smallest n={min(n_list)})"
            )

    truth = {a: (design.truth.h if a == 0 else design.truth.dh)(grid[:, 0]) for a in design.targets}
    methods = ["data_driven", *[f"J={j}" for j in det_js]]
    report = McReport(rows=[], j_tilde={}, flags={}, diagnostics={}, design=design.name, reps=reps,
                      base_seed=base_seed)
    tasks = [(n, rep) for n in n_list for rep in range(reps)]
    records = _run_replications(
        lambda n, rep: _replication(design, n, rep, plan, grid, det_js, truth, base_seed), tasks, n_workers
    )
    for i, n in enumerate(n_list):
        # Transpose the records, in replication order, into the report's per-n arrays and rows.
        js, flags, diags, outcomes = zip(*records[i * reps : (i + 1) * reps])
        report.j_tilde[n], report.flags[n] = np.asarray(js), list(flags)
        diag = np.asarray([d for d in diags if d is not None], dtype=np.float64).reshape(-1, 4)
        report.diagnostics[n] = dict(zip(("sup_dev", "z_star", "theta_star", "a_hat"), diag.T))
        for a in design.targets:
            columns = {m: [np.asarray(c) for c in zip(*(o[a, m] for o in outcomes))] for m in methods}
            dd_width = columns["data_driven"][3]
            for method, (loss, cov95, cov90, width, reject) in columns.items():
                c95 = float(cov95.mean())
                ratios = None if method == "data_driven" else width / dd_width
                report.rows.append(
                    McRow(
                        design=design.name,
                        n=n,
                        target=a,
                        method=method,
                        reps=reps,
                        base_seed=base_seed,
                        mean_loss=float(loss.mean()),
                        median_loss=float(np.median(loss)),
                        coverage90=float(cov90.mean()),
                        coverage95=c95,
                        se_coverage95=float(math.sqrt(max(c95 * (1 - c95), 0.0) / reps)),
                        mean_width_ratio=None if ratios is None else float(ratios.mean()),
                        median_width_ratio=None if ratios is None else float(np.median(ratios)),
                        reject_rate=float(reject.mean()) if a == max(design.targets) > 0 else None,
                        mean_j=float(report.j_tilde[n].mean()),
                        se_loss=float(loss.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
                    )
                )
    return report


def coverage_for_a(report: McReport, n: int, a_value: float) -> float:
    """Coverage of the 95% band with A_hat replaced by a fixed constant."""
    d = report.diagnostics[n]
    return float(np.mean(d["sup_dev"] <= d["z_star"] + a_value * d["theta_star"]))


def a_sweep(
    design: Design | str,
    n: int,
    reps: int,
    a_values,
    plan: MultiplierPlan | None = None,
    base_seed: int = 0,
    grid_points: int = 100,
    n_workers: int = 1,
) -> dict[float, float]:
    """Coverage of the fixed-A 95% band across a grid of A values.

    Within one replication the band is nested in A, so the reported coverage
    is nondecreasing by construction. ``n_workers`` is the number of forked
    replication processes, as in ``run_mc``.
    """
    if isinstance(design, str):
        design = get_design(design)
    if 0 not in design.targets:
        raise ConfigurationError(f"a_sweep needs target 0 among the design's targets {design.targets}")
    report = run_mc(
        design, [n], reps, plan=plan, det_js=(), base_seed=base_seed,
        grid_points=grid_points, n_workers=n_workers,
    )
    return {float(a): coverage_for_a(report, n, float(a)) for a in a_values}
