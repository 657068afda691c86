"""Acceptance suite: six criteria at their pinned tolerances.

Criteria 1-5 are desk-scale Monte Carlo studies (200 replications, 500
bootstrap draws) of the shipped designs, each run in two worker processes;
criterion 6 is a fast deterministic property battery. Each criterion prints
one PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they complete.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kstest

from npivband import adaptive as ad
from npivband import basis as bs
from npivband import bootstrap as bt
from npivband import estimator as est
from npivband import simgen as sg
from npivband.bootstrap import MultiplierPlan

REPS = 200
DRAWS = 500
SEED = 20240811
#: Forked replication processes of criteria 1-5; the reports are bit-identical for any count.
WORKERS = 2


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def npiv_run():
    return sg.run_mc(
        "npiv_sine_log", [1250], REPS, plan=MultiplierPlan(DRAWS, 0),
        report_interval=(0.01, 0.99), det_js=(), base_seed=SEED, n_workers=WORKERS,
    )


def test_criterion_1_npiv_loss_and_coverage(npiv_run):
    row = npiv_run.row(1250, "data_driven", 0)
    ok = (0.45 <= row.mean_loss <= 0.65) and row.coverage95 >= 0.97
    _report(
        "1 (NPIV design, n=1250)",
        ok,
        f"mean sup-norm loss {row.mean_loss:.3f} in [0.45, 0.65]; "
        f"95% coverage {row.coverage95:.3f} >= 0.97",
    )
    assert 0.45 <= row.mean_loss <= 0.65
    assert row.coverage95 >= 0.95
    assert row.coverage95 >= 0.97  # conservative bands sit near 1 at this n


def test_criterion_2_regression_loss_modal_j():
    report = sg.run_mc(
        "reg_wiggly", [2500], REPS, plan=MultiplierPlan(DRAWS, 0), det_js=(), base_seed=SEED, n_workers=WORKERS,
    )
    row = report.row(2500, "data_driven", 0)
    j_vals, counts = np.unique(report.j_tilde[2500], return_counts=True)
    modal_j = int(j_vals[counts.argmax()])
    ok = (0.40 <= row.mean_loss <= 0.60) and modal_j == 35 and row.coverage95 >= 0.98
    _report(
        "2 (regression design, n=2500)",
        ok,
        f"mean sup-norm loss {row.mean_loss:.3f} in [0.40, 0.60]; modal J~ = {modal_j}; "
        f"95% coverage {row.coverage95:.3f} >= 0.98",
    )
    assert 0.40 <= row.mean_loss <= 0.60
    assert modal_j == 35
    assert row.coverage95 >= 0.98


def test_criterion_3_a_sweep(npiv_run):
    a_values = (0.0, 0.2, 0.5, 1.0)
    coverage = {a: sg.coverage_for_a(npiv_run, 1250, a) for a in a_values}
    ordered = [coverage[a] for a in a_values]
    # within one replication the fixed-A band is nested in A, so the empirical
    # sweep is nondecreasing by construction (0 binomial SEs of slack used)
    nondecreasing = all(a <= b for a, b in zip(ordered, ordered[1:]))
    top = coverage[1.0]
    ok = nondecreasing and abs(top - 1.0) <= 0.01
    _report(
        "3 (A-sweep, n=1250)",
        ok,
        "coverage " + ", ".join(f"A={a}: {coverage[a]:.3f}" for a in a_values) + "; A=1.0 within 0.01 of 1.00",
    )
    assert nondecreasing
    assert abs(top - 1.0) <= 0.01


def test_criterion_4_trade_lognormal():
    report = sg.run_mc(
        "trade_lognormal", [1522], REPS, plan=MultiplierPlan(DRAWS, 0),
        det_js=(7,), base_seed=SEED, n_workers=WORKERS,
    )
    mean_j = float(report.j_tilde[1522].mean())
    dd = report.row(1522, "data_driven", 1)
    fixed7 = report.row(1522, "J=7", 1)
    ok = (
        4.0 <= mean_j <= 4.6
        and dd.coverage95 >= 0.95
        and 1.4 <= fixed7.mean_width_ratio <= 2.1
        and dd.reject_rate >= 0.20
    )
    _report(
        "4 (log-normal trade design, n=1522)",
        ok,
        f"mean J~ {mean_j:.2f} in [4.0, 4.6]; elasticity 95% coverage {dd.coverage95:.3f} >= 0.95; "
        f"J=7 width ratio {fixed7.mean_width_ratio:.2f} in [1.4, 2.1]; "
        f"constant-elasticity rejection {dd.reject_rate:.2f} >= 0.20",
    )
    assert 4.0 <= mean_j <= 4.6
    assert dd.coverage95 >= 0.95
    assert 1.4 <= fixed7.mean_width_ratio <= 2.1
    assert dd.reject_rate >= 0.20


def test_criterion_5_trade_pareto():
    report = sg.run_mc(
        "trade_pareto", [1522], REPS, plan=MultiplierPlan(DRAWS, 0), det_js=(), base_seed=SEED,
        n_workers=WORKERS,
    )
    share = float((report.j_tilde[1522] == 4).mean())
    ok = share >= 0.80
    _report("5 (Pareto trade design, n=1522)", ok, f"J~=4 share {share:.2f} >= 0.80")
    assert share >= 0.80


def test_criterion_6_property_suite():
    checks: list[tuple[str, bool]] = []
    rng = np.random.default_rng(0)
    cubic = bs.BasisSpec(4, 0)
    ispec = bs.InstrumentSpec(cubic, q=2)

    # partition of unity < 1e-12
    pu_err = 0.0
    xs = rng.random(1000)
    for spec in (cubic, bs.BasisSpec(4, 3), bs.BasisSpec(2, 2), bs.BasisSpec(4, 1, dim=2)):
        pts = xs if spec.dim == 1 else rng.random((1000, 2))
        pu_err = max(pu_err, float(np.abs(bs.design_matrix(spec, pts).sum(axis=1) - 1).max()))
    checks.append((f"partition of unity {pu_err:.1e} < 1e-12", pu_err < 1e-12))

    # nestedness residual < 1e-9
    grid = np.linspace(0, 1, 2000)
    nest_err = 0.0
    for level in (0, 1, 2):
        coarse = bs.design_matrix(bs.BasisSpec(4, level), grid)
        fine = bs.design_matrix(bs.BasisSpec(4, level + 1), grid)
        coef, *_ = np.linalg.lstsq(fine, coarse, rcond=None)
        nest_err = max(nest_err, float(np.abs(fine @ coef - coarse).max()))
    checks.append((f"nestedness residual {nest_err:.1e} < 1e-9", nest_err < 1e-9))

    # OLS equivalence < 1e-10
    n = 250
    x = rng.random(n)
    w = np.clip(x + 0.15 * rng.standard_normal(n), 0, 1)
    y = np.sin(3 * x) + 0.5 * rng.standard_normal(n)
    sample = est.Sample(y, x, w)
    grams_reg = est.fit_grams(sample, est.npiv_model(cubic, None), 7)[1]
    left_reg, right_reg = grams_reg.solve(sample.y)[:2]
    psi = right_reg.dense()
    left, right = est.TslsGrams(est.WindowedRows.whole(psi), psi).solve(np.zeros(n))[:2]
    m_tsls = left @ right.dense().T
    ols_err = float(np.abs(m_tsls - left_reg @ psi.T).max())
    checks.append((f"OLS equivalence {ols_err:.1e} < 1e-10", ols_err < 1e-10))

    # polynomial reproduction < 1e-9
    y_poly = 1 - 2 * x + 0.5 * x**2 + x**3
    npiv = est.npiv_model(cubic, ispec)
    fit_poly = est.fit(est.Sample(y_poly, x, x), npiv, 7)
    gg = np.linspace(0, 1, 200)
    poly_err = float(np.abs(est.evaluate(npiv, fit_poly, gg) - (1 - 2 * gg + 0.5 * gg**2 + gg**3)).max())
    checks.append((f"polynomial reproduction {poly_err:.1e} < 1e-9", poly_err < 1e-9))

    # sigma~_{J,J} equals sigma^2_J exactly
    backend = est.SieveBackend(sample, est.npiv_model(cubic, ispec))
    vf = est.build_field(backend, np.linspace(0, 1, 50), 0, (4, 7))
    exact_cross = bool(np.array_equal(vf.sigma[4], np.sqrt(vf.cross(4, 4))))
    checks.append(("self cross term equals sigma^2 exactly", exact_cross))

    # exact conditional normality: KS < 0.01 at B=1e5
    plan_big = MultiplierPlan(100_000, 3)
    row = vf.fits[4].score_rows(vf.rows[4][:1])[0] / vf.sigma[4][0]
    t_vals = bt.multiplier_matrix(plan_big, n, backend.order) @ row
    ks = float(kstest(t_vals, "norm").statistic)
    checks.append((f"conditional normality KS {ks:.4f} < 0.01", ks < 0.01))

    # scale/shift invariance of J~ and t-statistics under a fixed seed
    def _design_sample(seed):
        r = np.random.default_rng(seed)
        z = r.standard_normal(400)
        v = r.standard_normal(400)
        u = 0.75 * v + math.sqrt(1 - 0.75**2) * r.standard_normal(400)
        d = r.integers(0, 2, 400)
        return est.Sample(
            np.sin(4 * ndtr(d * (z + v) + (1 - d) * v)) * np.log(ndtr(d * (z + v) + (1 - d) * v)) + u,
            ndtr(d * (z + v) + (1 - d) * v),
            ndtr(z),
        )

    base_sample = _design_sample(11)
    plan = MultiplierPlan(150, 7)
    sel_grid = np.linspace(0.01, 0.99, 50)
    sel = ad.select(base_sample, cubic, ispec, plan=plan, grid=sel_grid)
    sel_scaled = ad.select(
        est.Sample(2 * base_sample.y, base_sample.x, base_sample.w), cubic, ispec,
        plan=plan, grid=sel_grid,
    )
    sel_shifted = ad.select(
        est.Sample(base_sample.y + 3.0, base_sample.x, base_sample.w), cubic, ispec,
        plan=plan, grid=sel_grid,
    )
    tstat = sel.contrast_stats[sel.index_set[:2]]
    tstat_scaled = sel_scaled.contrast_stats[sel_scaled.index_set[:2]]
    inv_ok = (
        sel.j_tilde == sel_scaled.j_tilde == sel_shifted.j_tilde
        and tstat_scaled == pytest.approx(tstat, rel=1e-12)
        and sel_scaled.theta_star == sel.theta_star
    )
    checks.append(("scale/shift invariance of J~ and t-statistics", bool(inv_ok)))

    # worker-count bit-invariance of the Monte Carlo quantiles (z*, theta*), J~, flags and rows
    serial, *pooled = (
        sg.run_mc("trade_pareto", [300], 2, plan=MultiplierPlan(99, 9), det_js=(5,), base_seed=SEED, n_workers=w)
        for w in (1, 2, 4)
    )
    worker_ok = all(
        np.array_equal(r.j_tilde[300], serial.j_tilde[300]) and r.flags == serial.flags
        and all(np.array_equal(r.diagnostics[300][k], v) for k, v in serial.diagnostics[300].items())
        and [vars(row) for row in r.rows] == [vars(row) for row in serial.rows]
        for r in pooled
    )
    checks.append(("worker-count bit-invariance of quantiles", worker_ok))

    # derivative vs central finite difference: halving-step error ratio in [3.5, 4.5]
    spec = bs.BasisSpec(4, 2)
    x0, errs = 0.33, []
    for h in (1e-3, 5e-4):
        fd = (bs.design_matrix(spec, x0 + h)[0] - bs.design_matrix(spec, x0 - h)[0]) / (2 * h)
        errs.append(float(np.abs(fd - bs.design_matrix(spec, x0, 1)[0]).max()))
    ratio = errs[0] / errs[1]
    checks.append((f"derivative FD ratio {ratio:.2f} in [3.5, 4.5]", 3.5 < ratio < 4.5))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(name for name, flag in checks if not flag) or "all sub-checks hold"
    _report("6 (property suite)", ok, detail)
    for name, flag in checks:
        assert flag, name
