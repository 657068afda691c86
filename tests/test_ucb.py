import math

import numpy as np
import pytest
from scipy.special import ndtr

from npivband import adaptive as ad
from npivband import basis as bs
from npivband import estimator as est
from npivband import ucb
from npivband.bootstrap import MultiplierPlan
from npivband.errors import InvalidDimensionError, InvalidSmoothnessError

CUBIC = bs.BasisSpec(4, 0)
ISPEC = bs.InstrumentSpec(CUBIC, q=2)
GRID = np.linspace(0.01, 0.99, 60)
PLAN = MultiplierPlan(n_draws=200, base_seed=17)


def _sample(n=500, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    v = rng.standard_normal(n)
    u = 0.75 * v + math.sqrt(1 - 0.75**2) * rng.standard_normal(n)
    d = rng.integers(0, 2, n)
    x = ndtr(d * (z + v) + (1 - d) * v)
    w = ndtr(z)
    y = np.sin(4 * x) * np.log(x) + u
    return est.Sample(y, x, w)


@pytest.fixture(scope="module")
def selection():
    return ad.select(_sample(), CUBIC, ISPEC, plan=PLAN, grid=GRID)


class TestBandH:
    def test_contains_center(self, selection):
        band = ucb.band_h(selection, plan=PLAN, alpha=0.05)
        assert (band.lower <= band.center).all()
        assert (band.center <= band.upper).all()
        assert (band.halfwidth > 0).all()

    def test_center_is_selected_fit(self, selection):
        band = ucb.band_h(selection, plan=PLAN, alpha=0.05)
        expected = est.evaluate(selection.backend.model, selection.backend.fit(selection.j_tilde), selection.grid)
        np.testing.assert_array_equal(band.center, expected)

    def test_width_ratio_constant_across_levels(self, selection):
        b95 = ucb.band_h(selection, plan=PLAN, alpha=0.05)
        b90 = ucb.band_h(selection, plan=PLAN, alpha=0.10)
        ratio = b95.halfwidth / b90.halfwidth
        expected = (b95.z_star + b95.a_hat * b95.theta_star) / (
            b90.z_star + b90.a_hat * b90.theta_star
        )
        np.testing.assert_allclose(ratio, expected, rtol=1e-12)

    def test_higher_level_weakly_wider(self, selection):
        b95 = ucb.band_h(selection, plan=PLAN, alpha=0.05)
        b90 = ucb.band_h(selection, plan=PLAN, alpha=0.10)
        assert (b95.halfwidth >= b90.halfwidth - 1e-15).all()

    def test_affine_equivariance(self, selection):
        sample = _sample()
        mapped = est.Sample(2.0 * sample.y + 1.0, sample.x, sample.w)
        sel2 = ad.select(mapped, CUBIC, ISPEC, plan=PLAN, grid=GRID)
        assert sel2.j_tilde == selection.j_tilde
        b1 = ucb.band_h(selection, plan=PLAN, alpha=0.05)
        b2 = ucb.band_h(sel2, plan=PLAN, alpha=0.05)
        scale = np.abs(b1.center).max() + 1
        assert np.abs(b2.center - (2.0 * b1.center + 1.0)).max() < 1e-10 * scale
        np.testing.assert_allclose(b2.halfwidth, 2.0 * b1.halfwidth, rtol=1e-10)


class TestBandDeriv:
    def test_a_zero_reduces_to_band_h(self, selection):
        bh = ucb.band_h(selection, plan=PLAN, alpha=0.05)
        bd = ucb.band_deriv(selection, plan=PLAN, alpha=0.05, a=0)
        np.testing.assert_array_equal(bh.center, bd.center)
        np.testing.assert_array_equal(bh.halfwidth, bd.halfwidth)
        assert bd.kind == "h_band"

    def test_center_is_derivative_of_h_center(self, selection):
        bd = ucb.band_deriv(selection, plan=PLAN, alpha=0.05, a=1)
        expected = est.evaluate(selection.backend.model, selection.backend.fit(selection.j_tilde), selection.grid, 1)
        np.testing.assert_array_equal(bd.center, expected)
        assert bd.kind == "deriv_band"

    def test_derivative_matches_finite_difference_of_center(self, selection):
        model, fit = selection.backend.model, selection.backend.fit(selection.j_tilde)
        x0, h = 0.4, 1e-5
        fd = (est.evaluate(model, fit, [x0 + h])[0] - est.evaluate(model, fit, [x0 - h])[0]) / (2 * h)
        assert fd == pytest.approx(est.evaluate(model, fit, [x0], 1)[0], abs=1e-5)


class TestRobustness:
    def test_superset_of_procedure_band(self, selection):
        base = ucb.band_h(selection, plan=PLAN, alpha=0.05)
        robust = ucb.band_robustness(selection, plan=PLAN, alpha=0.05)
        assert (robust.halfwidth >= base.halfwidth - 1e-12).all()
        assert robust.kind == "robustness"

    def test_large_p_lower_equals_procedure_band(self, selection):
        base = ucb.band_h(selection, plan=PLAN, alpha=0.05)
        robust = ucb.band_robustness(selection, plan=PLAN, alpha=0.05, p_lower=60.0)
        np.testing.assert_array_equal(robust.halfwidth, base.halfwidth)

    def test_theta_dominating_equals_procedure_band(self, selection):
        # wherever theta* dominates the bias allowance the bands coincide
        robust = ucb.band_robustness(selection, plan=PLAN, alpha=0.05)
        base = ucb.band_h(selection, plan=PLAN, alpha=0.05)
        sigma = base.halfwidth / (base.z_star + base.a_hat * base.theta_star)
        bias = selection.j_tilde ** (-robust.p_lower) / sigma
        dominated = selection.theta_star >= bias
        np.testing.assert_allclose(
            robust.halfwidth[dominated], base.halfwidth[dominated], rtol=1e-12
        )

    def test_default_p_lower(self):
        assert ucb.default_p_lower(1, 0) == pytest.approx(0.6)
        assert ucb.default_p_lower(1, 1) == pytest.approx(1.1)
        assert ucb.default_p_lower(4, 0) == pytest.approx(2.1)

    def test_invalid_smoothness(self, selection):
        with pytest.raises(InvalidSmoothnessError):
            ucb.band_robustness(selection, plan=PLAN, alpha=0.05, a=1, p_lower=0.5)


class TestUndersmoothed:
    def test_single_point_grid_normal_quantile(self):
        # one grid point: z* converges to the pointwise two-sided critical value
        sample = _sample(n=100, seed=3)
        field = est.build_field(est.SieveBackend(sample, est.npiv_model(CUBIC, ISPEC)), [0.5], 0, (4,))
        plan = MultiplierPlan(n_draws=100_000, base_seed=5)
        band = ucb.band_undersmoothed(field, 4, plan=plan, alpha=0.05)
        assert band.z_star == pytest.approx(1.96, abs=0.02)

    def test_contains_center_and_no_inflation(self, selection):
        j = selection.j_tilde
        field = est.build_field(selection.backend, GRID, 0, (j,))
        band = ucb.band_undersmoothed(field, j, plan=PLAN, alpha=0.05)
        assert band.kind == "undersmoothed"
        assert band.theta_star is None and band.a_hat is None
        backend = selection.backend
        np.testing.assert_array_equal(band.center, est.evaluate(backend.model, backend.fit(j), GRID))

    def test_fixed_j_supplied_by_user(self, selection):
        field = est.build_field(selection.backend, GRID, 0, (7,))
        band = ucb.band_undersmoothed(field, 7, plan=PLAN, alpha=0.05)
        assert band.j_used == 7
        with pytest.raises(InvalidDimensionError):
            ucb.band_undersmoothed(field, 11, plan=PLAN, alpha=0.05)


class TestExcludesConstant:
    def test_scalar_comparison(self):
        grid = np.linspace(0, 1, 5).reshape(-1, 1)
        base = dict(kind="h_band", level=0.95, deriv=(0,), j_used=4, z_star=2.0)
        sloped = ucb.BandResult(
            grid=grid, center=np.linspace(0, 10, 5), halfwidth=np.full(5, 1.0), **base
        )
        flat = ucb.BandResult(
            grid=grid, center=np.zeros(5), halfwidth=np.full(5, 1.0), **base
        )
        assert ucb.excludes_constant(sloped)  # max lower = 9 > min upper = 1
        assert not ucb.excludes_constant(flat)


class TestFixedABands:
    def test_a_fixed_replaces_a_hat(self, selection):
        b_hat = ucb.band_h(selection, plan=PLAN, alpha=0.05)
        b_zero = ucb.band_h(selection, plan=PLAN, alpha=0.05, a_fixed=0.0)
        b_one = ucb.band_h(selection, plan=PLAN, alpha=0.05, a_fixed=1.0)
        assert (b_zero.halfwidth <= b_hat.halfwidth).all()
        assert (b_one.halfwidth >= b_hat.halfwidth).all()
        np.testing.assert_allclose(
            b_one.halfwidth - b_zero.halfwidth,
            selection.theta_star * b_zero.halfwidth / b_zero.z_star,
            rtol=1e-10,
        )


class TestBandFields:
    def test_built_once_per_order(self, selection):
        field = selection.band_field(1)
        assert selection.band_field(1) is field
        assert selection.band_field((1,)) is field
        assert field.deriv == (1,)
        assert set(field.j_values) == {*selection.j_minus_set, selection.j_tilde}

    def test_order_zero_is_the_selection_field(self, selection):
        assert selection.band_field(0) is selection.varfield

    def test_component_view_builds_its_own_fields(self):
        from npivband import extensions as ext

        rng = np.random.default_rng(4)
        x = rng.random((300, 2))
        y = 1 + np.sin(3 * x[:, 0]) + x[:, 1] + 0.4 * rng.standard_normal(300)
        model = ext.additive_model(ext.AdditiveSpec((CUBIC, CUBIC)), None)
        sel = ad.run_selection(est.SieveBackend(est.Sample(y, x, x), model), PLAN, "regression",
                               ad.default_grid(2, 8))
        parent = sel.band_field(0)
        view = ext.component_view(sel, 0, np.linspace(0, 1, 20))
        assert view.band_fields == {}
        assert view.band_field(0) is not parent
        assert view.band_field(0).grid.shape == (20, 1)
        assert sel.band_fields == {(0, 0): parent}

    @pytest.mark.parametrize("kind, builds", [("fit_npiv", 2), ("fit_reg2d", 1), ("fit_additive", 3),
                                              ("fit_plm", 1), ("rebands", 2)])
    def test_cli_run_builds_each_field_once(self, kind, builds, monkeypatch, tmp_path):
        from test_golden import _argv

        from npivband.cli import EXIT_OK, main

        calls = []
        original = est.build_field
        monkeypatch.setattr(est, "build_field", lambda *args: calls.append(args[2]) or original(*args))
        assert main(_argv(kind, str(tmp_path))) == EXIT_OK
        assert len(calls) == builds

    @pytest.mark.parametrize("design, builds", [("trade_lognormal", 2), ("reg_wiggly", 1)])
    def test_replication_builds_each_field_once(self, design, builds, monkeypatch):
        from npivband import simgen as sg

        calls = []
        original = est.build_field
        monkeypatch.setattr(est, "build_field", lambda *args: calls.append(args[2]) or original(*args))
        sg.run_mc(design, [1000], 2, plan=MultiplierPlan(60, 0), base_seed=11)
        assert len(calls) == 2 * builds
