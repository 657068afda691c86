import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from npivband import basis as bs
from npivband import bootstrap as bt
from npivband import estimator as est
from npivband import extensions as ext
from npivband.errors import ConfigurationError, DegenerateVarianceError, InvalidDimensionError

CUBIC = bs.BasisSpec(4, 0)
ISPEC = bs.InstrumentSpec(CUBIC, q=2)


def _npiv_backend(n=120, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    w = np.clip(x + 0.15 * rng.standard_normal(n), 0, 1)
    y = np.sin(3 * x) + 0.5 * rng.standard_normal(n)
    return est.SieveBackend(est.Sample(y, x, w), est.npiv_model(CUBIC, ISPEC))


def _field(n=120, seed=0, js=(4, 7), grid=None, deriv=0):
    backend = _npiv_backend(n, seed)
    return est.build_field(backend, grid if grid is not None else np.linspace(0, 1, 30), deriv, js)


def _dense_sup_t(field, plan, js=None, pairs=None):
    """Oracle: per-draw sup of the dense score rows S_J = influence * u times Omega."""
    scores = {j: field.influence[j] * field.fits[j].u_hat[None, :] for j in field.j_values}
    sigma = {j: np.sqrt((s**2).sum(axis=1)) for j, s in scores.items()}
    if pairs is None:
        rows = [scores[j] / sigma[j][:, None] for j in js]
    else:
        rows = []
        for j, j2 in pairs:
            diff = scores[j] - scores[j2]
            sd = np.sqrt((diff**2).sum(axis=1))
            valid = sd > est.VARIANCE_FLOOR * max(sigma[j].max(), sigma[j2].max())
            rows.append(diff[valid] / sd[valid, None])
    omega = np.column_stack([bt.draw_multipliers(plan, b, field.n) for b in range(plan.n_draws)])
    return np.abs(np.vstack(rows) @ omega).max(axis=0)


def _model_backends():
    """Backends of the npiv, additive, additive component-view and partially linear models."""
    rng = np.random.default_rng(21)
    n = 300
    x = rng.random((n, 2))
    w = np.clip(x + 0.1 * rng.standard_normal((n, 2)), 0, 1)
    y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2 + 0.4 * rng.standard_normal(n)
    sample = est.Sample(y, x, w)
    additive = est.SieveBackend(sample, ext.additive_model(ext.AdditiveSpec((CUBIC, CUBIC)), None))
    return {
        "npiv": est.SieveBackend(est.Sample(y, x[:, 0], w[:, 0]), est.npiv_model(CUBIC, ISPEC)),
        "additive": additive,
        "additive_component": additive.view(ext.component_model(additive.model, 1)),
        "partially_linear": est.SieveBackend(
            sample, ext.partially_linear_model(ext.PartiallyLinearSpec(CUBIC, (1,)), None)
        ),
    }


def _model_fields():
    """Fields of the npiv, additive component-view and partially linear selectors."""
    backends = _model_backends()
    grid = np.linspace(0, 1, 40).reshape(-1, 1)
    return {name: est.build_field(backends[name], grid, (0,), (4, 5, 7))
            for name in ("npiv", "additive_component", "partially_linear")}


class TestFactoredScores:
    @pytest.mark.parametrize("model", ["npiv", "additive_component", "partially_linear"])
    def test_sup_t_matches_dense_oracle(self, model):
        field = _model_fields()[model]
        plan = bt.MultiplierPlan(n_draws=130, base_seed=17)
        pairs = [(4, 5), (4, 7), (5, 7)]
        single = bt.sup_t_single(field, plan, (4, 5, 7))
        assert len(field.sup_t_memo) == 1
        _, contrast = bt.sup_t_contrast(field, plan, pairs)
        np.testing.assert_allclose(single, _dense_sup_t(field, plan, js=(4, 5, 7)), rtol=1e-12)
        np.testing.assert_allclose(contrast, _dense_sup_t(field, plan, pairs=pairs), rtol=1e-12)

    def test_field_stores_no_grid_by_n_array(self):
        # 10,000 grid points at n=2000: one G x n array alone takes G * n * 8 bytes.
        rng = np.random.default_rng(22)
        n, g = 2000, 10_000
        x = rng.random(n)
        w = np.clip(x + 0.15 * rng.standard_normal(n), 0, 1)
        backend = est.SieveBackend(est.Sample(np.sin(3 * x) + rng.standard_normal(n), x, w),
                                   est.npiv_model(CUBIC, ISPEC))
        js = (4, 5, 7, 11)
        for j in js:
            backend.fit(j)
        plan = bt.MultiplierPlan(n_draws=50, base_seed=18)
        tracemalloc.start()
        try:
            field = est.build_field(backend, np.linspace(0, 1, g).reshape(-1, 1), (0,), js)
            bt.sup_t_single(field, plan)
            bt.sup_t_contrast(field, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g * n * 8 / 10

    def test_contrast_sweep_bounded(self):
        # J=67 against J=131 on 20,000 grid points at n=2000: the per-J draws are
        # taken in bounded chunks of grid rows, never as one G x (p + p2) array of
        # contrast rows (20,000 * 198 * 8 bytes).
        rng = np.random.default_rng(3)
        n = 2000
        x = rng.random(n)
        backend = est.SieveBackend(est.Sample(np.sin(3 * x) + 0.5 * rng.standard_normal(n), x, x),
                                   est.npiv_model(CUBIC, None))
        field = est.build_field(backend, np.linspace(0, 1, 20_000), 0, (67, 131))
        plan = bt.MultiplierPlan(n_draws=150, base_seed=23)
        _, first = bt.sup_t_contrast(field, plan)
        tracemalloc.start()
        try:
            _, again = bt.sup_t_contrast(field, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000 * 198 * 8 / 2
        np.testing.assert_array_equal(again, first)


class TestDrawMultipliers:
    def test_deterministic_per_stream(self):
        plan = bt.MultiplierPlan(n_draws=10, base_seed=99)
        a = bt.draw_multipliers(plan, 3, 1000)
        b = bt.draw_multipliers(plan, 3, 1000)
        np.testing.assert_array_equal(a, b)

    def test_pooled_variance(self):
        plan = bt.MultiplierPlan(n_draws=10, base_seed=1)
        pooled = np.concatenate([bt.draw_multipliers(plan, b, 10_000) for b in range(10)])
        assert pooled.size == 100_000
        assert 0.99 < pooled.var() < 1.01
        assert abs(pooled.mean()) < 0.02

    def test_stream_independence(self):
        plan = bt.MultiplierPlan(n_draws=4, base_seed=2)
        u = bt.draw_multipliers(plan, 0, 100_000)
        v = bt.draw_multipliers(plan, 1, 100_000)
        assert abs(np.corrcoef(u, v)[0, 1]) < 0.02

    def test_draw_index_bounds(self):
        plan = bt.MultiplierPlan(n_draws=5, base_seed=0)
        with pytest.raises(ConfigurationError):
            bt.draw_multipliers(plan, 5, 10)

    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            bt.MultiplierPlan(n_draws=0)
        with pytest.raises(ConfigurationError):
            bt.MultiplierPlan(base_seed=-1)


class TestSupTSingle:
    def test_pointwise_quantile_is_normal(self):
        # singleton grid, singleton J: the per-draw statistic is exactly |N(0,1)|,
        # so the two-sided 95% critical value is 1.96 and the 97.5% point of the
        # absolute value is 2.2414
        field = _field(n=60, js=(4,), grid=np.array([0.5]))
        plan = bt.MultiplierPlan(n_draws=100_000, base_seed=3)
        sups = bt.sup_t_single(field, plan, (4,))
        assert bt.quantile(sups, 0.95) == pytest.approx(1.96, abs=0.02)
        assert bt.quantile(sups, 0.975) == pytest.approx(2.2414, abs=0.02)

    def test_exact_conditional_normality_ks(self):
        # signed t-values at a fixed (x, J) are exactly standard normal
        field = _field(n=60, js=(4,), grid=np.array([0.4]))
        plan = bt.MultiplierPlan(n_draws=100_000, base_seed=4)
        row = field.scores[4][0] / field.sigma[4][0]
        t_vals = bt.multiplier_matrix(plan, field.n) @ row
        assert kstest(t_vals, "norm").statistic < 0.01

    def test_zero_residuals_error_propagates(self):
        rng = np.random.default_rng(5)
        x = rng.random(100)
        sample = est.Sample(2 + 3 * x, x, x)
        backend = est.SieveBackend(sample, est.npiv_model(CUBIC, None))
        # Seed the backend's fit cache with a fit whose residuals are all zero.
        backend._fits[4] = replace(backend.fit(4), u_hat=np.zeros(sample.n), s_hat=1.0)
        with pytest.raises(DegenerateVarianceError):
            est.build_field(backend, np.linspace(0, 1, 10), 0, (4,))

    def test_sup_monotone_in_index_set(self):
        field = _field(js=(4, 7))
        plan = bt.MultiplierPlan(n_draws=200, base_seed=6)
        small = bt.sup_t_single(field, plan, (4,))
        big = bt.sup_t_single(field, plan, (4, 7))
        assert (big >= small - 1e-12).all()

    def test_empty_j_set_rejected(self):
        field = _field()
        with pytest.raises(ConfigurationError):
            bt.sup_t_single(field, bt.MultiplierPlan(10, 0), ())

    def test_scale_invariance_by_two(self):
        rng = np.random.default_rng(8)
        x = rng.random(150)
        w = np.clip(x + 0.1 * rng.standard_normal(150), 0, 1)
        y = np.sin(3 * x) + 0.4 * rng.standard_normal(150)
        grid = np.linspace(0, 1, 25)
        plan = bt.MultiplierPlan(n_draws=150, base_seed=9)
        model = est.npiv_model(CUBIC, ISPEC)
        f1 = est.build_field(est.SieveBackend(est.Sample(y, x, w), model), grid, 0, (4, 7))
        f2 = est.build_field(est.SieveBackend(est.Sample(2 * y, x, w), model), grid, 0, (4, 7))
        np.testing.assert_array_equal(
            bt.sup_t_single(f1, plan, (4, 7)), bt.sup_t_single(f2, plan, (4, 7))
        )
        np.testing.assert_array_equal(
            bt.sup_t_contrast(f1, plan, [(4, 7)])[1], bt.sup_t_contrast(f2, plan, [(4, 7)])[1]
        )


class TestSupTContrast:
    def test_self_pair_illegal(self):
        field = _field()
        with pytest.raises(InvalidDimensionError):
            bt.sup_t_contrast(field, bt.MultiplierPlan(10, 0), [(4, 4)])
        with pytest.raises(InvalidDimensionError):
            bt.sup_t_contrast(field, bt.MultiplierPlan(10, 0), [(7, 4)])

    def test_empty_pair_set_signals(self):
        field = _field(js=(4,))
        with pytest.raises(ConfigurationError):
            bt.sup_t_contrast(field, bt.MultiplierPlan(10, 0), [])

    def test_aliased_fits_degenerate_sd_handled(self):
        # J2 aliasing J: identical influence rows and residuals contrast to exactly
        # zero, also with 19- and 67-column blocks, where BLAS tiles do not line up
        wide = _field(n=2000, js=(19, 67))
        for field, j, j2 in ((_field(js=(4, 7)), 4, 5), (wide, 19, 35), (wide, 67, 131)):
            fit = field.fits[j]
            alias = est.VarianceField(
                grid=field.grid,
                deriv=(0,),
                j_values=(j, j2),
                rows={j: field.rows[j], j2: field.rows[j].copy()},
                fits={j: fit, j2: replace(fit, m=fit.m.copy(), u_hat=fit.u_hat.copy())},
                slices={j: field.slices[j], j2: field.slices[j]},
            )
            stats, sups = bt.sup_t_contrast(alias, bt.MultiplierPlan(50, 1), [(j, j2)])
            np.testing.assert_array_equal(sups, np.zeros(50))
            np.testing.assert_array_equal(alias.contrast_sd(j, j2), np.zeros(field.grid.shape[0]))
            assert stats == {(j, j2): 0.0}

    def test_unknown_j_rejected(self):
        field = _field(js=(4, 7))
        with pytest.raises(InvalidDimensionError):
            bt.sup_t_contrast(field, bt.MultiplierPlan(10, 0), [(4, 11)])

    def test_quantile_monotone_across_levels(self):
        field = _field(js=(4, 7))
        _, sups = bt.sup_t_contrast(field, bt.MultiplierPlan(400, 2), [(4, 7)])
        assert bt.quantile(sups, 0.90) <= bt.quantile(sups, 0.95)


class TestMultiplierReuse:
    def test_one_replication_draws_each_multiplier_once(self, monkeypatch):
        from npivband import simgen as sg

        calls = []
        original = bt.draw_multipliers
        monkeypatch.setattr(bt, "draw_multipliers", lambda plan, b, n: calls.append(b) or original(plan, b, n))
        plan = bt.MultiplierPlan(60, 0)
        sg.run_mc("trade_pareto", [300], 1, plan=plan, det_js=(5, 7))
        assert sorted(calls) == list(range(plan.n_draws))

    @pytest.mark.parametrize("kind", ["fit_npiv", "fit_reg2d", "fit_additive", "fit_plm", "rebands"])
    def test_one_cli_run_draws_each_multiplier_once(self, kind, monkeypatch, tmp_path):
        from test_golden import _argv

        from npivband.cli import EXIT_OK, main

        calls = []
        original = bt.draw_multipliers
        monkeypatch.setattr(bt, "draw_multipliers", lambda plan, b, n: calls.append(b) or original(plan, b, n))
        assert main(_argv(kind, str(tmp_path))) == EXIT_OK
        assert sorted(calls) == list(range(99))

    def test_streamed_contrast_matches_stacked_reference(self):
        # A 100-point grid and n=1000, as in the Monte Carlo designs. The
        # factored statistic sums in another order than the stacked dense
        # score rows, so the two agree to rounding; the factored one repeats
        # bit for bit.
        field = _field(js=(4, 5, 7), n=1000, grid=np.linspace(0, 1, 100))
        plan = bt.MultiplierPlan(n_draws=150, base_seed=13)
        pairs = [(4, 5), (4, 7), (5, 7)]
        _, base = bt.sup_t_contrast(field, plan, pairs)
        np.testing.assert_allclose(base, _dense_sup_t(field, plan, pairs=pairs), rtol=1e-12)
        np.testing.assert_array_equal(bt.sup_t_contrast(field, plan, pairs)[1], base)

    def test_cache_leaves_plan_identity_alone(self):
        plan = bt.MultiplierPlan(n_draws=20, base_seed=4)
        twin = bt.MultiplierPlan(n_draws=20, base_seed=4)
        before = (repr(plan), hash(plan))
        omega = bt.multiplier_matrix(plan, 30)
        assert omega.shape == (20, 30)
        assert (repr(plan), hash(plan)) == before
        assert plan == twin and hash(plan) == hash(twin)
        np.testing.assert_array_equal(omega[3], bt.draw_multipliers(plan, 3, 30))

    def test_mutating_band_draws_leaves_later_bands_alone(self):
        from npivband import adaptive as ad
        from npivband import ucb

        rng = np.random.default_rng(14)
        x = rng.random(300)
        y = np.sin(3 * x) + 0.4 * rng.standard_normal(300)
        selection = ad.select(est.Sample(y, x, x), CUBIC, None, mode="regression",
                              plan=bt.MultiplierPlan(100, 15), grid=np.linspace(0, 1, 30))
        plan = bt.MultiplierPlan(100, 16)
        first = ucb.band_h(selection, plan=plan, alpha=0.05)
        first.z_draws[:] = 0.0
        again = ucb.band_h(selection, plan=plan, alpha=0.05)
        assert again.z_star == first.z_star > 0.0


class TestSharedProjections:
    """Every field of a backend reads each fit's weights W and projections W Omega' through its slice."""

    GRID = np.linspace(0, 1, 25)
    #: (derivative order, J set) of the selection-like a=0 field, the a=1 field and a fixed-J field.
    FIELDS = ((0, (4, 5, 7)), (1, (5, 7)), (0, (7, 11)))

    def _fields(self, backend):
        return [est.build_field(backend, self.GRID, a, js) for a, js in self.FIELDS]

    def test_fields_of_one_backend_share_one_array_per_plan(self):
        fields = self._fields(_npiv_backend(n=300))
        plan, other = bt.MultiplierPlan(80, 30), bt.MultiplierPlan(80, 31)
        projs = [bt._projections(f, plan)[7] for f in fields]
        assert all(np.shares_memory(p, projs[0]) for p in projs)
        assert all(np.shares_memory(f.weights[7], fields[0].weights[7]) for f in fields)
        assert not np.shares_memory(fields[0].weights[7], fields[0].weights[5])
        again = bt._projections(fields[2], other)[7]
        assert not np.shares_memory(again, projs[0])
        assert not np.array_equal(again, projs[0])

    @pytest.mark.parametrize("earlier_plans", [1, 4])
    def test_shared_draws_equal_unshared(self, earlier_plans):
        # The shared fits already hold projections of other plans; those must not leak into this one.
        plan = bt.MultiplierPlan(150, 32)
        fields = self._fields(_npiv_backend(n=300))
        for k in range(earlier_plans):
            for field in fields:
                bt.sup_t_single(field, bt.MultiplierPlan(40, 100 + k))
        for shared, (a, js) in zip(fields, self.FIELDS):
            alone = est.build_field(_npiv_backend(n=300), self.GRID, a, js)
            pairs = list(zip(js, js[1:]))
            np.testing.assert_array_equal(bt.sup_t_single(shared, plan), bt.sup_t_single(alone, plan))
            np.testing.assert_array_equal(
                bt.sup_t_contrast(shared, plan, pairs)[1], bt.sup_t_contrast(alone, plan, pairs)[1]
            )

    def test_component_and_partially_linear_slices_get_their_own_projections(self):
        # A slice's projection is its block of rows of the whole fit's projection.
        backends = _model_backends()
        plan = bt.MultiplierPlan(60, 33)
        omega_t = bt.multiplier_matrix(plan, backends["additive"].n).T
        full = bt._projections(est.build_field(backends["additive"], np.column_stack([self.GRID] * 2), 0,
                                               (4, 5, 7)), plan)
        for name, sl_of in (("additive_component", lambda j: slice(1 + j, 1 + 2 * j)),
                            ("partially_linear", lambda j: slice(0, j))):
            backend = backends[name]
            proj = bt._projections(est.build_field(backend, self.GRID, 0, (4, 5, 7)), plan)
            for j in (4, 5, 7):
                fit = backend.fit(j)
                assert proj[j].shape == (j, plan.n_draws)
                assert np.shares_memory(proj[j], fit.projections[plan])
                np.testing.assert_array_equal(proj[j], ((fit.m * fit.u_hat) @ omega_t)[sl_of(j)])
        for j in (4, 5, 7):
            assert full[j].shape == (1 + 2 * j, plan.n_draws)
            fit = backends["additive"].fit(j)
            assert np.shares_memory(full[j], fit.projections[plan])
            np.testing.assert_array_equal(full[j], (fit.m * fit.u_hat) @ omega_t)

    def test_replaced_fit_gets_fresh_weights(self):
        backend = _npiv_backend(n=200)
        first = est.build_field(backend, self.GRID, 0, (4,))
        fit = backend.fit(4)
        backend._fits[4] = replace(fit, u_hat=2.0 * fit.u_hat)
        assert backend._fits[4].projections == {} and "weights" not in vars(backend._fits[4])
        second = est.build_field(backend, self.GRID, 0, (4,))
        assert second.weights[4] is not first.weights[4]
        np.testing.assert_array_equal(second.weights[4], fit.m * (2.0 * fit.u_hat))
        np.testing.assert_array_equal(second.sigma[4], 2.0 * first.sigma[4])

    def test_shared_arrays_are_read_only(self):
        built = _field(js=(4, 7))
        # A field constructed directly reads the same fits' weights and projections.
        direct = est.VarianceField(grid=built.grid, deriv=(0,), j_values=(4,), rows=built.rows,
                                   fits=built.fits, slices=built.slices)
        assert np.shares_memory(direct.weights[4], built.weights[4])
        for field in (built, direct):
            plan = bt.MultiplierPlan(20, 34)
            for arr in (field.weights[4], bt._projections(field, plan)[4]):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0] = 1.0


class TestQuantile:
    def test_order_statistic_convention(self):
        assert bt.quantile([1, 2, 3, 4], 0.5) == 2.0

    def test_levels_near_one_hit_top_order_statistics(self):
        draws = [1.0, 2.0, 3.0, 4.0]
        assert bt.quantile(draws, 0.80) == 4.0  # ceil(3.2) = 4
        assert bt.quantile(draws, 0.9999) == 4.0

    def test_normal_quantile_mc(self):
        rng = np.random.default_rng(10)
        draws = np.abs(rng.standard_normal(100_000))
        assert bt.quantile(draws, 0.95) == pytest.approx(1.96, abs=0.02)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bt.quantile([1.0], 1.0)
        with pytest.raises(ConfigurationError):
            bt.quantile([], 0.5)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(11)
        draws = rng.random(501)
        qs = [bt.quantile(draws, lv) for lv in (0.5, 0.75, 0.9, 0.95, 0.99)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
