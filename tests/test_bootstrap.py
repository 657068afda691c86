import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from npivband import basis as bs
from npivband import bootstrap as bt
from npivband import estimator as est
from npivband import extensions as ext
from npivband import _linalg
from npivband.errors import ConfigurationError, DegenerateVarianceError, InvalidDimensionError

CUBIC = bs.BasisSpec(4, 0)
ISPEC = bs.InstrumentSpec(CUBIC, q=2)


def _oracle_rows(plan, n, draws):
    """Oracle: draw b's multipliers from NumPy's own generator for ``SeedSequence((base_seed, b))``, one row per b."""
    return np.array([np.random.default_rng(np.random.SeedSequence((plan.base_seed, b))).standard_normal(n)
                     for b in draws]).reshape(len(draws), n)


def _npiv_sample(n=120, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    w = np.clip(x + 0.15 * rng.standard_normal(n), 0, 1)
    y = np.sin(3 * x) + 0.5 * rng.standard_normal(n)
    return est.Sample(y, x, w)


def _npiv_backend(n=120, seed=0):
    return est.SieveBackend(_npiv_sample(n, seed), est.npiv_model(CUBIC, ISPEC))


def _field(n=120, seed=0, js=(4, 7), grid=None, deriv=0):
    backend = _npiv_backend(n, seed)
    return est.build_field(backend, grid if grid is not None else np.linspace(0, 1, 30), deriv, js)


def _dense_scores(field, sample):
    """Oracle: the dense score rows S_J = rows_J M_J[slice] diag(u_J) and their row norms sigma_J, per J.

    M_J is formed from the model's dense design Psi and instruments B at J,
    in the row order of ``sample``: pinv(Psi) for series regression, and
    pinv(P_B Psi) with P_B Psi = B lstsq(B, Psi) for TSLS. u_J = y - Psi M_J y.
    """
    model, scores = field.backend.model, {}
    for j in field.j_values:
        basis, design, bmat = model.design(sample, j)
        design = design.dense()
        fitted = design if bmat is None else bmat @ np.linalg.lstsq(bmat, design, rcond=None)[0]
        m = np.linalg.pinv(fitted)
        rows, sl = model.selector(basis, field.grid, field.deriv)
        scores[j] = (rows @ m[sl]) * (sample.y - design @ (m @ sample.y))[None, :]
    return scores, {j: np.sqrt((s**2).sum(axis=1)) for j, s in scores.items()}


def _dense_sup_t(field, sample, plan, js=None, pairs=None):
    """Oracle: per-draw sup of the dense score rows times Omega, both in the row order of ``sample``."""
    scores, sigma = _dense_scores(field, sample)
    if pairs is None:
        rows = [scores[j] / sigma[j][:, None] for j in js]
    else:
        rows = []
        for j, j2 in pairs:
            diff = scores[j] - scores[j2]
            sd = np.sqrt((diff**2).sum(axis=1))
            valid = sd > est.VARIANCE_FLOOR * max(sigma[j].max(), sigma[j2].max())
            rows.append(diff[valid] / sd[valid, None])
    omega = _oracle_rows(plan, field.n, range(plan.n_draws)).T
    return np.abs(np.vstack(rows) @ omega).max(axis=0)


def _model_samples():
    """The sample and model of the npiv, 1-D and 2-D regression, additive and partially linear backends.

    The 1-D regression sample lists its observations in a shuffled order,
    which its backend fits ordered by x.
    """
    rng = np.random.default_rng(21)
    n = 300
    x = rng.random((n, 2))
    w = np.clip(x + 0.1 * rng.standard_normal((n, 2)), 0, 1)
    y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2 + 0.4 * rng.standard_normal(n)
    sample = est.Sample(y, x, w)
    shuffled = rng.permutation(n)
    return {
        "npiv": (est.Sample(y, x[:, 0], w[:, 0]), est.npiv_model(CUBIC, ISPEC)),
        "regression_shuffled": (est.Sample(y[shuffled], x[shuffled, 0], x[shuffled, 0]), est.npiv_model(CUBIC, None)),
        "reg2d": (sample, est.npiv_model(bs.BasisSpec(4, 0, dim=2), None)),
        "additive": (sample, ext.additive_model(ext.AdditiveSpec((CUBIC, CUBIC)), None)),
        "partially_linear": (sample, ext.partially_linear_model(ext.PartiallyLinearSpec(CUBIC, (1,)), None)),
    }


def _model_backends():
    """Backends of the models of ``_model_samples``, and the view of additive component 1."""
    backends = {name: est.SieveBackend(*pair) for name, pair in _model_samples().items()}
    additive = backends["additive"]
    backends["additive_component"] = additive.view(ext.component_model(additive.model, 1))
    return backends


def _model_field(model):
    """The field of one selector, and its sample: on 40 points of a line, or for the 2-D models on a 20 x 20 grid."""
    if model in ("reg2d", "additive"):
        axis = np.linspace(0, 1, 20)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    else:
        grid = np.linspace(0, 1, 40).reshape(-1, 1)
    js = (16, 25, 49) if model == "reg2d" else (4, 5, 7)
    sample = _model_samples()["additive" if model == "additive_component" else model][0]
    return est.build_field(_model_backends()[model], grid, 0, js), sample


def _chunked_projection(fit, omega):
    """The projection's formula: sum_c R_c' Omega_c' over the windowed blocks R_c of the fit's right factor R o u_hat.

    Each fixed 64-draw slice of Omega is its own product, as ``_projections`` forms it.
    """
    proj = np.zeros((fit.right.width, omega.shape[0]))
    for cols in bt._slices(omega.shape[0]):
        for run, window, block in fit.right:
            proj[window, cols] += block.T @ omega[cols, run].T
    return proj


def _solved(backend, j):
    """``(left, R)`` of the backend's fit at J as ``TslsGrams.solve`` returns them, R not weighted by u_hat."""
    return est.fit_grams(backend.sample, backend.model, j)[1].solve(backend.sample.y)[:2]


def _with_residuals(backend, j, u):
    """The backend's fit at J with residuals ``u``: its right factor is the solved R weighted by u."""
    return replace(backend.fit(j), u_hat=u, right=_solved(backend, j)[1].weight(u))


class TestFactoredScores:
    @pytest.mark.parametrize("model", ["npiv", "regression_shuffled", "reg2d", "additive", "additive_component",
                                       "partially_linear"])
    def test_sup_t_matches_dense_oracle(self, model):
        field, sample = _model_field(model)
        js = field.j_values
        plan = bt.MultiplierPlan(n_draws=130, base_seed=17)
        pairs = [(j, j2) for i, j in enumerate(js) for j2 in js[i + 1:]]
        single = bt.sup_t_single(field, plan, js)
        assert sorted(field.single_sups) == [(plan, j) for j in js]
        _, contrast = bt.sup_t_contrast(field, plan, pairs)
        _, sigma = _dense_scores(field, sample)
        for j in js:
            np.testing.assert_allclose(field.sigma[j], sigma[j], rtol=1e-12)
        np.testing.assert_allclose(single, _dense_sup_t(field, sample, plan, js=js), rtol=1e-12)
        np.testing.assert_allclose(contrast, _dense_sup_t(field, sample, plan, pairs=pairs), rtol=1e-12)

    @pytest.mark.parametrize("model", ["npiv", "additive_component"])
    @pytest.mark.parametrize("points", [30, 600])
    def test_grid_quantities_do_not_depend_on_the_other_j(self, model, points):
        # One backend's fields over (4, 5, 7) and (5, 7, 11) share the fits of 5 and 7;
        # 600 points span several chunks of grid rows.
        backend = _model_backends()[model]
        grid = np.linspace(0, 1, points)
        small, large = (est.build_field(backend, grid, 0, js) for js in ((4, 5, 7), (5, 7, 11)))
        plan = bt.MultiplierPlan(n_draws=70, base_seed=19)
        np.testing.assert_array_equal(small.sigma[5], large.sigma[5])
        np.testing.assert_array_equal(small.cross(5, 7), large.cross(5, 7))
        np.testing.assert_array_equal(small.contrast_sd(5, 7), large.contrast_sd(5, 7))
        np.testing.assert_array_equal(bt.sup_t_single(small, plan, (5,)), bt.sup_t_single(large, plan, (5,)))

    @pytest.mark.parametrize("a", [0, 1])
    @pytest.mark.parametrize("model", ["npiv", "reg2d", "additive_component"])
    def test_grown_field_equals_fresh_field(self, model, a):
        # A field built over one J and grown twice holds the bits of a field built
        # over all three at once from fresh fits; the sup of J=js[0], formed before
        # the growth, stays valid. 300 points span two chunks of grid rows.
        grid = np.linspace(0, 1, 300)
        if model == "reg2d":
            grid, a, js = np.column_stack([grid, grid[::-1]]), (a, 0), (16, 25, 49)
        else:
            js = (4, 5, 7)
        plan = bt.MultiplierPlan(n_draws=70, base_seed=25)
        grown = est.build_field(_model_backends()[model], grid, a, js[:1])
        early = bt.sup_t_single(grown, plan, js[:1])
        assert grown.cover(js[1:2]).cover(js) is grown and grown.j_values == js
        fresh = est.build_field(_model_backends()[model], grid, a, js)
        for j in js:
            np.testing.assert_array_equal(grown.rows[j], fresh.rows[j])
            np.testing.assert_array_equal(grown.sigma[j], fresh.sigma[j])
            np.testing.assert_array_equal(bt.sup_t_single(grown, plan, (j,)), bt.sup_t_single(fresh, plan, (j,)))
        for j, j2 in [(js[0], js[1]), (js[0], js[2]), (js[1], js[2])]:
            np.testing.assert_array_equal(grown.cross(j, j2), fresh.cross(j, j2))
            np.testing.assert_array_equal(grown.contrast_sd(j, j2), fresh.contrast_sd(j, j2))
        np.testing.assert_array_equal(early, bt.sup_t_single(fresh, plan, js[:1]))

    @pytest.mark.parametrize("model", ["npiv", "reg2d", "additive", "additive_component", "partially_linear"])
    def test_cover_asks_the_selector_one_chunk_at_a_time(self, model):
        # 600 points, three chunks of grid rows: each selector call sees at most GRID_ROWS points,
        # and the rows and estimate hold the bits of the whole grid's selector rows taken a chunk at a time.
        backend = _model_backends()[model]
        line = np.linspace(0, 1, 600)
        grid = np.column_stack([line, line[::-1]]) if model in ("reg2d", "additive") else line.reshape(-1, 1)
        j = 16 if model == "reg2d" else 7
        seen, selector = [], backend.model.selector
        view = backend.view(replace(backend.model, selector=lambda b, pts, a: seen.append(len(pts)) or selector(b, pts, a)))
        field = est.build_field(view, grid, 0, (j,))
        assert seen == [256, 256, 88]
        fit = field.fits[j]
        rows, sl = selector(fit.basis, grid, (0,) * grid.shape[1])
        for chunk in est.grid_chunks(600):
            np.testing.assert_array_equal(field.rows[j][chunk], rows[chunk] @ fit.left[sl])
        np.testing.assert_array_equal(field.estimates[j], rows @ fit.coef[sl])

    def test_cover_that_raises_adds_nothing(self):
        # J=6 is no cubic dimension: cover((4, 6)) raises at J=6 and keeps no part of J=4,
        # so a contrast against J=4 raises as sup_t_single does, not with a KeyError.
        field = _field(js=(7,))
        plan = bt.MultiplierPlan(10, 0)
        with pytest.raises(InvalidDimensionError):
            field.cover((4, 6))
        assert field.j_values == (7,)
        assert list(field.rows) == list(field.fits) == list(field.estimates) == [7]
        assert sorted(field._cross) == [(7, 7)]
        with pytest.raises(InvalidDimensionError):
            bt.sup_t_contrast(field, plan, [(4, 7)])
        with pytest.raises(InvalidDimensionError):
            bt.sup_t_single(field, plan, (4, 7))
        assert field.cover((4,)).j_values == (4, 7)

    def test_set_sup_is_the_max_of_per_j_sups_each_formed_once(self, monkeypatch):
        field = _field(js=(4, 5, 7), grid=np.linspace(0, 1, 300))
        plan = bt.MultiplierPlan(n_draws=90, base_seed=26)
        # Each per-J vector takes one pass over the chunks of grid rows.
        passes, original = [], bt.grid_chunks
        monkeypatch.setattr(bt, "grid_chunks", lambda g: passes.append(g) or original(g))
        both = bt.sup_t_single(field, plan, (7, 4))
        assert len(passes) == 2 and sorted(field.single_sups) == [(plan, 4), (plan, 7)]
        held = dict(field.single_sups)
        per_j = {j: bt.sup_t_single(field, plan, (j,)) for j in (4, 5, 7)}
        assert len(passes) == 3
        np.testing.assert_array_equal(both, np.maximum(per_j[4], per_j[7]))
        np.testing.assert_array_equal(bt.sup_t_single(field, plan), np.maximum.reduce(list(per_j.values())))
        assert len(passes) == 3 and all(field.single_sups[key] is vec for key, vec in held.items())
        both[:] = 0.0
        np.testing.assert_array_equal(bt.sup_t_single(field, plan, (4, 7)), np.maximum(per_j[4], per_j[7]))

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

    @pytest.mark.parametrize("instruments", [None, ISPEC])
    def test_projections_hold_no_draws_by_n_array(self, instruments, monkeypatch):
        # B=500 draws at n=4000: the whole Omega would take 500 * 4000 * 8 = 16 MB. Beyond the
        # kept p x B projections, each of the two threads holds one 64-draw slice of it and one
        # product, under 1.5 slices each.
        monkeypatch.setattr(_linalg, "_map_threads", 2)
        rng = np.random.default_rng(6)
        n, plan = 4000, bt.MultiplierPlan(n_draws=500, base_seed=25)
        x = rng.random(n)
        w = np.clip(x + 0.15 * rng.standard_normal(n), 0, 1)
        backend = est.SieveBackend(est.Sample(np.sin(3 * x) + 0.5 * rng.standard_normal(n), x, w),
                                   est.npiv_model(CUBIC, instruments))
        field = est.build_field(backend, np.linspace(0, 1, 30), 0, (4, 7, 11))
        tracemalloc.start()
        try:
            projs = bt._projections(field, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(proj.nbytes for proj in projs.values())
        assert peak - kept < 3 * bt._BLOCK * n * 8

    @pytest.mark.parametrize("model", ["regression", "additive", "additive_component", "partially_linear_h1"])
    def test_cover_takes_rows_through_left_a_chunk_at_a_time(self, model):
        # 20,000 grid points at J=131 (regression), J=67 (the full two-column additive model, p = 133,
        # on a 2-D grid, and its component 1, a slice of 66 of the 133 coefficients) and J=131 (the
        # partially linear h1 block, a slice of 131 of 132). Above the rows, estimate, sigma and cross
        # term it stores, cover holds one chunk of selector rows and its product with the left factor
        # and O(G) values: never a G x p selector array.
        rng = np.random.default_rng(5)
        n, g = 2000, 20_000
        x = rng.random((n, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1] + 0.5 * rng.standard_normal(n)
        grid = np.linspace(0, 1, g).reshape(-1, 1)
        if model == "regression":
            backend, j = est.SieveBackend(est.Sample(y, x[:, 0], x[:, 0]), est.npiv_model(CUBIC, None)), 131
        elif model == "partially_linear_h1":
            plm = ext.partially_linear_model(ext.PartiallyLinearSpec(CUBIC, (1,)), None)
            backend, j = est.SieveBackend(est.Sample(y, x, x), plm), 131
        else:
            additive = est.SieveBackend(est.Sample(y, x, x), ext.additive_model(ext.AdditiveSpec((CUBIC, CUBIC)), None))
            backend, j = additive, 67
            if model == "additive":
                grid = np.column_stack([grid[:, 0], grid[::-1, 0]])
            else:
                backend = additive.view(ext.component_model(additive.model, 1))
        p = backend.fit(j).right.width
        field = est.VarianceField(backend, grid, (0,) * grid.shape[1])
        tracemalloc.start()
        try:
            field.cover((j,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = sum(a.nbytes for held in (field.rows, field.estimates, field.sigma, field._cross)
                     for a in held.values())
        assert field.rows[j].shape == (g, p)
        assert peak - stored <= (est.GRID_ROWS * p + 8 * g) * 8

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

    def test_cross_terms_and_single_sups_bounded(self):
        # J=67 and J=131 on 20,000 grid points at n=2000: the cross terms and the
        # single sups work through chunks of grid rows, never through a whole-grid
        # G x p product or a scaled copy of the G x p rows (20,000 * 131 * 8 bytes).
        # The projections are formed first: the B x n multipliers they draw are no grid quantity.
        rng = np.random.default_rng(4)
        n, g = 2000, 20_000
        x = rng.random(n)
        backend = est.SieveBackend(est.Sample(np.sin(3 * x) + 0.5 * rng.standard_normal(n), x, x),
                                   est.npiv_model(CUBIC, None))
        field = est.build_field(backend, np.linspace(0, 1, g), 0, (67, 131))
        plan = bt.MultiplierPlan(n_draws=150, base_seed=24)
        bt._projections(field, plan)
        tracemalloc.start()
        try:
            field.contrast_scales([(67, 131)])
            bt.sup_t_single(field, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g * 131 * 8 / 4


class TestDrawMultipliers:
    def test_deterministic_per_stream(self):
        plan = bt.MultiplierPlan(n_draws=10, base_seed=99)
        a = bt.multiplier_matrix(plan, 1000)[3]
        b = bt.multiplier_matrix(plan, 1000)[3]
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, _oracle_rows(plan, 1000, [3])[0])

    def test_pooled_variance(self):
        plan = bt.MultiplierPlan(n_draws=10, base_seed=1)
        omega = bt.multiplier_matrix(plan, 10_000)
        np.testing.assert_array_equal(omega, _oracle_rows(plan, 10_000, range(10)))
        pooled = omega.ravel()
        assert pooled.size == 100_000
        assert 0.99 < pooled.var() < 1.01
        assert abs(pooled.mean()) < 0.02

    def test_stream_independence(self):
        plan = bt.MultiplierPlan(n_draws=4, base_seed=2)
        u, v = bt.multiplier_matrix(plan, 100_000)[:2]
        np.testing.assert_array_equal(np.stack([u, v]), _oracle_rows(plan, 100_000, [0, 1]))
        assert abs(np.corrcoef(u, v)[0, 1]) < 0.02

    @pytest.mark.parametrize("base_seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**100])
    def test_seeding_matches_numpy_seed_sequence(self, base_seed):
        # Base seeds of 1, 2, 3 and 4+ entropy words; the last puts the draw
        # index past the pool, into SeedSequence's extra mixing loop.
        for n_draws in (1, 257):
            plan = bt.MultiplierPlan(n_draws, base_seed)
            seqs = [np.random.SeedSequence((base_seed, b)) for b in range(n_draws)]
            words = np.array([seq.generate_state(4, np.uint64) for seq in seqs])
            np.testing.assert_array_equal(bt._seed_words(base_seed, np.arange(n_draws)), words)
            np.testing.assert_array_equal(bt._seed_words(base_seed, [0]), words[:1])
            for n in (0, 1, 50):
                oracle = np.array([np.random.default_rng(seq).standard_normal(n) for seq in seqs])
                np.testing.assert_array_equal(bt.multiplier_matrix(plan, n), oracle.reshape(n_draws, n))

    def test_ordered_draws_make_one_b_by_n_array(self):
        # Omega in a backend's row order holds each observation's own multipliers,
        # gathered row by row into the one B x n array.
        plan, n = bt.MultiplierPlan(n_draws=200, base_seed=36), 5000
        order = np.random.default_rng(36).permutation(n)
        tracemalloc.start()
        try:
            omega = bt.multiplier_matrix(plan, n, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * plan.n_draws * n * 8
        np.testing.assert_array_equal(omega, bt.multiplier_matrix(plan, n)[:, order])

    def test_draw_index_bounds(self):
        # Omega's rows are the draws 0 .. n_draws - 1, and the plan keeps n_draws at
        # or below 2**32, so every draw index is one 32-bit entropy word.
        plan = bt.MultiplierPlan(n_draws=5, base_seed=0)
        np.testing.assert_array_equal(bt.multiplier_matrix(plan, 10), _oracle_rows(plan, 10, range(5)))
        with pytest.raises(ConfigurationError):
            bt.MultiplierPlan(n_draws=2**32)
        top = bt.MultiplierPlan(n_draws=2**32 - 1, base_seed=7)
        np.testing.assert_array_equal(bt._seed_words(top.base_seed, [top.n_draws - 1]),
                                      np.random.SeedSequence((7, 2**32 - 2)).generate_state(4, np.uint64)[None])

    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            bt.MultiplierPlan(n_draws=0)
        with pytest.raises(ConfigurationError):
            bt.MultiplierPlan(base_seed=-1)
        for bad in ({"n_draws": 10.0}, {"n_draws": True}, {"n_draws": "10"}, {"n_draws": 2**32},
                    {"base_seed": 1.5}, {"base_seed": 1.0}, {"base_seed": False}, {"base_seed": np.float64(3)},
                    {"base_seed": np.bool_(True)}, {"base_seed": None}):
            with pytest.raises(ConfigurationError):
                bt.MultiplierPlan(**bad)
        plan = bt.MultiplierPlan(np.int64(2**32 - 1), np.uint64(2**64 - 1))
        assert type(plan.n_draws) is int and type(plan.base_seed) is int
        assert plan == bt.MultiplierPlan(2**32 - 1, 2**64 - 1)


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
        row = field.fits[4].score_rows(field.rows[4][:1])[0] / field.sigma[4][0]
        t_vals = bt.multiplier_matrix(plan, field.n, field.backend.order) @ row
        assert kstest(t_vals, "norm").statistic < 0.01

    def test_zero_residuals_error_propagates(self):
        rng = np.random.default_rng(5)
        x = rng.random(100)
        sample = est.Sample(2 + 3 * x, x, x)
        backend = est.SieveBackend(sample, est.npiv_model(CUBIC, None))
        # Seed the backend's fit cache with a fit whose residuals are all zero.
        backend._fits[4] = replace(_with_residuals(backend, 4, np.zeros(sample.n)), s_hat=1.0)
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
            # The backend's fit of J2 is a copy of the fit of J, so J2 reads the rows and slice of J.
            backend, fit = field.backend, field.fits[j]
            backend._fits[j2] = replace(fit, left=fit.left.copy(), u_hat=fit.u_hat.copy())
            alias = est.build_field(backend, field.grid, 0, (j, j2))
            np.testing.assert_array_equal(alias.rows[j2], field.rows[j])
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


def _count_seeded(monkeypatch) -> list[int]:
    """The draw indices whose substreams are seeded from now on, one entry per seeding."""
    seeded, original = [], bt._seed_words

    def counted(base_seed, draws):
        seeded.extend(int(b) for b in np.ravel(draws))
        return original(base_seed, draws)

    monkeypatch.setattr(bt, "_seed_words", counted)
    return seeded


class TestMultiplierReuse:
    def test_one_replication_draws_each_multiplier_once(self, monkeypatch):
        from npivband import simgen as sg

        seeded = _count_seeded(monkeypatch)
        plan = bt.MultiplierPlan(60, 0)
        sg.run_mc("trade_pareto", [300], 1, plan=plan, det_js=(5, 7))
        assert sorted(seeded) == list(range(plan.n_draws))

    @pytest.mark.parametrize("kind", ["fit_npiv", "fit_reg2d", "fit_additive", "fit_plm", "rebands"])
    def test_one_cli_run_draws_each_multiplier_once(self, kind, monkeypatch, tmp_path):
        from test_golden import _argv

        from npivband.cli import EXIT_OK, main

        seeded = _count_seeded(monkeypatch)
        assert main(_argv(kind, str(tmp_path))) == EXIT_OK
        assert sorted(seeded) == list(range(99))

    def test_streamed_contrast_matches_stacked_reference(self):
        # A 100-point grid and n=1000, as in the Monte Carlo designs. The
        # factored statistic sums in another order than the stacked dense
        # score rows, so the two agree to rounding; the factored one repeats
        # bit for bit.
        field = _field(js=(4, 5, 7), n=1000, grid=np.linspace(0, 1, 100))
        plan = bt.MultiplierPlan(n_draws=150, base_seed=13)
        pairs = [(4, 5), (4, 7), (5, 7)]
        _, base = bt.sup_t_contrast(field, plan, pairs)
        np.testing.assert_allclose(base, _dense_sup_t(field, _npiv_sample(n=1000), plan, pairs=pairs), rtol=1e-12)
        np.testing.assert_array_equal(bt.sup_t_contrast(field, plan, pairs)[1], base)

    def test_cache_leaves_plan_identity_alone(self):
        plan = bt.MultiplierPlan(n_draws=20, base_seed=4)
        twin = bt.MultiplierPlan(n_draws=20, base_seed=4)
        before = (repr(plan), hash(plan))
        omega = bt.multiplier_matrix(plan, 30)
        assert omega.shape == (20, 30)
        assert (repr(plan), hash(plan)) == before
        assert plan == twin and hash(plan) == hash(twin)
        np.testing.assert_array_equal(omega[3], _oracle_rows(plan, 30, [3])[0])

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
        assert all(p is projs[0] for p in projs)
        assert all(f.fits[7] is fields[0].fits[7] for f in fields)
        assert not np.shares_memory(fields[0].fits[7].left, fields[0].fits[5].left)
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
        # A slice's field reads the whole fit's projection (R o u)' Omega'; its rows, taken
        # through the slice's rows of the left factor, give the slice's draws.
        # Neither dense design is span-built, so both backends fit the shared sample in its given
        # order, and one Omega drawn in place serves them.
        backends = _model_backends()
        plan = bt.MultiplierPlan(60, 33)
        assert backends["additive"].order is None and backends["partially_linear"].order is None
        omega = bt.multiplier_matrix(plan, backends["additive"].n)
        full = bt._projections(est.build_field(backends["additive"], np.column_stack([self.GRID] * 2), 0,
                                               (4, 5, 7)), plan)
        # Each additive block keeps J - 1 columns, so component 1 reads 1 + (J - 1) : 1 + 2 (J - 1).
        for name, sl_of, width in (("additive_component", lambda j: slice(j, 2 * j - 1), lambda j: 2 * j - 1),
                                   ("partially_linear", lambda j: slice(0, j), lambda j: j + 1)):
            backend = backends[name]
            field = est.build_field(backend, self.GRID, 0, (4, 5, 7))
            proj = bt._projections(field, plan)
            for j in (4, 5, 7):
                fit = backend.fit(j)
                assert proj[j] is fit.projections[plan] and proj[j].shape == (width(j), plan.n_draws)
                np.testing.assert_array_equal(proj[j], _chunked_projection(fit, omega))
                rows, sl = backend.model.selector(fit.basis, field.grid, (0,))
                np.testing.assert_array_equal(field.rows[j], rows @ fit.left[sl])
        for j in (4, 5, 7):
            fit = backends["additive"].fit(j)
            assert full[j] is fit.projections[plan] and full[j].shape == (1 + 2 * (j - 1), plan.n_draws)
            np.testing.assert_array_equal(full[j], _chunked_projection(fit, omega))
            left, rmat = _solved(backends["additive"], j)
            dense = ((left @ rmat.dense().T) * fit.u_hat) @ omega.T
            np.testing.assert_allclose(fit.left @ full[j], dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())

    def test_replaced_fit_gets_fresh_weights(self):
        # The weights left right' are formed per product from the fit's own right factor R o u_hat.
        backend = _npiv_backend(n=200)
        plan = bt.MultiplierPlan(40, 35)
        first = est.build_field(backend, self.GRID, 0, (4,))
        first_proj = bt._projections(first, plan)[4]
        backend._fits[4] = _with_residuals(backend, 4, 2.0 * backend.fit(4).u_hat)
        assert backend._fits[4].projections == {}
        second = est.build_field(backend, self.GRID, 0, (4,))
        second_proj = bt._projections(second, plan)[4]
        assert not np.shares_memory(second_proj, first_proj)
        omega = bt.multiplier_matrix(plan, backend.n, backend.order)
        np.testing.assert_array_equal(second_proj, _chunked_projection(backend._fits[4], omega))
        np.testing.assert_array_equal(second_proj, 2.0 * first_proj)
        np.testing.assert_array_equal(second.sigma[4], 2.0 * first.sigma[4])

    def test_shared_arrays_are_read_only(self):
        built = _field(js=(4, 7))
        # Another field of the same backend reads the same fits' factors and projections.
        direct = est.build_field(built.backend, built.grid, 0, (4,))
        assert direct.fits[4] is built.fits[4]
        for field in (built, direct):
            plan = bt.MultiplierPlan(20, 34)
            for arr in (field.fits[4].left, field.fits[4].right.blocks[0], bt._projections(field, plan)[4]):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0, 0] = 1.0


class TestThreadMap:
    """Drawing Omega and forming the projections give the same bytes on any number of threads."""

    COUNTS = (1, 2, 4)

    @pytest.mark.parametrize("n_draws", [1, 63, 64, 65, 500])
    @pytest.mark.parametrize("n", [1, 40])
    def test_multiplier_matrix_ignores_the_thread_count(self, n_draws, n, monkeypatch):
        plan = bt.MultiplierPlan(n_draws, 41)
        order = np.random.default_rng(41).permutation(n)
        for with_order in (None, order):
            results = []
            for count in self.COUNTS:
                monkeypatch.setattr(_linalg, "_map_threads", count)
                results.append(bt.multiplier_matrix(plan, n, with_order).tobytes())
            assert results[1:] == results[:1] * (len(results) - 1)
        np.testing.assert_array_equal(bt.multiplier_matrix(plan, n, order),
                                      _oracle_rows(plan, n, range(n_draws))[:, order])

    @pytest.mark.parametrize("instruments", [None, ISPEC])
    def test_projections_ignore_the_thread_count(self, instruments, monkeypatch):
        # A series-regression backend, which sorts its sample, and a TSLS one, each fitted
        # afresh per count. At n=1000 a TSLS projection formed over all draws at once
        # rounds differently, so the oracle takes the same 64-draw slices.
        plan = bt.MultiplierPlan(150, 42)
        results = []
        for count in self.COUNTS:
            monkeypatch.setattr(_linalg, "_map_threads", count)
            backend = est.SieveBackend(_npiv_sample(n=1000), est.npiv_model(CUBIC, instruments))
            assert (backend.order is None) == (instruments is not None)
            field = est.build_field(backend, np.linspace(0, 1, 25), 0, (4, 5, 7, 11))
            results.append({j: proj.tobytes() for j, proj in bt._projections(field, plan).items()})
        assert results[1:] == results[:1] * (len(results) - 1)
        omega = bt.multiplier_matrix(plan, field.n, field.backend.order)
        for j, proj in bt._projections(field, plan).items():
            np.testing.assert_array_equal(proj, _chunked_projection(field.fits[j], omega))

    def test_run_mc_report_ignores_the_thread_count(self, monkeypatch):
        from npivband import simgen as sg

        reports = []
        for count in self.COUNTS:
            monkeypatch.setattr(_linalg, "_map_threads", count)
            report = sg.run_mc("trade_pareto", [300], 2, plan=bt.MultiplierPlan(150, 43), det_js=(5,), base_seed=3)
            reports.append(report)
        serial = reports[0]
        for report in reports[1:]:
            assert [vars(r) for r in report.rows] == [vars(r) for r in serial.rows]
            assert report.flags == serial.flags
            assert report.j_tilde[300].tobytes() == serial.j_tilde[300].tobytes()
            assert {k: v.tobytes() for k, v in report.diagnostics[300].items()} == {
                k: v.tobytes() for k, v in serial.diagnostics[300].items()}

    def test_no_thread_outlives_a_call(self, monkeypatch):
        # So no thread is alive when run_mc forks its workers.
        from npivband import simgen as sg

        monkeypatch.setattr(_linalg, "_map_threads", 2)
        before = threading.active_count()
        bt.multiplier_matrix(bt.MultiplierPlan(300, 44), 50, np.arange(50)[::-1])
        assert threading.active_count() == before
        for n_workers in (1, 2):
            sg.run_mc("trade_pareto", [300], 2, plan=bt.MultiplierPlan(130, 45), det_js=(5,), n_workers=n_workers)
            assert threading.active_count() == before

    def test_a_failing_task_raises_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(_linalg, "_map_threads", 2)
        before, done = threading.active_count(), []

        def task(item, buffer):
            if item == 3:
                raise ValueError(f"task {item} failed")
            done.append(item)

        _linalg.thread_map(task, [0, 1, 2, 4, 5])
        assert sorted(done) == [0, 1, 2, 4, 5]
        with pytest.raises(ValueError, match="task 3 failed"):
            _linalg.thread_map(task, range(8))
        assert threading.active_count() == before

    def test_every_item_runs_once_under_contention(self, monkeypatch):
        # More threads than cores and a short switch interval: a lost update of the
        # shared queue would run an item twice or not at all, and a buffer shared
        # between threads would mix the gathered rows.
        import sys

        plan, order = bt.MultiplierPlan(640, 46), np.random.default_rng(46).permutation(64)
        expected = bt.multiplier_matrix(plan, 64, order).tobytes()
        monkeypatch.setattr(_linalg, "_map_threads", 8)
        runs = np.zeros(3000, dtype=int)

        def task(item, buffer):
            runs[item] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _linalg.thread_map(task, range(runs.size))
            drawn = bt.multiplier_matrix(plan, 64, order).tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert (runs == 1).all()
        assert drawn == expected

    def test_each_thread_gets_its_own_buffer(self, monkeypatch):
        monkeypatch.setattr(_linalg, "_map_threads", 2)
        made, seen = [], []

        def make_buffer():
            made.append(threading.get_ident())
            return []

        def task(item, buffer):
            buffer.append(item)
            seen.append((threading.get_ident(), id(buffer)))

        _linalg.thread_map(task, range(50), make_buffer)
        assert made == [threading.get_ident()] * 2
        assert len(seen) == 50 and len(set(seen)) == len({ident for ident, _ in seen})
        _linalg.thread_map(task, [], make_buffer)
        assert len(made) == 2


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
