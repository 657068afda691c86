import re

import numpy as np
import pytest

from npivband import adaptive as ad
from npivband import basis as bs
from npivband import estimator as est
from npivband import extensions as ext
from npivband import ucb
from npivband.bootstrap import MultiplierPlan
from npivband.errors import ConfigurationError, InsufficientSampleError, InvalidDimensionError

CUBIC = bs.BasisSpec(4, 0)
ASPEC = ext.AdditiveSpec((CUBIC, CUBIC))
ADDITIVE = ext.additive_model(ASPEC, None)


def _select(sample, model, plan, grid=None):
    return ad.run_selection(est.SieveBackend(sample, model), plan, "regression", grid)


def _additive_sample(n=400, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 2))
    y = 1.0 + x[:, 0] + x[:, 1] ** 2 + noise * rng.standard_normal(n)
    return est.Sample(y, x, x)


class TestAdditiveFit:
    def test_exact_recovery_up_to_centering(self):
        fit = est.fit(_additive_sample(), ADDITIVE, 4)
        grid = np.linspace(0, 1, 201)
        # components are centered: h1 = x - 1/2, h2 = x^2 - 1/3
        err1 = np.abs(est.evaluate(ext.component_model(ADDITIVE, 0), fit, grid) - (grid - 0.5)).max()
        err2 = np.abs(est.evaluate(ext.component_model(ADDITIVE, 1), fit, grid) - (grid**2 - 1 / 3)).max()
        assert err1 < 1e-8 and err2 < 1e-8
        assert fit.coef[0] == pytest.approx(1 + 0.5 + 1 / 3, abs=1e-8)

    @pytest.mark.parametrize("j", [4, 7, 11])
    def test_generic_design_is_full_rank(self, j):
        # One column dropped per centred block leaves 1 + d(J - 1) independent columns.
        sample = _additive_sample()
        grams = est.fit_grams(sample, ADDITIVE, j)
        assert grams[1].design.shape[1] == 1 + 2 * (j - 1) and grams[1].gram_p.eig is None
        fit = est.fit(sample, ADDITIVE, j, grams)
        assert fit.flags == () and fit.s_hat == 1.0

    def test_copied_coordinate_design_flagged(self):
        # x2 copies x1, so the two centred blocks repeat each other: the eigen route.
        s = _additive_sample()
        x = np.column_stack([s.x[:, 0], s.x[:, 0]])
        sample = est.Sample(s.y, x, x)
        grams = est.fit_grams(sample, ADDITIVE, 4)
        assert grams[1].gram_p.eig is not None
        fit = est.fit(sample, ADDITIVE, 4, grams)
        assert "design_rank_deficient" in fit.flags and "shat_reduced_rank" in fit.flags

    def test_centered_columns_integrate_to_zero(self):
        # analytic integral of each raw column equals the subtracted constant,
        # so the centered integral vanishes identically; verify the analytic
        # integrals against high-resolution quadrature
        fit = est.fit(_additive_sample(), ADDITIVE, 7)
        grid = np.linspace(0, 1, 20001)
        for basis, integrals in fit.basis:
            raw = bs.design_matrix(basis, grid)
            quad = np.trapezoid(raw, grid, axis=0)
            np.testing.assert_allclose(quad, integrals, atol=1e-8)
            centered = ext._centered_block(basis, integrals, grid, 0)
            assert np.abs(np.trapezoid(centered, grid, axis=0)).max() < 1e-8

    def test_additive_vs_tensor_fit_on_additive_truth(self):
        # both estimators target the same additive truth; compare away from the
        # data-sparse corners where the tensor fit is noisy
        rng = np.random.default_rng(1)
        n = 900
        x = rng.random((n, 2))
        y = np.sin(2 * x[:, 0]) + x[:, 1] + 0.3 * rng.standard_normal(n)
        s = est.Sample(y, x, x)
        afit = est.fit(s, ADDITIVE, 5)
        tensor = est.npiv_model(bs.BasisSpec(4, 0, dim=2), None)
        tfit = est.fit(s, tensor, 25)
        axis = np.linspace(0.1, 0.9, 12)
        mesh = np.meshgrid(axis, axis, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        add_pred = est.evaluate(ADDITIVE, afit, grid)
        tensor_pred = est.evaluate(tensor, tfit, grid)
        assert np.abs(add_pred - tensor_pred).max() < 0.25
        assert np.abs(add_pred - tensor_pred).mean() < 0.08

    def test_full_derivative(self):
        fit = est.fit(_additive_sample(), ADDITIVE, 4)
        grid = ad.default_grid(2, 9)
        d1 = est.evaluate(ADDITIVE, fit, grid, (1, 0))
        np.testing.assert_allclose(d1, np.ones(grid.shape[0]), atol=1e-8)
        d2 = est.evaluate(ADDITIVE, fit, grid, (0, 1))
        np.testing.assert_allclose(d2, 2 * grid[:, 1], atol=1e-8)

    def test_instrumented_additive(self):
        rng = np.random.default_rng(2)
        n = 600
        x = rng.random((n, 2))
        w = np.clip(x + 0.1 * rng.standard_normal((n, 2)), 0, 1)
        y = 1 + x[:, 0] + x[:, 1] ** 2 + 0.2 * rng.standard_normal(n)
        s = est.Sample(y, x, w)
        ispec = bs.InstrumentSpec(CUBIC, q=1, dim_w=2)
        model = ext.additive_model(ASPEC, ispec)
        fit = est.fit(s, model, 4)
        grid = np.linspace(0, 1, 50)
        assert np.abs(est.evaluate(ext.component_model(model, 0), fit, grid) - (grid - 0.5)).max() < 0.2

    def test_selection_swap_invariance(self):
        rng = np.random.default_rng(3)
        n = 300
        x = rng.random((n, 2))
        y = 1 + np.sin(3 * x[:, 0]) + x[:, 1] ** 2 + 0.3 * rng.standard_normal(n)
        plan = MultiplierPlan(80, 3)
        grid = ad.default_grid(2, 12)
        sel_a = _select(est.Sample(y, x, x), ADDITIVE, plan, grid)
        x_sw = x[:, ::-1].copy()
        sel_b = _select(est.Sample(y, x_sw, x_sw), ADDITIVE, plan, grid)
        assert sel_a.j_tilde == sel_b.j_tilde
        # column reordering perturbs BLAS summation order at the last few bits
        assert sel_a.theta_star == pytest.approx(sel_b.theta_star, rel=1e-6)
        # component t-statistics swap along with the labels
        fa = sel_a.backend.fit(sel_a.j_tilde)
        fb = sel_b.backend.fit(sel_b.j_tilde)
        g1 = np.linspace(0, 1, 30)
        np.testing.assert_allclose(
            est.evaluate(ext.component_model(ADDITIVE, 0), fa, g1),
            est.evaluate(ext.component_model(ADDITIVE, 1), fb, g1),
            atol=1e-9,
        )

    def test_component_band(self):
        rng = np.random.default_rng(4)
        n = 500
        x = rng.random((n, 2))
        truth1 = np.sin(3 * x[:, 0])
        y = 1 + truth1 + x[:, 1] + 0.4 * rng.standard_normal(n)
        plan = MultiplierPlan(100, 5)
        sel = _select(est.Sample(y, x, x), ADDITIVE, plan, ad.default_grid(2, 12))
        g1 = np.linspace(0, 1, 40)
        band = ucb.band_deriv(ext.component_view(sel, 0, g1), plan=plan, alpha=0.05, a=0)
        centered_truth = np.sin(3 * g1) - (1 - np.cos(3.0)) / 3.0
        assert (band.halfwidth > 0).all()
        assert np.abs(band.center - centered_truth).max() < 5 * band.halfwidth.max()


class TestDroppedColumnSpan:
    """Each centred block drops its last column, which the kept columns span, at every derivative order."""

    @pytest.mark.parametrize("order", [3, 4, 5])
    @pytest.mark.parametrize("knot_rule", ["uniform_dyadic", "empirical_quantile"])
    def test_dropped_column_is_minus_the_sum_of_the_kept(self, order, knot_rule):
        rng = np.random.default_rng(order)
        data = rng.beta(2, 5, (500, 1)) if knot_rule == "empirical_quantile" else None  # skewed knots
        pts = np.concatenate([[0.0, 1.0], rng.random(300)])
        for level in range(6):
            basis = bs.make_spec(order, level, knot_rule=knot_rule, data=data)
            integrals = bs.basis_integrals(basis)
            centered = bs.design_matrix(basis, pts) - integrals[None, :]
            kept = ext._centered_block(basis, integrals, pts, 0)
            np.testing.assert_array_equal(kept, centered[:, :-1])
            np.testing.assert_allclose(centered[:, -1], -kept.sum(axis=1), rtol=0, atol=1e-13)
            for a in range(1, order - 1):
                # The a-th derivatives grow as 2^(a * level), so the sum's rounding
                # is bounded by 1e-13 of the block's largest magnitude.
                block = bs.design_matrix(basis, pts, a)
                np.testing.assert_array_equal(ext._centered_block(basis, integrals, pts, a), block[:, :-1])
                scale = max(1.0, float(np.abs(block).max()))
                np.testing.assert_allclose(block.sum(axis=1), 0.0, rtol=0, atol=1e-13 * scale)


class TestPartiallyLinear:
    def test_exact_recovery(self):
        rng = np.random.default_rng(5)
        n = 300
        x1 = rng.random(n)
        x2 = np.clip(0.5 + 0.2 * rng.standard_normal(n), 0, 1)
        y = (2 * x1 - 1) + 2.0 * x2
        s = est.Sample(y, np.column_stack([x1, x2]), np.column_stack([x1, x2]))
        model = ext.partially_linear_model(ext.PartiallyLinearSpec(CUBIC, linear_cols=(1,)), None)
        fit = est.fit(s, model, 4)
        beta = fit.coef[fit.j:]
        assert beta[0] == pytest.approx(2.0, abs=1e-9)
        g = np.linspace(0, 1, 33)
        # The linear block enters demeaned, so h1 absorbs beta times the mean of x2.
        recovered = est.evaluate(model, fit, g) - beta[0] * x2.mean()
        np.testing.assert_allclose(recovered, 2 * g - 1, atol=1e-9)

    def test_empty_linear_block_reduces_to_plain_fit(self):
        rng = np.random.default_rng(6)
        n = 250
        x = rng.random(n)
        y = np.sin(3 * x) + 0.2 * rng.standard_normal(n)
        s = est.Sample(y, x, x)
        spec = ext.PartiallyLinearSpec(CUBIC, linear_cols=())
        fit = est.fit(s, ext.partially_linear_model(spec, None), 7)
        plain = est.fit(s, est.npiv_model(CUBIC, None), 7)
        np.testing.assert_allclose(fit.coef, plain.coef, atol=1e-10)

    def test_two_block_oracle(self):
        rng = np.random.default_rng(7)
        n = 50
        x1 = rng.random(n)
        x2 = np.clip(0.5 + 0.25 * rng.standard_normal(n), 0, 1)
        w = np.clip(x1 + 0.1 * rng.standard_normal(n), 0, 1)
        y = np.sin(3 * x1) + 1.5 * x2 + 0.1 * rng.standard_normal(n)
        s = est.Sample(y, np.column_stack([x1, x2]), w)
        spec = ext.PartiallyLinearSpec(CUBIC, linear_cols=(1,))
        model = ext.partially_linear_model(spec, bs.InstrumentSpec(CUBIC, q=2))
        fit = est.fit(s, model, 4)
        grams = est.fit_grams(s, model, 4)[1]
        design, bmat = grams.design.dense(), grams.bmat
        proj = bmat @ np.linalg.pinv(bmat.T @ bmat) @ bmat.T
        coef = np.linalg.solve(design.T @ proj @ design, design.T @ proj @ s.y)
        np.testing.assert_allclose(fit.coef, coef, atol=1e-9)

    @pytest.mark.parametrize(
        "linear, bad", [((1, 1), "[1]"), ((5,), "[5]"), ((-1,), "[-1]"), ((0, 1), "leave no")]
    )
    def test_bad_linear_cols_named(self, linear, bad):
        rng = np.random.default_rng(8)
        x = rng.random((40, 2))
        model = ext.partially_linear_model(ext.PartiallyLinearSpec(CUBIC, linear_cols=linear), None)
        with pytest.raises(ConfigurationError, match=re.escape(bad)):
            est.fit(est.Sample(x.sum(axis=1), x, x), model, 4)

    def test_spec_needs_nonparametric_block(self):
        with pytest.raises(ConfigurationError):
            ext.PartiallyLinearSpec(None, linear_cols=(0,))

    def test_selection_runs(self):
        rng = np.random.default_rng(9)
        n = 500
        x1 = rng.random(n)
        x2 = np.clip(0.5 + 0.2 * rng.standard_normal(n), 0, 1)
        y = np.sin(4 * x1) + 1.2 * x2 + 0.4 * rng.standard_normal(n)
        s = est.Sample(y, np.column_stack([x1, x2]), np.column_stack([x1, x2]))
        spec = ext.PartiallyLinearSpec(CUBIC, linear_cols=(1,))
        sel = _select(s, ext.partially_linear_model(spec, None), MultiplierPlan(80, 1))
        assert sel.j_tilde in sel.index_set
        assert sel.grid.shape[1] == 1


def _level(j):
    """Resolution l of the cubic dimension J = 2^l + 3."""
    return {4: 0, 7: 2, 11: 3}[j]


def _additive_reference(sample, d, ispec, j):
    """Design [1, centered per-axis bases but their last column] and instruments b^{K(J)}(w) of the additive model."""
    blocks = [np.ones((sample.n, 1))]
    for i in range(d):
        basis = bs.BasisSpec(4, _level(j))
        centered = bs.design_matrix(basis, sample.x[:, i]) - bs.basis_integrals(basis)[None, :]
        blocks.append(centered[:, :-1])
    if ispec is None:
        return np.hstack(blocks), None
    level_w = -(-(_level(j) + ispec.q) * d // ispec.dim_w)
    return np.hstack(blocks), bs.design_matrix(bs.BasisSpec(5, level_w, dim=ispec.dim_w), sample.w)


def _partially_linear_reference(sample, ispec, j):
    """Design (psi^J(x1), x2 - mean x2) and instruments b^{K(J)}(w) of the partially linear model."""
    x2 = sample.x[:, 1:]
    design = np.hstack([bs.design_matrix(bs.BasisSpec(4, _level(j)), sample.x[:, 0]), x2 - x2.mean(axis=0)])
    if ispec is None:
        return design, None
    level_w = -(-(_level(j) + ispec.q) // ispec.dim_w)
    return design, bs.design_matrix(bs.BasisSpec(5, level_w, dim=ispec.dim_w), sample.w)


def _one_fit_case(name):
    rng = np.random.default_rng(12)
    n = 600
    d = 3 if name.startswith("additive3") else 2
    x = rng.random((n, d))
    dim_w = 1 if name == "additive3_iv" else 2
    w = np.clip(x[:, :dim_w] + 0.1 * rng.standard_normal((n, dim_w)), 0, 1)
    y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2 + 0.3 * rng.standard_normal(n)
    sample = est.Sample(y, x, x if name.endswith("exog") else w)
    ispec = {
        "additive2_exog": None,
        "additive2_iv": bs.InstrumentSpec(CUBIC, q=1, dim_w=2),
        "additive3_exog": None,
        "additive3_iv": bs.InstrumentSpec(CUBIC, q=0, dim_w=1),
        "plm_exog": None,
        "plm_iv": bs.InstrumentSpec(CUBIC, q=2, dim_w=2),
    }[name]
    if name.startswith("plm"):
        model = ext.partially_linear_model(ext.PartiallyLinearSpec(CUBIC, linear_cols=(1,)), ispec)
        return sample, model, lambda j: _partially_linear_reference(sample, ispec, j)
    model = ext.additive_model(ext.AdditiveSpec((CUBIC,) * d), ispec)
    return sample, model, lambda j: _additive_reference(sample, d, ispec, j)


# At J=4 the instrumented three-column model has K = 5 instruments for 13 columns:
# test_instruments_below_the_stacked_width covers that case.
_ONE_FIT_CASES = [
    (name, j)
    for name in ("additive2_exog", "additive2_iv", "additive3_exog", "additive3_iv", "plm_exog", "plm_iv")
    for j in (4, 7, 11)
    if (name, j) != ("additive3_iv", 4)
]


class TestOneFit:
    """``estimator.fit`` on the structured models equals ``TslsGrams(design, bmat).solve`` on their designs built here."""

    @pytest.mark.parametrize("name, j", _ONE_FIT_CASES)
    def test_fit_is_tsls_of_the_design(self, name, j):
        sample, model, reference = _one_fit_case(name)
        design, bmat = reference(j)
        grams = est.fit_grams(sample, model, j)[1]
        np.testing.assert_array_equal(grams.design.dense(), design)
        assert (grams.bmat is None) == (bmat is None)
        if bmat is not None:
            np.testing.assert_array_equal(grams.bmat, bmat)
        fit = est.fit(sample, model, j)
        left, right, coef, u_hat, s_hat, flags = est.TslsGrams(est.WindowedRows.whole(design), bmat).solve(sample.y)
        assert fit.right.runs == right.runs == (slice(0, sample.n),) and fit.right.windows == right.windows
        for got, want in ((fit.left, left), (fit.right.dense(), right.dense() * u_hat[:, None]), (fit.coef, coef),
                          (fit.u_hat, u_hat), (fit.s_hat, s_hat)):
            np.testing.assert_array_equal(got, want)
        assert fit.flags == flags and fit.j == j

    @pytest.mark.parametrize("name", ["additive", "plm"])
    def test_instruments_below_the_stacked_width(self, name):
        rng = np.random.default_rng(13)
        x = rng.random((200, 3))
        ispec = bs.InstrumentSpec(CUBIC, q=0, dim_w=1)
        if name == "additive":
            model = ext.additive_model(ext.AdditiveSpec((CUBIC, CUBIC, CUBIC)), ispec)  # K(4) = 5 < 13
        else:
            model = ext.partially_linear_model(ext.PartiallyLinearSpec(CUBIC, (1, 2)), ispec)  # K(4) = 5 < 6
        with pytest.raises(InvalidDimensionError, match="below the design width"):
            est.fit(est.Sample(x.sum(axis=1), x, x[:, 0]), model, 4)

    @pytest.mark.parametrize("name", ["additive", "plm"])
    def test_instruments_above_the_sample_size(self, name):
        rng = np.random.default_rng(14)
        x = rng.random((100, 2))
        if name == "additive":
            model = ext.additive_model(ASPEC, bs.InstrumentSpec(CUBIC, q=1, dim_w=2))  # K(7) = 144
        else:
            model = ext.partially_linear_model(
                ext.PartiallyLinearSpec(CUBIC, (1,)), bs.InstrumentSpec(CUBIC, q=2, dim_w=2)
            )  # K(11) = 12^2
        with pytest.raises(InsufficientSampleError):
            est.fit(est.Sample(x.sum(axis=1), x, x), model, 7 if name == "additive" else 11)


# The regression rule would take a larger J at each n (upsilon_n = 1, so J_hat_max >= 11), but the
# stacked widths cap the grid: 1 + 2(J - 1) <= n for the two-coordinate additive model and
# J + 2 <= n for the partially linear model with two linear columns.
_TINY_CASES = [("additive", 9, 5), ("additive", 13, 7), ("additive", 21, 11),
               ("plm", 6, 4), ("plm", 8, 5), ("plm", 12, 7)]


@pytest.mark.parametrize("name, n, j_hat_max", _TINY_CASES)
def test_tiny_regression_samples_cap_j_hat_max_at_the_model_grid(name, n, j_hat_max):
    rng = np.random.default_rng(n)
    x = rng.random((n, 2 if name == "additive" else 3))
    if name == "additive":
        model = ADDITIVE
    else:
        model = ext.partially_linear_model(ext.PartiallyLinearSpec(CUBIC, (1, 2)), None)
    backend = est.SieveBackend(est.Sample(x.sum(axis=1) + rng.standard_normal(n), x, x), model)
    assert backend.candidate_dims()[-1] == j_hat_max
    with pytest.warns(RuntimeWarning, match="did not bracket"):
        sel = ad.run_selection(backend, MultiplierPlan(20, 0), "regression", ad.default_grid(model.grid_dim, 5))
    assert sel.j_hat_max == j_hat_max
    assert "jmax_capped_by_sample" in sel.flags and "jmax_capped_by_backend" not in sel.flags


class TestFixedEffects:
    def _panel(self, n=800, seed=10, shift=0.0):
        rng = np.random.default_rng(seed)
        x = rng.random(n)
        w = np.clip(x + 0.15 * rng.standard_normal(n), 0, 1)
        exporter = rng.integers(0, 10, n)
        importer = rng.integers(0, 8, n)
        y = 1 + np.sin(3 * x) + 0.3 * rng.standard_normal(n)
        y = y + shift * (exporter == 3)
        return est.Sample(y, x, w), exporter, importer

    def test_zero_effects_near_noop(self):
        sample, exporter, importer = self._panel()
        ispec = bs.InstrumentSpec(CUBIC, q=2)
        plan = ext.FixedEffectsPlan((exporter, importer), j_max=7)
        adjusted, info = ext.partial_out_fixed_effects(sample, plan, ispec)
        # effects are zero in the DGP: the adjustment is pure estimation noise
        assert np.abs(adjusted.y - sample.y).mean() < 0.15
        np.testing.assert_array_equal(adjusted.x, sample.x)
        np.testing.assert_array_equal(adjusted.w, sample.w)

    def test_shifted_exporter_absorbed(self):
        sample, exporter, importer = self._panel(shift=5.0)
        ispec = bs.InstrumentSpec(CUBIC, q=2)
        plan = ext.FixedEffectsPlan((exporter, importer), j_max=7)
        adjusted, info = ext.partial_out_fixed_effects(sample, plan, ispec)
        effects = info["effects"][0]["effects"]
        others = np.delete(np.arange(10), 3)
        assert effects[3] - effects[others].mean() == pytest.approx(5.0, abs=0.3)
        # the shift is stripped from the adjusted outcome
        shifted_rows = exporter == 3
        assert np.abs(adjusted.y[shifted_rows].mean() - adjusted.y[~shifted_rows].mean()) < 0.3

    def test_single_level_factor_warns_noop(self):
        sample, exporter, _ = self._panel()
        ispec = bs.InstrumentSpec(CUBIC, q=2)
        plan = ext.FixedEffectsPlan((np.zeros(sample.n, dtype=int),), j_max=7)
        with pytest.warns(RuntimeWarning, match="single level"):
            adjusted, _ = ext.partial_out_fixed_effects(sample, plan, ispec)
        np.testing.assert_array_equal(adjusted.y, sample.y)

    def test_singleton_level_warns(self):
        sample, exporter, importer = self._panel(n=200)
        exporter = exporter.copy()
        exporter[0] = 99  # its own level
        ispec = bs.InstrumentSpec(CUBIC, q=2)
        plan = ext.FixedEffectsPlan((exporter,), j_max=4)
        with pytest.warns(RuntimeWarning, match="singleton"):
            ext.partial_out_fixed_effects(sample, plan, ispec)
