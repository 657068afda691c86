import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from npivband import adaptive as ad
from npivband import basis as bs
from npivband import estimator as est
from npivband import extensions as ext
from npivband import simgen as sg
from npivband.bootstrap import MultiplierPlan, sup_t_contrast
from npivband._linalg import factor_gram, spectral_cutoff
from npivband.errors import DegenerateVarianceError, InsufficientSampleError

CUBIC = bs.BasisSpec(4, 0)
ISPEC = bs.InstrumentSpec(CUBIC, q=2)
REG = est.npiv_model(CUBIC, None)
NPIV = est.npiv_model(CUBIC, ISPEC)


def _operands(sample, model, j):
    """The n x p design of the model's fit at J and its n x K instruments, the design itself for series regression."""
    grams = est.fit_grams(sample, model, j)[1]
    design = grams.design.dense()
    return design, design if grams.bmat is None else grams.bmat


def _solved(sample, model, j):
    """``(left, R, u_hat)`` of the fit at J as ``TslsGrams.solve`` returns them, R dense and not weighted by u_hat."""
    left, rmat, _, u_hat = est.fit_grams(sample, model, j)[1].solve(sample.y)[:4]
    return left, rmat.dense(), u_hat


def _solved_m(sample, model, j):
    """M = left R' of the fit at J, from the factors that ``TslsGrams.solve`` returns."""
    left, rmat, _ = _solved(sample, model, j)
    return left @ rmat.T


def _with_residuals(backend, j, u):
    """The backend's fit at J with residuals ``u``: its right factor is the solved R weighted by u."""
    rmat = est.fit_grams(backend.sample, backend.model, j)[1].solve(backend.sample.y)[1]
    return replace(backend.fit(j), u_hat=u, right=rmat.weight(u))


def _linear_sample(n=200, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    y = 2.0 + 3.0 * x + noise * rng.standard_normal(n)
    return est.Sample(y, x, x)


def _noisy_sample(n=250, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    w = np.clip(x + 0.15 * rng.standard_normal(n), 0, 1)
    y = np.sin(3 * x) + 0.5 * rng.standard_normal(n)
    return est.Sample(y, x, w)


class TestSampleValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            est.Sample([1.0, np.nan], [0.1, 0.2], [0.1, 0.2])

    def test_rejects_outside_cube(self):
        with pytest.raises(ValueError):
            est.Sample([1.0, 2.0], [0.1, 1.2], [0.1, 0.2])

    def test_shapes(self):
        s = est.Sample([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], [0.3, 0.4, 0.5])
        assert s.n == 3 and s.dim == 1 and s.dim_w == 1


class TestFit:
    def test_exact_linear_recovery(self):
        f = est.fit(_linear_sample(), REG, 4)
        grid = np.linspace(0, 1, 101)
        assert np.abs(est.evaluate(REG, f, grid) - (2 + 3 * grid)).max() < 1e-10

    def test_evaluate_point_and_derivative(self):
        f = est.fit(_linear_sample(), REG, 4)
        assert est.evaluate(REG, f, [0.25])[0] == pytest.approx(2.75, abs=1e-10)
        grid = np.linspace(0, 1, 23)
        assert np.abs(est.evaluate(REG, f, grid, 1) - 3.0).max() < 1e-9

    def test_derivative_finite_difference_ratio(self):
        f = est.fit(_noisy_sample(), NPIV, 7)
        x0, errs = 0.37, []
        for h in (1e-3, 5e-4):
            fd = (est.evaluate(NPIV, f, [x0 + h]) - est.evaluate(NPIV, f, [x0 - h])) / (2 * h)
            errs.append(abs(fd[0] - est.evaluate(NPIV, f, [x0], 1)[0]))
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_polynomial_reproduction_tsls(self):
        # noiseless degree <= r-1 polynomial, recovered exactly through the
        # projection path with genuinely different instruments
        rng = np.random.default_rng(2)
        x = rng.random(300)
        y = 1 - 2 * x + 0.5 * x**2 + x**3
        f = est.fit(est.Sample(y, x, x), NPIV, 7)
        grid = np.linspace(0, 1, 200)
        truth = 1 - 2 * grid + 0.5 * grid**2 + grid**3
        assert np.abs(est.evaluate(NPIV, f, grid) - truth).max() < 1e-9

    def test_normal_equations(self):
        sample = _noisy_sample()
        f = est.fit(sample, NPIV, 7)
        design, bmat = _operands(sample, NPIV, 7)
        proj = bmat @ (np.linalg.pinv(bmat.T @ bmat) @ (bmat.T @ f.u_hat))
        y_norm = np.linalg.norm(f.u_hat + design @ f.coef)
        assert np.abs(design.T @ proj).max() < 1e-8 * y_norm

    def test_dense_oracle_small_sample(self):
        # n=6 oracle: explicitly formed projection and full-rank dense solve
        x6 = np.array([0.05, 0.2, 0.35, 0.55, 0.7, 0.95])
        w6 = np.array([0.1, 0.25, 0.4, 0.6, 0.75, 0.9])
        y6 = np.array([0.3, -0.2, 0.5, 1.0, 0.1, -0.4])
        spec = bs.BasisSpec(2, 0)
        sample, model = est.Sample(y6, x6, w6), est.npiv_model(spec, bs.InstrumentSpec(spec, q=0))
        f = est.fit(sample, model, 2)
        design, bmat = _operands(sample, model, 2)
        p = bmat @ np.linalg.pinv(bmat.T @ bmat) @ bmat.T
        c_oracle = np.linalg.solve(design.T @ p @ design, design.T @ p @ y6)
        np.testing.assert_allclose(f.coef, c_oracle, atol=1e-10)

    def test_insufficient_sample(self):
        s = _noisy_sample(n=15)
        with pytest.raises(InsufficientSampleError):
            est.fit(s, NPIV, 7)  # K(7)=20 > 15

    def test_zero_variance_outcome_allowed(self):
        rng = np.random.default_rng(3)
        x = rng.random(100)
        f = est.fit(est.Sample(np.full(100, 2.5), x, x), NPIV, 4)
        assert np.abs(est.evaluate(NPIV, f, np.linspace(0, 1, 11)) - 2.5).max() < 1e-10


def _ref_psd_inverse(a, n_ambient, sqrt=False):
    """Pseudo-inverse (or inverse square root) of a PSD matrix from its own eigendecomposition, and its rank."""
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    keep = w > spectral_cutoff(np.maximum(w, 0.0), n_ambient)
    vk = v[:, keep]
    return (vk / (np.sqrt(w[keep]) if sqrt else w[keep])) @ vk.T, int(keep.sum())


def _reference_tsls(psi, bmat, y):
    """The TSLS formulas with each Gram formed and eigendecomposed where it is used.

    M = L R' with L = G^- and R = Psi for series regression, L = A^- and
    R = P_K Psi for TSLS; coef = L (R' y), which on the eigen route is how the
    fit solves for it. ``psi`` is the fit's ``WindowedRows`` design: Psi'Psi,
    Psi'y and Psi coef are formed over its blocks, as the fit does. Series
    regression is its own instrument, so its s_hat is 1 in closed form.
    """
    n, j = psi.shape
    gram_p = psi.inner(psi)
    flags = []
    if bmat is None:
        left, rank = _ref_psd_inverse(gram_p, max(n, j))
        right, rhs, s_hat, reduced = psi.dense(), psi.transpose_dot(y), 1.0, rank < j
    else:
        k = bmat.shape[1]
        gram_b, cross = bmat.T @ bmat, bmat.T @ psi.dense()
        gb_inv, rank_b = _ref_psd_inverse(gram_b, max(n, k))
        proj = gb_inv @ cross
        left, rank = _ref_psd_inverse(cross.T @ proj, max(n, j))
        right = bmat @ proj
        rhs = right.T @ y
        if rank_b < k:
            flags.append("instrument_gram_rank_deficient")
        rb, rank_b = _ref_psd_inverse(gram_b, max(n, k), sqrt=True)
        rp, rank_p = _ref_psd_inverse(gram_p, max(n, j), sqrt=True)
        sv = np.linalg.svd(rb @ cross @ rp, compute_uv=False)
        rank_s = min(rank_b, rank_p, sv.size)
        s_hat, reduced = float(min(sv[rank_s - 1], 1.0)) if rank_s else 0.0, rank_b < k or rank_p < j
    if rank < j:
        flags.append("design_rank_deficient")
    if reduced:
        flags.append("shat_reduced_rank")
    coef = left @ rhs
    return left @ right.T, coef, y - psi.dot(coef), s_hat, tuple(flags)


#: Cholesky-route fits match the eigen-route formulas to this fraction of each array's largest entry.
CHOLESKY_RTOL = 1e-9


def _count_eigh(monkeypatch) -> list:
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    return calls


def _fallback_case(name):
    """A sample whose Grams are all singular, its models, and the J values to fit."""
    if name == "rank_deficient":
        x = np.repeat([0.1, 0.4, 0.8], 100)
        return est.Sample(np.sin(3 * x), x, x), (REG, NPIV), (4, 7, 19, 35)
    rng = np.random.default_rng(5)
    if name == "additive":
        # The second coordinate copies the first, so the two centred blocks repeat each other.
        x = np.repeat(rng.random((400, 1)), 2, axis=1)
        model = ext.additive_model(ext.AdditiveSpec((CUBIC, CUBIC)), None)
        return est.Sample(1.0 + x[:, 0] + x[:, 1] ** 2, x, x), (model,), (4, 7)
    # Nine distinct x values, quantile knots on x and dyadic instruments: J=11 and K(11) exceed the rank.
    x = rng.integers(1, 10, 300) / 10
    spec = bs.BasisSpec(4, 0, knot_rule="empirical_quantile")
    models = (est.npiv_model(spec, None), est.npiv_model(spec, bs.InstrumentSpec(spec, q=1)))
    return est.Sample(np.sin(3 * x) + 0.1 * rng.standard_normal(300), x, x), models, (11,)


class TestTslsGrams:
    @pytest.mark.parametrize("design", ["trade_lognormal", "reg_wiggly", "npiv_sine_log"])
    def test_full_rank_grams_take_cholesky(self, design, monkeypatch):
        # No Gram is eigendecomposed, there are no flags, and the fit matches
        # the eigen-route formulas to CHOLESKY_RTOL.
        d = sg.get_design(design)
        sample, _ = sg.generate(d, 2500, 0)
        calls = _count_eigh(monkeypatch)
        for spec in (None,) if d.ispec is None else (None, d.ispec):
            for j in (4, 7, 19, 35):
                model = est.npiv_model(d.x_spec, spec)
                grams = est.fit_grams(sample, model, j)[1]
                calls.clear()
                f = est.fit(sample, model, j)
                assert calls == [] and f.flags == ()
                want = _reference_tsls(grams.design, grams.bmat, sample.y)
                for got, ref in zip((_solved_m(sample, model, j), f.coef, f.u_hat, f.s_hat), want):
                    scale = float(np.abs(ref).max())
                    np.testing.assert_allclose(got, ref, rtol=CHOLESKY_RTOL, atol=CHOLESKY_RTOL * scale)

    @pytest.mark.parametrize("case", ["rank_deficient", "additive", "tied_quantile_knots"])
    def test_fallback_equals_reference(self, case, monkeypatch):
        # Regression eigendecomposes Psi'Psi only; NPIV adds B'B and Psi'P_K Psi.
        # The fit equals the formulas with every Gram formed where it is used.
        sample, models, js = _fallback_case(case)
        calls = _count_eigh(monkeypatch)
        for model in models:
            for j in js:
                grams = est.fit_grams(sample, model, j)[1]
                design, bmat = grams.design, grams.bmat
                regression = bmat is None
                calls.clear()
                f = est.fit(sample, model, j)
                assert len(calls) == (1 if regression else 3)
                want = _reference_tsls(design, None if regression else bmat, sample.y)
                for got, ref in zip((_solved_m(sample, model, j), f.coef, f.u_hat, f.s_hat), want):
                    np.testing.assert_array_equal(got, ref)
                assert f.flags == want[4]
                assert "design_rank_deficient" in f.flags and "shat_reduced_rank" in f.flags

    def test_regression_shat_is_exactly_one(self):
        # On both Gram routes: the Cholesky route of a uniform sample, and the eigen route of
        # tied quantile knots (nine distinct x values, so J = 11 exceeds the rank).
        for j in (4, 7, 11):
            assert est.fit(_noisy_sample(), REG, j).s_hat == 1.0
        rng = np.random.default_rng(17)
        x = rng.integers(1, 10, 600) / 10
        sample = est.Sample(np.sin(3 * x) + x**2 + 0.3 * rng.standard_normal(600), x, x)
        backend = est.SieveBackend(sample, est.npiv_model(bs.BasisSpec(4, 0, knot_rule="empirical_quantile"), None))
        for j in (4, 5, 7, 11):
            assert backend.fit(j).s_hat == 1.0
        assert "shat_reduced_rank" in backend.fit(11).flags

    def test_look_ahead_forms_no_m(self, monkeypatch):
        # The J past J_hat_max is factored for its s_hat only; every J's Grams
        # are formed once, and M is formed for the index set alone.
        d = sg.get_design("trade_lognormal")
        sample, _ = sg.generate(d, 1522, 0)
        factored, solved = [], []
        init, solve = est.TslsGrams.__init__, est.TslsGrams.solve
        monkeypatch.setattr(est.TslsGrams, "__init__",
                            lambda self, design, bmat: factored.append(design.shape[1]) or init(self, design, bmat))
        monkeypatch.setattr(est.TslsGrams, "solve", lambda self, y: solved.append(self.design.shape[1]) or solve(self, y))
        sel = ad.select(sample, d.x_spec, d.ispec, plan=MultiplierPlan(n_draws=99), grid=np.linspace(0, 1, 20))
        look_ahead = sel.backend.next_dim(sel.j_hat_max)
        assert not sel.backend._grams and look_ahead not in sel.backend._fits
        assert sorted(factored) == [*sel.index_set, look_ahead]
        assert sorted(solved) == list(sel.index_set)
        # Asked again, the look-ahead's Grams are formed again and kept until it is fitted.
        assert sel.backend.shat(look_ahead) == sel.backend._grams[look_ahead][1].s_hat
        assert factored[-1] == look_ahead and look_ahead not in sel.backend._fits


    def test_fits_keep_no_design(self):
        # Each fit of a selection keeps its left factor (p x p), the windowed blocks of its
        # right factor R o u_hat (at most n x p), one projection (p x B), the coefficients and
        # the residuals: no n x p design or instruments, and no p x n M or W.
        rng = np.random.default_rng(9)
        n, b = 2000, 100
        x = rng.random(n)
        sel = ad.select(est.Sample(np.sin(6 * x) + 0.4 * rng.standard_normal(n), x, x), CUBIC,
                        mode="regression", plan=MultiplierPlan(b, 0), grid=np.linspace(0, 1, 50))
        assert len(sel.backend._fits) > 1
        for f in sel.backend._fits.values():
            held = [*vars(f).values(), *f.projections.values()]
            held += [block for value in vars(f).values() for block in getattr(value, "blocks", ())]
            arrays = {id(a): a for a in held if isinstance(a, np.ndarray)}
            p = f.coef.size
            assert sum(a.nbytes for a in arrays.values()) <= (n + b + p) * p * 8 + 2 * (n + p) * 8


def _chunk_windows(rows):
    """The window of each fixed chunk of ``OBS_ROWS`` rows of windowed rows, in row order."""
    return [window for run, window in zip(rows.runs, rows.windows) for _ in range(run.start, run.stop, est.OBS_ROWS)]


def _nonzero_windows(matrix):
    """Each fixed chunk of ``OBS_ROWS`` rows of a dense matrix's columns from its first to its last nonzero one."""
    windows = []
    for lo in range(0, matrix.shape[0], est.OBS_ROWS):
        used = np.flatnonzero((matrix[lo:lo + est.OBS_ROWS] != 0.0).any(axis=0))
        windows.append(slice(int(used[0]), int(used[-1]) + 1) if used.size else slice(0, 0))
    return windows


def _dense_regression(sample, model, j):
    """Series regression on the dense n x p B-spline design, by the formulas that span-built fits replaced.

    D'D is factored by ``factor_gram``; left is its (pseudo-)inverse, coef solves it against D'y, and
    s_hat is 1, since D instruments itself. Returns ``(left, D o u_hat, coef, u_hat, s_hat, flags, D)``.
    """
    basis = bs.spec_for_dimension(model.template, j, data=sample.x_quantiles)
    design = bs.design_matrix(basis, sample.x)
    n, p = design.shape
    gram = factor_gram(design.T @ design, max(n, p))
    coef = gram.solve(design.T @ sample.y)
    u_hat = sample.y - design @ coef
    flags = ("design_rank_deficient", "shat_reduced_rank") if gram.rank < p else ()
    return gram.inverse(), design * u_hat[:, None], coef, u_hat, 1.0, flags, design


class TestRightFactor:
    """A fit keeps R o u_hat, in the runs and windows of the unweighted R that ``TslsGrams.solve`` returns."""

    @pytest.mark.parametrize("case", ["regression", "tsls", "additive", "plm"])
    def test_right_is_r_times_u_hat_in_the_windows_of_r(self, case):
        rng = np.random.default_rng(21)
        n = 700
        x = rng.random((n, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2 + 0.3 * rng.standard_normal(n)
        if case == "additive":
            sample, model = est.Sample(y, x, x), ext.additive_model(ext.AdditiveSpec((CUBIC, CUBIC)), None)
        elif case == "plm":
            model = ext.partially_linear_model(ext.PartiallyLinearSpec(CUBIC, linear_cols=(1,)), None)
            sample = est.Sample(y, x, x)
        else:
            sample, model = est.Sample(y, x[:, 0], x[:, 1]), REG if case == "regression" else NPIV
        backend = est.SieveBackend(sample, model)
        assert (backend.order is None) == (case == "tsls")
        for j in est.candidate_dims(model, n)[2:5]:
            fit = backend.fit(j)
            left, rmat, u_hat = _solved(backend.sample, model, j)
            if case == "regression":
                # The windows come from the B-spline spans, so each holds its chunk's window of the dense design.
                assert len(fit.right.runs) > 1
                design = _dense_regression(backend.sample, model, j)[-1]
                for window, used in zip(_chunk_windows(fit.right), _nonzero_windows(design), strict=True):
                    assert window.start <= used.start and used.stop <= window.stop
            else:
                # A dense design is one block: R o u_hat is the single block over every row and column.
                assert fit.right.runs == (slice(0, n),) and fit.right.windows == (slice(0, rmat.shape[1]),)
            np.testing.assert_array_equal(fit.right.dense(), rmat * u_hat[:, None])
            np.testing.assert_array_equal(fit.left, left)
            np.testing.assert_array_equal(fit.u_hat, u_hat)

    @pytest.mark.parametrize("case", ["uniform", "tied_quantile_knots", "tensor"])
    def test_span_built_fit_equals_the_dense_design(self, case):
        # Fits on observations ordered by x, whose Grams, residuals and right factors are sums and
        # products over the span-built blocks, match the dense design's to rtol 1e-12 with the same flags.
        rng = np.random.default_rng(17)
        if case == "tied_quantile_knots":
            # Nine distinct x values: J = 11 exceeds the rank, so its Gram takes the eigen route.
            x = rng.integers(1, 10, 600) / 10
            model, js = est.npiv_model(bs.BasisSpec(4, 0, knot_rule="empirical_quantile"), None), (4, 5, 7, 11)
        elif case == "tensor":
            x = rng.random((900, 2))
            model, js = est.npiv_model(bs.BasisSpec(4, 0, dim=2), None), (16, 25, 49, 121)
        else:
            x = rng.random(1500)
            model, js = REG, (4, 5, 7, 11, 19, 35, 67, 131)
        xs = x.reshape(len(x), -1)
        y = np.sin(3 * xs[:, 0]) + xs[:, -1] ** 2 + 0.3 * rng.standard_normal(len(x))
        backend = est.SieveBackend(est.Sample(y, x, x), model)
        for j in js:
            fit = backend.fit(j)
            left, right, coef, u_hat, s_hat, flags, _ = _dense_regression(backend.sample, model, j)
            assert fit.flags == flags and fit.s_hat == s_hat == 1.0
            for got, ref in ((fit.coef, coef), (fit.u_hat, u_hat), (fit.left, left), (fit.right.dense(), right)):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * float(np.abs(ref).max()))
        assert (case == "tied_quantile_knots") == bool(fit.flags)

    def test_sorted_regression_fit_holds_no_design(self):
        # The blocks are built from the spans: a fit at n = 2500 and J = 131 peaks below half of
        # one n x p float array, the kept right factor R o u_hat included.
        rng = np.random.default_rng(13)
        n, j = 2500, 131
        x = rng.random(n)
        backend = est.SieveBackend(est.Sample(np.sin(8 * x) + 0.3 * rng.standard_normal(n), x, x), REG)
        backend.fit(4)
        tracemalloc.start()
        try:
            fit = backend.fit(j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.right.width == j and len(fit.right.runs) > 1
        assert peak < n * j * 8 / 2, peak

    def test_dense_right_factor_is_weighted_in_place(self):
        # A TSLS fit at n = 5000 and J = 35 weights its solved R = P_K Psi by u_hat in place:
        # beyond the Grams it was given, it peaks at R itself plus O(n + p^2), well below two
        # n x p float arrays (a weighted copy of R would be a second one).
        d = sg.get_design("npiv_sine_log")
        sample, _ = sg.generate(d, 5000, 3)
        model, n, j = est.npiv_model(d.x_spec, d.ispec), 5000, 35
        grams = est.fit_grams(sample, model, j)
        tracemalloc.start()
        try:
            fit = est.fit(sample, model, j, grams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.right.runs == (slice(0, n),) and fit.right.width == j
        assert peak < 1.25 * n * j * 8, peak


class TestShat:
    def test_self_instrumented_is_one(self):
        f = est.fit(_noisy_sample(), REG, 7)
        assert f.s_hat == pytest.approx(1.0, abs=1e-10)

    def test_ols_equivalence(self):
        # with b = psi the TSLS influence matrix equals series least squares
        sample = _noisy_sample()
        design = _operands(sample, REG, 7)[0]
        left, right = est.TslsGrams(est.WindowedRows.whole(design), design).solve(np.zeros(design.shape[0]))[:2]
        m_tsls = left @ right.dense().T
        assert np.abs(m_tsls - _solved_m(sample, REG, 7)).max() < 1e-10

    def test_independent_instruments_near_zero(self):
        # population smallest singular value is 0 under independence for J >= 2;
        # the sample value sits at the random-matrix noise floor ~ sqrt(K/n)
        rng = np.random.default_rng(4)
        n = 2000
        x = rng.random(n)
        w = rng.random(n)  # independent of x
        y = np.sin(3 * x) + 0.3 * rng.standard_normal(n)
        s = est.Sample(y, x, w)
        shats = [est.fit(s, NPIV, j).s_hat for j in (4, 7, 11)]
        assert max(shats) < 0.15

    def test_smoothing_design_decreasing_in_j(self):
        # an informative but smoothing first stage: ill-posedness grows with J,
        # so the singular-value proxy falls
        rng = np.random.default_rng(5)
        n = 2000
        w = rng.random(n)
        x = np.clip(w + 0.1 * rng.standard_normal(n), 0, 1)
        y = np.sin(3 * x) + 0.3 * rng.standard_normal(n)
        s = est.Sample(y, x, w)
        shats = [est.fit(s, NPIV, j).s_hat for j in (4, 7, 11)]
        assert shats[0] > shats[1] > shats[2]

    def test_matches_dense_svd_oracle(self):
        import scipy.linalg as sla

        sample = _noisy_sample(n=80)
        f = est.fit(sample, NPIV, 4)
        design, bmat = _operands(sample, NPIV, 4)
        rb = sla.fractional_matrix_power(bmat.T @ bmat, -0.5)
        rp = sla.fractional_matrix_power(design.T @ design, -0.5)
        sv = np.linalg.svd(rb @ (bmat.T @ design) @ rp, compute_uv=False)
        assert f.s_hat == pytest.approx(sv.min(), abs=1e-10)

    def test_bounds(self):
        f = est.fit(_noisy_sample(), NPIV, 7)
        assert 0.0 <= f.s_hat <= 1.0


def _field(sample, grid, deriv=0, js=(4, 7)):
    return est.build_field(est.SieveBackend(sample, NPIV), grid, deriv, js)


class TestVarianceField:
    def test_self_cross_equals_sigma2_exactly(self):
        vf = _field(_noisy_sample(), np.linspace(0, 1, 50))
        np.testing.assert_array_equal(vf.sigma[4], np.sqrt(vf.cross(4, 4)))

    def test_self_contrast_sd_zero(self):
        vf = _field(_noisy_sample(), np.linspace(0, 1, 50))
        assert np.abs(vf.contrast_sd(7, 7)).max() < 1e-10

    def test_scale_by_two_exact(self):
        s = _noisy_sample()
        s2 = est.Sample(2.0 * s.y, s.x, s.w)
        grid = np.linspace(0, 1, 40)
        vf = _field(s, grid)
        vf2 = _field(s2, grid)
        np.testing.assert_array_equal(vf2.sigma[4], 2.0 * vf.sigma[4])
        # t-statistics of the fit difference are exactly invariant
        plan = MultiplierPlan(n_draws=20)
        stat = sup_t_contrast(vf, plan, [(4, 7)])[0][(4, 7)]
        assert sup_t_contrast(vf2, plan, [(4, 7)])[0][(4, 7)] == pytest.approx(stat, rel=1e-12)

    def test_homoskedastic_oracle(self):
        # inject u == c: sigma^2(x) must equal c^2 sum_i (psi(x)' M)_i^2
        sample = _noisy_sample()
        f = est.fit(sample, NPIV, 4)
        grid = np.linspace(0, 1, 30)
        rows = bs.design_matrix(f.basis, grid) @ _solved_m(sample, NPIV, 4)
        c = 0.7
        backend = est.SieveBackend(sample, NPIV)
        # Seed the backend's fit cache with the fit whose residuals are all c.
        backend._fits[4] = _with_residuals(backend, 4, np.full(sample.n, c))
        vf = est.build_field(backend, grid, 0, (4,))
        oracle = c**2 * np.einsum("gi,gi->g", rows, rows)
        np.testing.assert_allclose(vf.cross(4, 4), oracle, rtol=1e-12)

    def test_zero_residuals_degenerate(self):
        sample = _linear_sample()
        backend = est.SieveBackend(sample, REG)
        # Seed the backend's fit cache with a fit whose residuals are all zero.
        backend._fits[4] = _with_residuals(backend, 4, np.zeros(sample.n))
        with pytest.raises(DegenerateVarianceError):
            est.build_field(backend, np.linspace(0, 1, 20), 0, (4,))

    def test_cross_terms_copy_no_right_factor(self):
        # The inner Grams are sums of products of the fits' own blocks of R o u_hat: building
        # a field over fitted J values and forming the cross terms of every pair allocates
        # less than those blocks hold, so no weighted copy of them is made.
        backend = est.SieveBackend(_noisy_sample(n=3000), NPIV)
        js = (4, 7, 11, 19)
        held = sum(block.nbytes for j in js for block in backend.fit(j).right.blocks)
        tracemalloc.start()
        try:
            vf = est.build_field(backend, np.linspace(0, 1, 20), 0, js)
            vf._fill_cross([(j, j2) for i, j in enumerate(js) for j2 in js[i + 1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(vf._cross) == 10
        assert peak < held, (peak, held)

    def test_shift_invariance(self):
        s = _noisy_sample()
        s_shift = est.Sample(s.y + 5.0, s.x, s.w)
        f = est.fit(s, NPIV, 7)
        f2 = est.fit(s_shift, NPIV, 7)
        scale = np.abs(s.y).max()
        assert np.abs(f.u_hat - f2.u_hat).max() < 1e-10 * scale
        grid = np.linspace(0, 1, 31)
        assert np.abs(est.evaluate(NPIV, f2, grid) - est.evaluate(NPIV, f, grid) - 5.0).max() < 1e-9

    def test_derivative_field(self):
        vf = _field(_noisy_sample(), np.linspace(0, 1, 25), 1)
        assert vf.deriv == (1,)
        assert (vf.sigma[4] > 0).all()
