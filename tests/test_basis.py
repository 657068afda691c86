from itertools import product, takewhile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import comb
from scipy.stats import rankdata

from npivband import basis as bs
from npivband import estimator as est
from npivband.errors import (
    ConfigurationError,
    DegenerateColumnError,
    DomainError,
    InsufficientSampleError,
    InvalidDimensionError,
    UnsupportedDerivativeError,
)


CUBIC = bs.BasisSpec(4, 0)


def _dims(spec, cap):
    """The admissible dimensions of ``spec`` up to ``cap``."""
    return list(takewhile(lambda j: j <= cap, bs.admissible_dimensions(spec)))


class TestDimensionGrid:
    def test_cubic_univariate(self):
        assert _dims(CUBIC, 200) == [4, 5, 7, 11, 19, 35, 67, 131]
        # The one J grid of a fit keeps the dimensions whose widths fit n.
        assert est.candidate_dims(est.npiv_model(CUBIC, None), 200) == _dims(CUBIC, 200)

    def test_haar(self):
        assert _dims(bs.BasisSpec(1, 0), 8) == [1, 2, 4, 8]

    def test_tensor_squares(self):
        # squares of the univariate entries, by the tensor formula
        assert _dims(bs.BasisSpec(4, 0, dim=2), 130) == [16, 25, 49, 121]

    def test_cap_below_minimum_is_error(self):
        # No J fits three observations: the grid is empty and a backend refuses the sample.
        x = np.array([0.1, 0.5, 0.9])
        assert est.candidate_dims(est.npiv_model(CUBIC, None), 3) == []
        with pytest.raises(InsufficientSampleError):
            est.SieveBackend(est.Sample(x, x, x), est.npiv_model(CUBIC, None)).candidate_dims()

    def test_resolution_roundtrip(self):
        for j in _dims(CUBIC, 600):
            level = bs.resolution_for_dimension(CUBIC, j)
            assert (2**level + 3) == j
        with pytest.raises(InvalidDimensionError):
            bs.resolution_for_dimension(CUBIC, 6)


class TestEvalBasis:
    def test_clamped_endpoint(self):
        np.testing.assert_allclose(bs.design_matrix(CUBIC, 0.0)[0], [1, 0, 0, 0], atol=1e-15)

    def test_bernstein_midpoint(self):
        # no interior knots => Bernstein degree-3 values C(3,k) x^k (1-x)^(3-k)
        expected = [comb(3, k) * 0.5**3 for k in range(4)]
        np.testing.assert_allclose(bs.design_matrix(CUBIC, 0.5)[0], expected, atol=1e-15)

    def test_partition_of_unity_random(self):
        rng = np.random.default_rng(0)
        x = rng.random(1000)
        for spec in (CUBIC, bs.BasisSpec(4, 3), bs.BasisSpec(2, 2), bs.BasisSpec(5, 1)):
            sums = bs.design_matrix(spec, x).sum(axis=1)
            assert np.abs(sums - 1).max() < 1e-12

    def test_partition_of_unity_tensor(self):
        rng = np.random.default_rng(1)
        x = rng.random((500, 2))
        sums = bs.design_matrix(bs.BasisSpec(4, 1, dim=2), x).sum(axis=1)
        assert np.abs(sums - 1).max() < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bs.design_matrix(CUBIC, 1.2)
        with pytest.raises(DomainError):
            bs.design_matrix(CUBIC, -0.1)

    def test_at_most_order_nonzero(self):
        spec = bs.BasisSpec(4, 3)
        rng = np.random.default_rng(2)
        mat = bs.design_matrix(spec, rng.random(200))
        assert (np.count_nonzero(mat, axis=1) <= 4).all()

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        mat = bs.design_matrix(bs.BasisSpec(4, 2), rng.random(500))
        assert mat.min() >= 0.0

    def test_continuity_at_knots(self):
        spec = bs.BasisSpec(4, 2)
        for knot in spec.interior_knots[0]:
            left = bs.design_matrix(spec, knot - 1e-11)[0]
            at = bs.design_matrix(spec, knot)[0]
            assert np.abs(left - at).max() < 1e-10


def _loop_basis_1d(knots, order, x):
    """The column-wise Cox-de Boor loop that ``basis._basis_1d`` replaced, kept as its reference."""
    n_pts = x.size
    spans = bs._spans(knots, order, x)
    vals = np.zeros((n_pts, order))
    vals[:, 0] = 1.0
    left = np.zeros((n_pts, order))
    right = np.zeros((n_pts, order))
    for j in range(1, order):
        left[:, j] = x - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - x
        saved = np.zeros(n_pts)
        for k in range(j):
            denom = right[:, k + 1] + left[:, j - k]
            temp = np.where(denom != 0.0, vals[:, k] / np.where(denom == 0.0, 1.0, denom), 0.0)
            vals[:, k] = saved + right[:, k + 1] * temp
            saved = left[:, j - k] * temp
        vals[:, j] = saved
    out = np.zeros((n_pts, knots.size - order))
    cols = spans[:, None] - (order - 1) + np.arange(order)[None, :]
    out[np.arange(n_pts)[:, None], cols] = vals
    return out


def test_basis_1d_equals_the_loop_bit_for_bit():
    # Orders 1-5, levels 0-6, n 1-400, dyadic and quantile knots; half the
    # samples are rounded to 1/64, so points fall on dyadic knots, repeat,
    # and quantile knots sit on data points.
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(400):
        order, level, n = int(rng.integers(1, 6)), int(rng.integers(0, 7)), int(rng.integers(1, 401))
        x = rng.random(n)
        if rng.random() < 0.5:
            x = np.round(x * 64) / 64
        rule = "empirical_quantile" if rng.random() < 0.5 else "uniform_dyadic"
        try:
            spec = bs.make_spec(order, level, knot_rule=rule, data=x)
        except DegenerateColumnError:
            continue
        knots = spec.knots(0)
        np.testing.assert_array_equal(bs._basis_1d(knots, order, x), _loop_basis_1d(knots, order, x))
        checked += 1
    assert checked > 300


def _basis_1d_per_function(knots, order, x):
    """Reference: the Cox-de Boor recursion one basis function at a time."""
    n_pts = x.size
    spans = bs._spans(knots, order, x)
    vals = np.zeros((order, n_pts))
    vals[0] = 1.0
    left = np.empty((order, n_pts))
    right = np.empty((order, n_pts))
    for j in range(1, order):
        left[j] = x - knots[spans + 1 - j]
        right[j] = knots[spans + j] - x
        saved = np.zeros(n_pts)
        for k in range(j):
            denom = right[k + 1] + left[j - k]
            temp = np.divide(vals[k], denom, out=np.zeros(n_pts), where=denom != 0.0)
            vals[k] = saved + right[k + 1] * temp
            saved = left[j - k] * temp
        vals[j] = saved
    out = np.zeros((n_pts, knots.size - order))
    out.ravel()[(np.arange(n_pts) * out.shape[1] + spans - (order - 1))[:, None] + np.arange(order)] = vals.T
    return out


class TestCoxDeBoor:
    def test_degree_at_a_time_equals_per_function_bits(self):
        # 400 random cases: orders 1-6, levels 0-7, dyadic and quantile knots,
        # points drawn at random, at every knot, at 0 and at 1.
        rng = np.random.default_rng(41)
        for case in range(400):
            order, level = int(rng.integers(1, 7)), int(rng.integers(0, 8))
            if case % 2:
                column = rng.beta(0.5 + 2 * rng.random(), 0.5 + 2 * rng.random(), 300)
                knots = (bs.ColumnQuantiles(column).knots(level),)
                spec = bs.BasisSpec(order, level, knot_rule="empirical_quantile", interior_knots=knots)
            else:
                spec = bs.BasisSpec(order, level)
            knots = spec.knots(0)
            x = np.concatenate([rng.random(int(rng.integers(1, 200))), knots, [0.0, 1.0]])
            assert np.array_equal(bs._basis_1d(knots, order, x), _basis_1d_per_function(knots, order, x)), case


def _reference_design(spec, x, deriv):
    """``design_matrix`` as it was built before the spans: each axis's dense basis from the per-function
    recursion (differentiated through ``basis._deriv_matrix``), then C-ordered products, first axis first."""
    pts = bs.as_points(x, spec.dim)

    def axis_basis(knots, order, col, k):
        if k == 0:
            return _basis_1d_per_function(knots, order, col)
        return axis_basis(knots[1:-1], order - 1, col, k - 1) @ bs._deriv_matrix(knots, order)

    out = None
    for axis, k in enumerate(bs.normalize_deriv(spec, deriv)):
        mat = axis_basis(spec.knots(axis), spec.order, pts[:, axis], k)
        out = mat if out is None else (out[:, :, None] * mat[:, None, :]).reshape(pts.shape[0], -1)
    return out


def _span_battery():
    """(spec, points) for orders 1-5, d = 1, 2, 3, dyadic and quantile knots, the quantile knots on
    data rounded to 1/24 so that it ties; the points are that data plus rows on every knot, 0 and 1."""
    rng = np.random.default_rng(29)
    cases = []
    for order in range(1, 6):
        for dim in (1, 2, 3):
            for rule in ("uniform_dyadic", "empirical_quantile"):
                for level in range(0, 4 - dim // 2):
                    data = np.round(rng.random((150, dim)) * 24) / 24
                    try:
                        spec = bs.make_spec(order, level, dim, rule, data=data)
                    except DegenerateColumnError:
                        continue
                    edges = [np.concatenate([spec.knots(axis), [0.0, 1.0]]) for axis in range(dim)]
                    on_knots = np.column_stack([rng.choice(edge, 60) for edge in edges])
                    cases.append((spec, np.concatenate([data, on_knots])))
    return cases


class TestBasisSpans:
    def test_design_matrix_keeps_its_bits(self):
        # Every derivative multi-index up to order - 2 per axis, on the whole battery.
        checked = 0
        for spec, pts in _span_battery():
            top = max(spec.order - 2, 0)
            for deriv in product(range(top + 1), repeat=spec.dim):
                assert np.array_equal(bs.design_matrix(spec, pts, deriv), _reference_design(spec, pts, deriv)), (
                    spec, deriv)
                checked += 1
        assert checked > 250

    def test_spans_scatter_to_the_design(self):
        # Each row keeps order^d values from its first column on; scattered, they are design_matrix's bits.
        kinds = set()
        for spec, pts in _span_battery():
            spans = bs.basis_spans(spec, pts)
            assert spans.values.shape == (pts.shape[0], spec.order**spec.dim) and spans.width == spec.n_funcs
            assert np.array_equal(spans.dense(), bs.design_matrix(spec, pts)), spec
            kinds.add((spec.dim, spec.knot_rule))
        assert len(kinds) == 6


class TestNestedness:
    def test_dyadic_refinement(self):
        grid = np.linspace(0, 1, 2000)
        for level in (0, 1, 2):
            coarse = bs.design_matrix(bs.BasisSpec(4, level), grid)
            fine = bs.design_matrix(bs.BasisSpec(4, level + 1), grid)
            coef, *_ = np.linalg.lstsq(fine, coarse, rcond=None)
            assert np.abs(fine @ coef - coarse).max() < 1e-9


class TestDerivatives:
    def test_zero_order_matches_eval(self):
        rng = np.random.default_rng(4)
        x = rng.random(50)
        spec = bs.BasisSpec(4, 2)
        np.testing.assert_array_equal(bs.design_matrix(spec, x, 0), bs.design_matrix(spec, x))

    def test_bernstein_derivative(self):
        np.testing.assert_allclose(
            bs.design_matrix(CUBIC, 0.5, 1)[0], [-0.75, -0.75, 0.75, 0.75], atol=1e-14
        )

    def test_derivative_sums_to_zero(self):
        rng = np.random.default_rng(5)
        x = rng.random(300)
        sums = bs.design_matrix(bs.BasisSpec(4, 3), x, 1).sum(axis=1)
        assert np.abs(sums).max() < 1e-12

    def test_order_one_is_the_dyadic_cell_indicator(self):
        spec = bs.BasisSpec(1, 2)
        x = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.74, 0.75, 0.99, 1.0])
        cells = [0, 0, 1, 1, 2, 2, 3, 3, 3]
        np.testing.assert_array_equal(bs.design_matrix(spec, x), np.eye(4)[cells])
        np.testing.assert_array_equal(bs.design_matrix(spec, x, 0), bs.design_matrix(spec, x))
        with pytest.raises(UnsupportedDerivativeError):
            bs.design_matrix(spec, 0.5, 1)

    def test_order_too_large(self):
        with pytest.raises(UnsupportedDerivativeError):
            bs.design_matrix(CUBIC, 0.5, 3)
        with pytest.raises(UnsupportedDerivativeError):
            bs.design_matrix(bs.BasisSpec(2, 1), 0.5, 1)

    def test_finite_difference_second_order(self):
        # central difference error is O(h^2): halving h divides the error by ~4
        spec = bs.BasisSpec(4, 2)
        x0 = 0.33  # not a knot
        errs = []
        for h in (1e-3, 5e-4):
            fd = (bs.design_matrix(spec, x0 + h)[0] - bs.design_matrix(spec, x0 - h)[0]) / (2 * h)
            errs.append(np.abs(fd - bs.design_matrix(spec, x0, 1)[0]).max())
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.5

    def test_second_derivative_against_first(self):
        spec = bs.BasisSpec(5, 2)
        x0 = 0.41
        h = 1e-4
        fd = (bs.design_matrix(spec, x0 + h, 1)[0] - bs.design_matrix(spec, x0 - h, 1)[0]) / (2 * h)
        np.testing.assert_allclose(fd, bs.design_matrix(spec, x0, 2)[0], atol=1e-4)


class TestInstrumentDim:
    def test_examples(self):
        ispec = bs.InstrumentSpec(CUBIC, q=2)
        assert bs.instrument_dim(ispec, 4) == 8  # l=0 -> l_w=2 -> 2^2+5-1
        assert bs.instrument_dim(ispec, 7) == 20  # l=2 -> l_w=4 -> 2^4+4

    def test_order_bump_alone(self):
        # q=0 same dimension: K = 2^l + r > J = 2^l + r - 1
        ispec = bs.InstrumentSpec(CUBIC, q=0)
        for j in _dims(CUBIC, 200):
            assert bs.instrument_dim(ispec, j) == j + 1

    def test_monotone_and_dominating(self):
        ispec = bs.InstrumentSpec(CUBIC, q=1)
        ks = [bs.instrument_dim(ispec, j) for j in _dims(CUBIC, 600)]
        assert all(k2 > k1 for k1, k2 in zip(ks, ks[1:]))
        assert all(k >= j for k, j in zip(ks, _dims(CUBIC, 600)))

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimensionError):
            bs.instrument_dim(bs.InstrumentSpec(CUBIC, q=2), 6)


class TestTransforms:
    def test_affine(self):
        out = bs.apply_transform(bs.SupportTransform("affine", lo=0, hi=10), [5.0])
        assert out[0] == 0.5

    def test_affine_requires_ordered_bounds(self):
        with pytest.raises(ConfigurationError):
            bs.SupportTransform("affine", lo=1.0, hi=1.0)

    def test_trade_clamp_truncates(self):
        out = bs.apply_transform(bs.TRADE_CLAMP, [-12.0, -10.0, -5.0, 0.0])
        np.testing.assert_allclose(out, [0.0, 0.0, 0.5, 1.0])

    def test_empirical_cdf_ranks(self):
        np.testing.assert_allclose(
            bs.apply_transform(bs.SupportTransform("empirical_cdf"), [3, 1, 2]),
            [1.0, 1 / 3, 2 / 3],
        )

    def test_empirical_cdf_midranks_for_ties(self):
        out = bs.apply_transform(bs.SupportTransform("empirical_cdf"), [1, 1, 2, 3])
        np.testing.assert_allclose(out, [1.5 / 4, 1.5 / 4, 3 / 4, 1.0])

    def test_constant_column_degenerate(self):
        with pytest.raises(DegenerateColumnError):
            bs.apply_transform(bs.SupportTransform("empirical_cdf"), [2.0, 2.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.one_of(
            st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
            st.lists(st.integers(0, 3), min_size=2, max_size=200),
            st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=2, max_size=40),
        )
    )
    @example([0.0, -0.0, 1.0, -0.0, 0.0])
    def test_ecdf_preserves_order(self, values):
        col = np.asarray(values, dtype=np.float64)
        if col.max() == col.min():
            return
        out = bs.apply_transform(bs.SupportTransform("empirical_cdf"), col)
        assert out.min() > 0.0 and out.max() <= 1.0
        order = np.argsort(col, kind="stable")
        assert (np.diff(out[order]) >= -1e-15).all()
        assert np.array_equal(out, rankdata(col, method="average") / col.size)


class TestQuantileKnots:
    def test_placement(self):
        rng = np.random.default_rng(6)
        data = rng.beta(2, 5, size=2000)
        spec = bs.make_spec(4, 2, knot_rule="empirical_quantile", data=data)
        np.testing.assert_allclose(
            spec.interior_knots[0], np.quantile(data, [0.25, 0.5, 0.75]), rtol=1e-12
        )

    def test_slices_equal_np_quantile_per_level(self):
        # n 1-3000, half the columns rounded to 1/64 so that they tie; every
        # level up to one past the finest the column admits.
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(1, 3001))
            col = rng.beta(2, 5, size=n)
            if rng.random() < 0.5:
                col = np.round(col * 64) / 64
            quantiles = bs.ColumnQuantiles(col)
            for level in range(1, n.bit_length() + 1):
                probs = np.arange(1, 2**level) / 2**level
                expected = np.quantile(col, probs)
                np.testing.assert_array_equal(bs._dyadic_quantiles(col, level), expected)
                strict = expected.min() > 0 and expected.max() < 1 and (np.diff(expected) > 0).all()
                if strict:
                    assert quantiles.knots(level) == tuple(expected)
                else:
                    with pytest.raises(DegenerateColumnError):
                        quantiles.knots(level)

    def test_one_sort_per_column_per_sample(self, monkeypatch):
        calls = []
        original = bs._dyadic_quantiles
        monkeypatch.setattr(bs, "_dyadic_quantiles", lambda col, level: calls.append(level) or original(col, level))
        rng = np.random.default_rng(8)
        x, w = rng.random((400, 2)), rng.random((400, 1))
        sample = est.Sample(np.zeros(400), x, w)
        spec = bs.BasisSpec(3, 0, dim=2, knot_rule="empirical_quantile", interior_knots=((), ()))
        ispec = bs.InstrumentSpec(spec, q=1, dim_w=1, knot_rule="empirical_quantile")
        model = est.npiv_model(spec, ispec)
        bases = [model.design(sample, j)[0] for j in (9, 16, 36)]
        assert calls == [8, 8, 8]  # x1, x2 and w, each once at the finest level: 2^8 <= 400
        bmat = bs.instrument_matrix(ispec, 36, sample)
        assert len(calls) == 3
        w_basis = bs.make_spec(ispec.order, ispec.resolution_for(36), 1, ispec.knot_rule, data=w)
        np.testing.assert_array_equal(bmat, bs.design_matrix(w_basis, w))
        for basis in bases:
            for axis in range(2):
                probs = np.arange(1, 2**basis.resolution) / 2**basis.resolution
                assert basis.interior_knots[axis] == tuple(np.quantile(x[:, axis], probs))

    def test_too_discrete_column(self):
        with pytest.raises(DegenerateColumnError):
            bs.make_spec(4, 3, knot_rule="empirical_quantile", data=np.array([0.2, 0.8] * 10))

    def test_partition_of_unity_holds(self):
        rng = np.random.default_rng(7)
        data = rng.beta(0.5, 3, size=1000)
        spec = bs.make_spec(4, 3, knot_rule="empirical_quantile", data=data)
        sums = bs.design_matrix(spec, rng.random(500)).sum(axis=1)
        assert np.abs(sums - 1).max() < 1e-12


class TestSpecValidation:
    def test_invariants(self):
        spec = bs.BasisSpec(4, 3, dim=2)
        assert spec.dim_per_axis == 2**3 + 3
        assert spec.n_funcs == 11**2
        assert len(spec.interior_knots[0]) == 2**3 - 1

    def test_bad_specs(self):
        with pytest.raises(ConfigurationError):
            bs.BasisSpec(0, 1)
        with pytest.raises(ConfigurationError):
            bs.BasisSpec(4, -1)
        with pytest.raises(ConfigurationError):
            bs.BasisSpec(4, 1, knot_rule="nope")
        with pytest.raises(ConfigurationError):
            bs.BasisSpec(4, 1, interior_knots=((0.2, 0.1),))
        with pytest.raises(ConfigurationError):
            bs.BasisSpec(4, 1, interior_knots=((0.0,),))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 4))
    def test_grid_membership(self, order, resolution):
        spec = bs.BasisSpec(order, resolution)
        j = spec.n_funcs
        assert j in _dims(bs.BasisSpec(order, 0), j)
