"""Dyadic B-spline sieve bases on the unit cube.

A basis is a clamped (open knot vector) B-spline family of order ``r`` at
resolution level ``l``, with the 2^l - 1 interior knots placed either at the
dyadic points 2^-l, ..., 1 - 2^-l or at empirical quantiles of a data column.
The univariate dimension is 2^l + r - 1; multivariate bases are tensor
products with C ordering (last axis fastest), so the admissible dimensions
form the grid {(2^l + r - 1)^d : l = 0, 1, ...}.

Evaluation uses the Cox-de Boor recursion. Values at interior knots are
right-limits; values at x = 1 are left-limits, which makes every evaluation
well defined on the closed cube.

A row of the basis at a point is nonzero only in ``r`` consecutive columns
per axis (de Boor 1978, *A Practical Guide to Splines*). ``basis_spans``
keeps the basis at n points as those spans: each row's first nonzero column
and its ``r``^d values, n r^d numbers in all. ``design_matrix`` scatters the
same recursion's values into the dense n x J matrix, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateColumnError,
    DomainError,
    InvalidDimensionError,
    UnsupportedDerivativeError,
)

KNOT_RULES = ("uniform_dyadic", "empirical_quantile")

TRANSFORM_KINDS = ("affine", "empirical_cdf", "custom_clamp")


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisSpec:
    """A concrete B-spline basis: order, resolution, dimension, knots."""

    order: int
    resolution: int
    dim: int = 1
    knot_rule: str = "uniform_dyadic"
    interior_knots: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ConfigurationError("spline order must be >= 1")
        if self.resolution < 0:
            raise ConfigurationError("resolution level must be >= 0")
        if self.dim < 1:
            raise ConfigurationError("dimension must be >= 1")
        if self.knot_rule not in KNOT_RULES:
            raise ConfigurationError(f"unknown knot rule {self.knot_rule!r}")
        n_interior = 2**self.resolution - 1
        if self.interior_knots is None:
            # Dyadic default; quantile knots must be supplied (see ColumnQuantiles).
            knots = tuple(i / 2**self.resolution for i in range(1, n_interior + 1))
            object.__setattr__(self, "interior_knots", tuple(knots for _ in range(self.dim)))
        else:
            axes = tuple(tuple(float(v) for v in axis) for axis in self.interior_knots)
            if len(axes) != self.dim:
                raise ConfigurationError("interior_knots must supply one tuple per axis")
            for axis in axes:
                if len(axis) != n_interior:
                    raise ConfigurationError(
                        f"resolution {self.resolution} requires {n_interior} interior knots per axis"
                    )
                if any(not 0.0 < v < 1.0 for v in axis):
                    raise ConfigurationError("interior knots must lie strictly inside (0, 1)")
                if any(b <= a for a, b in zip(axis, axis[1:])):
                    raise ConfigurationError("interior knots must be strictly increasing")
            object.__setattr__(self, "interior_knots", axes)

    @property
    def dim_per_axis(self) -> int:
        return 2**self.resolution + self.order - 1

    @property
    def n_funcs(self) -> int:
        return self.dim_per_axis**self.dim

    def knots(self, axis: int = 0) -> np.ndarray:
        """Full clamped knot vector for one axis."""
        inner = np.asarray(self.interior_knots[axis], dtype=np.float64)
        return np.concatenate([np.zeros(self.order), inner, np.ones(self.order)])


def _dyadic_quantiles(column: np.ndarray, level: int) -> np.ndarray:
    """``np.quantile(column, [i / 2^level for i = 1, ..., 2^level - 1])``, bit for bit, from one sort.

    NumPy's default (linear) method: with k + g = (n - 1) p, k an integer and
    0 <= g < 1, the quantile at p lies between the order statistics a = s[k]
    and b = s[k+1], formed as a + (b - a) g, or b - (b - a)(1 - g) when
    g >= 0.5, as NumPy forms it. One sort serves every probability, while
    np.quantile's partition slows sharply once the probabilities number about
    n/2: at n = 1522 its 1023 of level 10 take 3 ms against 0.1 ms at level 4.
    """
    ordered = np.sort(column)
    index = (ordered.size - 1) * (np.arange(1, 2**level) / 2**level)
    lo = np.floor(index)
    gamma = index - lo
    a = ordered[lo.astype(np.intp)]
    b = ordered[np.minimum(lo.astype(np.intp) + 1, ordered.size - 1)]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


class ColumnQuantiles:
    """One data column's quantile knots at every resolution level.

    The dyadic probabilities i/2^l of level l are every 2^(L-l)-th of those of
    a finer level L, so the quantiles at the finest level the column admits
    (2^L <= n: a basis needs at least 2^l functions per axis, and no more
    than n can be fitted) serve every level up to L by slicing. They are
    formed on the first request; a finer level replaces them.
    """

    def __init__(self, column: np.ndarray):
        self.column = np.asarray(column, dtype=np.float64).ravel()
        if self.column.size == 0:
            raise ConfigurationError("cannot place quantile knots on an empty column")
        self._finest: tuple[int, np.ndarray] | None = None

    def knots(self, resolution: int) -> tuple[float, ...]:
        """Interior knots at the empirical quantiles i/2^l, i = 1, ..., 2^l - 1."""
        if resolution == 0:
            return ()
        if self._finest is None or self._finest[0] < resolution:
            level = max(resolution, self.column.size.bit_length() - 1)
            self._finest = (level, _dyadic_quantiles(self.column, level))
        level, finest = self._finest
        step = 2 ** (level - resolution)
        knots = finest[step - 1 :: step]
        if np.any(knots <= 0.0) or np.any(knots >= 1.0) or np.any(np.diff(knots) <= 0.0):
            raise DegenerateColumnError(
                "empirical quantile knots are not strictly increasing inside (0, 1); "
                "the column is too discrete for this resolution"
            )
        return tuple(float(v) for v in knots)


def make_spec(
    order: int,
    resolution: int,
    dim: int = 1,
    knot_rule: str = "uniform_dyadic",
    data=None,
) -> BasisSpec:
    """Build a BasisSpec, computing quantile knots from ``data`` when needed.

    ``data`` is an (n, dim) point array or one ``ColumnQuantiles`` per axis,
    which keeps each column's quantiles for the next level.
    """
    if knot_rule == "empirical_quantile":
        if data is None:
            raise ConfigurationError("empirical_quantile knots require data")
        if not (isinstance(data, tuple) and all(isinstance(c, ColumnQuantiles) for c in data)):
            data = tuple(ColumnQuantiles(col) for col in as_points(data, dim).T)
        if len(data) != dim:
            raise ConfigurationError(f"quantile knots need one column per axis, got {len(data)} for {dim}")
        return BasisSpec(order, resolution, dim, knot_rule, tuple(c.knots(resolution) for c in data))
    return BasisSpec(order, resolution, dim, knot_rule)


# ---------------------------------------------------------------------------
# Dimension grid and the J -> K(J) map
# ---------------------------------------------------------------------------


def admissible_dimensions(spec: BasisSpec):
    """The admissible sieve dimensions (2^l + r - 1)^d for l = 0, 1, ..., without end."""
    level = 0
    while True:
        yield (2**level + spec.order - 1) ** spec.dim
        level += 1


def next_dimension(spec: BasisSpec, j: int) -> int:
    """The admissible dimension one resolution level above ``j``."""
    level = resolution_for_dimension(spec, j)
    return (2 ** (level + 1) + spec.order - 1) ** spec.dim


def resolution_for_dimension(spec: BasisSpec, j: int) -> int:
    """Resolution level l with (2^l + r - 1)^d == j, or raise."""
    per_axis = round(j ** (1.0 / spec.dim))
    if per_axis**spec.dim != j:
        raise InvalidDimensionError(f"J={j} is not an admissible dimension for d={spec.dim}")
    pow2 = per_axis - spec.order + 1
    if pow2 < 1 or pow2 & (pow2 - 1):
        raise InvalidDimensionError(f"J={j} is not of the form (2^l + {spec.order} - 1)^{spec.dim}")
    return pow2.bit_length() - 1


def spec_for_dimension(spec: BasisSpec, j: int, data=None) -> BasisSpec:
    """Re-resolve a spec template at sieve dimension ``j``."""
    level = resolution_for_dimension(spec, j)
    return make_spec(spec.order, level, spec.dim, spec.knot_rule, data=data)


@dataclass(frozen=True)
class InstrumentSpec:
    """Instrument-side basis family, one order higher than the regressor basis.

    The resolution for the instrument basis at sieve dimension J with
    regressor resolution l is ``l_w = ceil((l + q) d / d_w)``, which pins the
    instrument dimension ``K(J) = (2^{l_w} + r_w - 1)^{d_w}`` with
    ``r_w = r + 1``.
    """

    x_spec: BasisSpec
    q: int = 2
    dim_w: int = 1
    knot_rule: str = "uniform_dyadic"

    def __post_init__(self) -> None:
        if self.q < 0:
            raise ConfigurationError("resolution offset q must be >= 0")
        if self.dim_w < 1:
            raise ConfigurationError("instrument dimension must be >= 1")
        if self.knot_rule not in KNOT_RULES:
            raise ConfigurationError(f"unknown knot rule {self.knot_rule!r}")

    @property
    def order(self) -> int:
        return self.x_spec.order + 1

    def resolution_for(self, j: int) -> int:
        level = resolution_for_dimension(self.x_spec, j)
        num = (level + self.q) * self.x_spec.dim
        return -(-num // self.dim_w)


def instrument_dim(ispec: InstrumentSpec, j: int) -> int:
    """The instrument dimension K(J); always at least J."""
    level_w = ispec.resolution_for(j)
    k = (2**level_w + ispec.order - 1) ** ispec.dim_w
    if k < j:
        raise InvalidDimensionError(
            f"K(J)={k} < J={j}; increase the resolution offset q to restore K >= J"
        )
    return k


def instrument_matrix(ispec: InstrumentSpec | None, j: int, sample) -> np.ndarray | None:
    """The instruments b^{K(J)}(w) of an ``estimator.Sample`` at sieve dimension ``j``.

    None (series regression) when ispec is None. Quantile knots come from the sample's ``w_quantiles``.
    """
    if ispec is None:
        return None
    level = ispec.resolution_for(j)
    w_basis = make_spec(ispec.order, level, ispec.dim_w, ispec.knot_rule, data=sample.w_quantiles)
    return design_matrix(w_basis, sample.w)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def as_points(x, dim: int) -> np.ndarray:
    """Normalize points to an (n, dim) float array inside [0, 1]^dim."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        if dim != 1:
            raise DomainError(f"scalar point given for a {dim}-dimensional basis")
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        # A flat vector is n points in 1-d, or a single point in d dimensions.
        arr = arr.reshape(-1, 1) if dim == 1 else arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DomainError(f"points must have {dim} coordinates")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise DomainError("evaluation points must lie in the unit cube [0, 1]^d")
    if not np.all(np.isfinite(arr)):
        raise DomainError("evaluation points must be finite")
    return arr


def _spans(knots: np.ndarray, order: int, x: np.ndarray) -> np.ndarray:
    # Right-continuous span lookup, clamped to the last nonempty span so that
    # x = 1 evaluates as a left-limit.
    idx = np.searchsorted(knots, x, side="right") - 1
    return np.clip(idx, order - 1, knots.size - order - 1)


@dataclass(frozen=True, eq=False)
class BasisSpans:
    """A B-spline basis at n points kept as its spans: each row's nonzero columns and their values.

    Row i of the n x ``width`` matrix is nonzero only in the columns
    ``first[i] + offsets``, where it holds ``values[i]``; ``offsets``
    ascends from 0 and is the same for every row, so the spans take
    ``order``^d values per row rather than ``width``. A value inside a span
    may still be zero (at a knot).
    """

    first: np.ndarray
    offsets: np.ndarray
    values: np.ndarray
    width: int

    def dense(self) -> np.ndarray:
        """The n x width matrix, the spans scattered into zeros."""
        out = np.zeros((self.first.size, self.width))
        out.ravel()[(np.arange(self.first.size) * self.width + self.first)[:, None] + self.offsets] = self.values
        return out


def _spans_1d(knots: np.ndarray, order: int, x: np.ndarray) -> BasisSpans:
    """Cox-de Boor evaluation of the ``order`` basis functions that are nonzero at each 1-d point.

    Degree j fills rows 0..j of the order x n table at once: with
    temp_k = vals_k / (right_{k+1} + left_{j-k}) (0 where that sum is 0), the
    new row k is left_{j-k+1} temp_{k-1} + right_{k+1} temp_k, the first term
    0 at k = 0 and the second absent at k = j. These are the per-function
    recursion's operations in its order, so the values are the same bits.
    """
    n_pts = x.size
    spans = _spans(knots, order, x)
    # One contiguous row per order; row 0 of left and right is never read.
    vals = np.zeros((order, n_pts))
    vals[0] = 1.0
    left = np.empty((order, n_pts))
    right = np.empty((order, n_pts))
    for j in range(1, order):
        left[j] = x - knots[spans + 1 - j]
        right[j] = knots[spans + j] - x
        denom = right[1 : j + 1] + left[j:0:-1]
        temp = np.divide(vals[:j], denom, out=np.zeros((j, n_pts)), where=denom != 0.0)
        vals[1 : j + 1] = left[j:0:-1] * temp
        vals[0] = 0.0
        vals[:j] += right[1 : j + 1] * temp
    return BasisSpans(spans - (order - 1), np.arange(order), vals.T, knots.size - order)


def _basis_1d(knots: np.ndarray, order: int, x: np.ndarray) -> np.ndarray:
    """All basis functions at 1-d points: the spans of ``_spans_1d`` scattered into an n x J matrix."""
    return _spans_1d(knots, order, x).dense()


def _deriv_matrix(knots: np.ndarray, order: int) -> np.ndarray:
    # Coefficient map for differentiation: d/dx sum_j c_j B_{j,r} =
    # sum_i (Dc)_i B_{i,r-1} on the trimmed knot vector knots[1:-1].
    n_funcs = knots.size - order
    d = np.zeros((n_funcs - 1, n_funcs))
    for i in range(n_funcs - 1):
        gap = knots[i + order] - knots[i + 1]
        if gap > 0.0:
            d[i, i] = -(order - 1) / gap
            d[i, i + 1] = (order - 1) / gap
    return d


def _basis_deriv_1d(knots: np.ndarray, order: int, x: np.ndarray, k: int) -> np.ndarray:
    if k == 0:
        return _basis_1d(knots, order, x)
    d = _deriv_matrix(knots, order)
    lower = _basis_deriv_1d(knots[1:-1], order - 1, x, k - 1)
    return lower @ d


def multi_index(deriv, dim: int) -> tuple[int, ...]:
    """A derivative order as a multi-index on ``dim`` axes; None or 0 means none."""
    if deriv is None or (np.isscalar(deriv) and int(deriv) == 0):
        return (0,) * dim
    if np.isscalar(deriv):
        if dim != 1:
            raise UnsupportedDerivativeError("multi-index required for a multivariate function")
        return (int(deriv),)
    multi = tuple(int(v) for v in deriv)
    if len(multi) != dim:
        raise UnsupportedDerivativeError(f"multi-index must have {dim} entries")
    return multi


def normalize_deriv(spec: BasisSpec, deriv) -> tuple[int, ...]:
    """``multi_index`` of ``deriv``, checked against the order of the spline."""
    multi = multi_index(deriv, spec.dim)
    for a_i in multi:
        if a_i < 0:
            raise UnsupportedDerivativeError("derivative orders must be nonnegative")
        if a_i > max(spec.order - 2, 0):
            raise UnsupportedDerivativeError(
                f"derivative order {a_i} exceeds the C^{spec.order - 2} smoothness of an "
                f"order-{spec.order} spline"
            )
    return multi


def design_matrix(spec: BasisSpec, x, deriv=None) -> np.ndarray:
    """Evaluate the (possibly differentiated) basis at points; shape (n, J)."""
    pts = as_points(x, spec.dim)
    multi = normalize_deriv(spec, deriv)
    out = _basis_deriv_1d(spec.knots(0), spec.order, pts[:, 0], multi[0])
    for axis in range(1, spec.dim):
        mat = _basis_deriv_1d(spec.knots(axis), spec.order, pts[:, axis], multi[axis])
        out = (out[:, :, None] * mat[:, None, :]).reshape(pts.shape[0], -1)
    return out


def basis_spans(spec: BasisSpec, x) -> BasisSpans:
    """The spans of the basis at points: row i of ``design_matrix(spec, x)`` is ``values[i]`` at its span, else 0.

    A tensor row's nonzero columns are the C-ordered products of the axes'
    spans, and its values are formed in ``design_matrix``'s order (first
    axis times second, times third, ...), so they are the same bits.
    """
    pts = as_points(x, spec.dim)
    out = _spans_1d(spec.knots(0), spec.order, pts[:, 0])
    for axis in range(1, spec.dim):
        nxt = _spans_1d(spec.knots(axis), spec.order, pts[:, axis])
        out = BasisSpans(
            out.first * nxt.width + nxt.first,
            (out.offsets[:, None] * nxt.width + nxt.offsets[None, :]).ravel(),
            (out.values[:, :, None] * nxt.values[:, None, :]).reshape(pts.shape[0], -1),
            out.width * nxt.width,
        )
    return out


def basis_integrals(spec: BasisSpec) -> np.ndarray:
    """Exact integrals of each univariate basis function over [0, 1].

    For a clamped order-r basis, int B_{j,r} = (t_{j+r} - t_j) / r.
    """
    if spec.dim != 1:
        raise ConfigurationError("analytic integrals are provided for univariate bases")
    knots = spec.knots(0)
    r = spec.order
    n_funcs = knots.size - r
    return (knots[r : r + n_funcs] - knots[:n_funcs]) / r


# ---------------------------------------------------------------------------
# Support transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportTransform:
    """Maps a raw data column monotonically into [0, 1]."""

    kind: str
    lo: float = 0.0
    hi: float = 1.0
    shift: float = 1.0
    scale: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in TRANSFORM_KINDS:
            raise ConfigurationError(f"unknown transform kind {self.kind!r}")
        if self.kind == "affine" and not self.lo < self.hi:
            raise ConfigurationError("affine transform requires lo < hi")
        if self.kind == "custom_clamp" and self.scale <= 0.0:
            raise ConfigurationError("custom_clamp requires a positive scale")


#: The trade-application rule x = max{0, x/10 + 1}, truncating values below -10.
TRADE_CLAMP = SupportTransform("custom_clamp", shift=1.0, scale=10.0)


def apply_transform(transform: SupportTransform, column) -> np.ndarray:
    """Apply a support transform to one column; output lies in [0, 1]."""
    col = np.asarray(column, dtype=np.float64).ravel()
    if col.size == 0:
        raise ConfigurationError("cannot transform an empty column")
    if not np.all(np.isfinite(col)):
        raise DegenerateColumnError("column contains non-finite values")
    if transform.kind == "affine":
        return np.clip((col - transform.lo) / (transform.hi - transform.lo), 0.0, 1.0)
    if transform.kind == "custom_clamp":
        return np.clip(col / transform.scale + transform.shift, 0.0, 1.0)
    # empirical_cdf: rank / n with midranks for ties
    if col.max() == col.min():
        raise DegenerateColumnError("empirical CDF of a constant column is degenerate")
    return _midranks(col) / col.size


def _midranks(col: np.ndarray) -> np.ndarray:
    """1-based ranks of ``col``, each tie group sharing the mean of its ranks.

    A tie group occupies sorted positions start..end-1, so its ranks are
    start+1..end and their mean is (start + 1 + end) / 2, a half-integer
    that float64 holds exactly.
    """
    order = np.argsort(col, kind="stable")
    ordered = col[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], col.size)
    ranks = np.empty(col.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks
