"""Sieve TSLS fits, pointwise evaluation, and sieve variance fields.

The fit at dimension J regresses Y on the basis psi^J(X) by two-stage least
squares using b^{K(J)}(W) as instruments. With M_J = (Psi' P_K Psi)^- Psi' P_K
this gives coefficients coef = M_J Y, residuals u_hat, and the reduced-rank
singular value s_hat of the orthogonalized cross matrix, which proxies the
inverse measure of ill-posedness. When no instrument spec is given the fit is
plain series least squares (M_J = (Psi'Psi)^- Psi'), the exogenous special
case. ``TslsGrams`` factors each Gram once, by Cholesky or, when it has a
near-null direction, by its eigenpairs (see ``_linalg``); it gives s_hat
from the factors alone and the fit only when asked.

M_J factors as M_J = L R': the p x p matrix L, which is G^- = (Psi'Psi)^-
for series regression and A^- = (Psi'P_K Psi)^- for TSLS, and the n x p
matrix R, which is the design Psi for series regression and the first-stage
fitted design P_K Psi for TSLS. The residuals enter the variance and the
bootstrap only through the weights W_J = M_J diag(u_hat) = L (R o u_hat)',
so a fit keeps L and R o u_hat, the latter formed once, in place in R's
blocks.

Every design is a ``WindowedRows``: blocks over runs of fixed chunks of
``OBS_ROWS`` observations, each holding a window of the matrix's columns.
A B-spline series regression (``npiv_model`` without instruments, any
dimension) gives its design as the basis's spans (``basis.basis_spans``:
each row's first nonzero column and its ``order``^d values), and
``WindowedRows.of_spans`` scatters each chunk's spans straight into its
window, so no n x p array exists. A B-spline row has only ``order``
nonzeros per axis, so once the observations are ordered by x each window
is narrow; the projections (R o u)' Omega' and the inner Grams of the cross
terms, sums over the blocks, then cost the window's width rather than p
per observation, and a variance field takes its grid rows through L once.
Every other design (TSLS, the additive and partially linear models) is one
block over every row and column, ``WindowedRows.whole`` of the dense
matrix, the same single block in any row order. ``TslsGrams`` forms
Psi'Psi, B'Psi, Psi'y and the residuals from the blocks, by the same block
products for either kind, and ``fit`` weights R by u_hat in place.

A ``SieveModel`` describes a model: its design and instruments at J, their
widths at J, and the selector rows of the function it reports. One ``fit``
serves every model: it checks the widths, builds the design and runs the one
TSLS core (``fit_grams``, then ``TslsGrams.solve``) into a ``SieveFit``, which
keeps the two factors of W_J, the coefficients and the residuals but not the
design or the instruments. ``candidate_dims`` is every model's one J grid: the
admissible dimensions whose widths fit the sample. The shared ``SieveBackend``
fits a span-built model (``SieveModel.span_built``) on its observations
ordered by x (a stable lexicographic sort, first column first) and every
other model on the given sample as it is; it caches fits per J, and the
Grams of a J asked only for its s_hat until ``drop_grams``. ``evaluate`` and
the ``VarianceField`` of ``build_field`` read every reported function through
its selector rows, the field one chunk of ``GRID_ROWS`` grid points at a time.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import takewhile
from typing import Callable

import numpy as np

from . import basis as bs
from ._linalg import factor_gram
from .errors import DegenerateVarianceError, InsufficientSampleError, InvalidDimensionError

#: sigma(x) below this fraction of the field's largest sigma is degenerate.
VARIANCE_FLOOR = 1e-12

#: A contrast variance at most this fraction of sigma_J^2 + sigma_J2^2 is recomputed from score differences.
CONTRAST_CANCELLATION = 0.1

#: Grid rows per chunk of every grid-wide product: the cross terms, the single sups and the contrast sweep.
GRID_ROWS = 256

#: Observations per chunk of every n-wide product: the fits' right factors, the projections and the cross terms.
OBS_ROWS = 256

#: Grid rows per block of n-wide score-difference rows.
_DIFF_ROWS = 64


def _chunks(size: int, rows: int) -> list[slice]:
    return [slice(lo, min(lo + rows, size)) for lo in range(0, size, rows)]


def grid_chunks(g: int) -> list[slice]:
    """The fixed chunks of ``GRID_ROWS`` rows of a G-point grid, over which every grid-wide product is taken."""
    return _chunks(g, GRID_ROWS)


@dataclass(frozen=True, eq=False)
class Sample:
    """Observations (Y, X, W) with X and W already mapped into unit cubes."""

    y: np.ndarray
    x: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.float64).ravel()
        x = _as_matrix(self.x)
        w = _as_matrix(self.w)
        if y.size == 0:
            raise ValueError("sample is empty")
        if x.shape[0] != y.size or w.shape[0] != y.size:
            raise ValueError("y, x, w must have the same number of rows")
        for name, arr in (("y", y), ("x", x), ("w", w)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains NaN or Inf")
        for name, arr in (("x", x), ("w", w)):
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise ValueError(f"{name} must lie in the unit cube; apply a support transform")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.y.size

    @cached_property
    def x_quantiles(self) -> tuple[bs.ColumnQuantiles, ...]:
        """One ``basis.ColumnQuantiles`` per column of x, from which every J's quantile knots are read."""
        return tuple(bs.ColumnQuantiles(col) for col in self.x.T)

    @cached_property
    def w_quantiles(self) -> tuple[bs.ColumnQuantiles, ...]:
        """One ``basis.ColumnQuantiles`` per column of w, from which every J's quantile knots are read."""
        return tuple(bs.ColumnQuantiles(col) for col in self.w.T)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def dim_w(self) -> int:
        return self.w.shape[1]


def _as_matrix(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError("data arrays must be 1- or 2-dimensional")
    return arr


def _runs(chunks: list[slice], windows: list[slice]) -> tuple[list[slice], list[slice]]:
    """The chunks and their windows with each run of consecutive chunks whose windows agree joined into one."""
    runs, joined = [], []
    for chunk, window in zip(chunks, windows):
        if joined and window == joined[-1]:
            runs[-1] = slice(runs[-1].start, chunk.stop)
        else:
            runs.append(chunk)
            joined.append(window)
    return runs, joined


@dataclass(frozen=True, eq=False)
class WindowedRows:
    """An n x p matrix kept as blocks over runs of its fixed chunks of ``OBS_ROWS`` rows.

    Block c holds the rows ``runs[c]`` and the columns ``windows[c]``; every
    entry outside the windows is zero. Only B-spline spans give windows
    narrower than the matrix: ``of_spans`` takes each chunk's first and last
    span column, and joins consecutive chunks whose windows agree into one
    run. ``whole`` wraps a dense matrix as one block. A fit's blocks are
    read-only. Iterating gives ``(run, window, block)`` triples.
    """

    runs: tuple[slice, ...]
    windows: tuple[slice, ...]
    blocks: tuple[np.ndarray, ...]
    width: int

    @classmethod
    def whole(cls, matrix: np.ndarray) -> WindowedRows:
        """The dense n x p ``matrix`` as one block over every row and column; the block is ``matrix`` itself."""
        n, p = matrix.shape
        return cls((slice(0, n),), (slice(0, p),), (matrix,), p)

    @classmethod
    def of_spans(cls, spans: bs.BasisSpans) -> WindowedRows:
        """The B-spline design that ``spans`` gives, unweighted, in blocks built straight from the spans.

        A chunk's window runs from its rows' first span column to their last,
        so it holds the chunk's nonzero window, and more where a span value
        is zero (at a knot). The blocks are consecutive pieces of one buffer,
        filled by one scatter of the spans, so no n x p array is formed and
        the fit's right factor is one allocation rather than one per block;
        they stay writable for ``weight``.
        """
        n = spans.first.size
        chunks = _chunks(n, OBS_ROWS)
        starts = [chunk.start for chunk in chunks]
        lo = np.minimum.reduceat(spans.first, starts).tolist()
        hi = (np.maximum.reduceat(spans.first, starts) + spans.offsets[-1] + 1).tolist()
        runs, windows = _runs(chunks, [slice(a, b) for a, b in zip(lo, hi)])
        rows = [run.stop - run.start for run in runs]
        widths = [window.stop - window.start for window in windows]
        ends = np.cumsum([r * w for r, w in zip(rows, widths)]).tolist()
        # Row i of run c starts at ends[c] - (run.stop - i) * width_c; its spans sit first[i] - window.start on.
        row_shift = np.repeat([end - run.stop * w - window.start for end, w, run, window
                               in zip(ends, widths, runs, windows)], rows)
        buffer = np.zeros(ends[-1])
        buffer[(row_shift + np.arange(n) * np.repeat(widths, rows) + spans.first)[:, None] + spans.offsets] = spans.values
        blocks = [buffer[end - r * w:end].reshape(r, w) for end, r, w in zip(ends, rows, widths)]
        return cls(tuple(runs), tuple(windows), tuple(blocks), spans.width)

    def weight(self, u: np.ndarray) -> WindowedRows:
        """diag(u) times these rows, formed in place in the blocks, which become read-only; returns self."""
        for run, _, block in self:
            block *= u[run, None]
            block.flags.writeable = False
        return self

    def transpose_dot(self, y: np.ndarray) -> np.ndarray:
        """The p-vector of the matrix transposed times ``y``."""
        out = np.zeros(self.width)
        for run, window, block in self:
            out[window] += block.T @ y[run]
        return out

    def dot(self, coef: np.ndarray) -> np.ndarray:
        """The n-vector of the matrix times ``coef``."""
        out = np.empty(self.n)
        for run, window, block in self:
            np.matmul(block, coef[window], out=out[run])
        return out

    def __iter__(self):
        return zip(self.runs, self.windows, self.blocks)

    def inner(self, other: WindowedRows) -> np.ndarray:
        """The p x p2 product of this matrix transposed and ``other``, of the same n, as a sum of block products.

        Over each stretch of rows where one block of each is current, it adds
        the product of the two blocks cut to those rows.
        """
        out = np.zeros((self.width, other.width))
        i = k = 0
        while i < len(self.runs) and k < len(other.runs):
            run, run2 = self.runs[i], other.runs[k]
            lo, hi = max(run.start, run2.start), min(run.stop, run2.stop)
            out[self.windows[i], other.windows[k]] += (self.blocks[i][lo - run.start:hi - run.start].T
                                                       @ other.blocks[k][lo - run2.start:hi - run2.start])
            i += run.stop == hi
            k += run2.stop == hi
        return out

    @property
    def n(self) -> int:
        return self.runs[-1].stop

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.width

    def dense(self) -> np.ndarray:
        """The n x p matrix."""
        out = np.zeros((self.n, self.width))
        for chunk, window, block in self:
            out[chunk, window] = block
        return out


@dataclass(frozen=True, eq=False)
class SieveFit:
    """One sieve TSLS fit at dimension J, for any model.

    ``basis`` is the state the model's selector reads (a ``BasisSpec``, or
    the additive model's per-axis ``(basis, integrals)`` pairs). The rest is
    the output of ``TslsGrams.solve``; the design and instruments are not
    kept. The bootstrap weights W = M diag(u_hat) are kept as their two
    factors, W = ``left`` ``right``' (see the module docstring): ``right`` is
    R o u_hat, the fit's one residual-weighted array. Every array is in the
    row order of the observations the fit was made on. The fit owns, per
    ``MultiplierPlan``, its projection right' Omega' in ``projections`` (so
    that W Omega' = left times it) and, keyed weakly by the fit of the same
    or a higher J, the inner Gram sum_c right_c' right2_c of their cross terms
    in ``inner_grams``. Every variance field on the fit reads these, so they
    live as long as the fit, and a copy made with ``dataclasses.replace``
    starts without them.
    """

    j: int
    basis: object
    left: np.ndarray
    right: WindowedRows
    coef: np.ndarray
    u_hat: np.ndarray
    s_hat: float
    flags: tuple[str, ...] = ()
    projections: dict = field(init=False, default_factory=dict, compare=False, repr=False)
    inner_grams: weakref.WeakKeyDictionary = field(
        init=False, default_factory=weakref.WeakKeyDictionary, compare=False, repr=False
    )

    def score_rows(self, rows: np.ndarray) -> np.ndarray:
        """The k x n score rows ``rows`` right' of k x p rows already taken through ``left``, block by block."""
        out = np.empty((rows.shape[0], self.right.n))
        for run, window, block in self.right:
            np.matmul(rows[:, window], block.T, out=out[:, run])
        return out


class TslsGrams:
    """The factored Grams of one sieve TSLS problem: s_hat on construction, the fit on ``solve``.

    The design is a ``WindowedRows`` and the instruments a dense n x K array
    (None for series regression). Psi'Psi = ``design.inner(design)`` and,
    with instruments, B'B are formed and factored once by ``factor_gram``,
    and B'Psi is ``WindowedRows.whole(bmat).inner(design)``. s_hat is the
    smallest singular value of R_B^{-1} (B'Psi) R_Psi^{-T} for the Grams'
    square roots R, since any roots give the same singular values; with a
    rank-deficient Gram it is taken on the reduced rank space and flagged.
    Series regression is its own instrument, so its whitened Gram is the
    identity on the Gram's retained rank and s_hat = 1 exactly. ``solve``
    forms the normal matrix Psi'P_K Psi from the same Grams, so a J asked
    only for its s_hat never forms the fit's factors. Its R is the design's
    own blocks for series regression, which ``fit`` weights in place, so
    such Grams serve one fit.
    """

    def __init__(self, design: WindowedRows, bmat: np.ndarray | None):
        n, j = design.shape
        self.design, self.bmat = design, bmat
        self.gram_p = factor_gram(design.inner(design), max(n, j))
        self.flags = []
        self.reduced = self.gram_p.rank < j
        if bmat is None:
            self.s_hat = 1.0
            return
        k = bmat.shape[1]
        gram_b = factor_gram(bmat.T @ bmat, max(n, k))
        self.cross = WindowedRows.whole(bmat).inner(design)
        self.proj = gram_b.solve(self.cross)
        if gram_b.rank < k:
            self.flags.append("instrument_gram_rank_deficient")
            self.reduced = True
        sv = np.linalg.svd(self.gram_p.whiten_right(gram_b.whiten(self.cross, self.proj)), compute_uv=False)
        rank_s = min(gram_b.rank, self.gram_p.rank, sv.size)
        self.s_hat = float(min(sv[rank_s - 1], 1.0)) if rank_s else 0.0

    def solve(self, y: np.ndarray):
        """The fit of ``y``: ``(left, right, coef, u_hat, s_hat, flags)`` with M = left right'.

        left is G^- and right the design's own ``WindowedRows`` for series
        regression; left is A^- for A = Psi'P_K Psi and right P_K Psi, one
        block, for TSLS. Neither is weighted by the residuals. coef =
        left (right' y), solved against the Gram rather than multiplied by
        its explicit inverse, which keeps u_hat, its residuals, accurate to
        the Gram's conditioning.
        """
        design, bmat = self.design, self.bmat
        n, j = design.shape
        if bmat is None:
            gram, rmat = self.gram_p, design
        else:
            gram, rmat = factor_gram(self.cross.T @ self.proj, max(n, j)), WindowedRows.whole(bmat @ self.proj)
        flags = list(self.flags)
        if gram.rank < j:
            flags.append("design_rank_deficient")
        if self.reduced:
            flags.append("shat_reduced_rank")
        left = gram.inverse()
        left.flags.writeable = False
        coef = gram.solve(rmat.transpose_dot(y))
        return left, rmat, coef, y - design.dot(coef), self.s_hat, tuple(flags)


def fit_grams(sample: Sample, model: SieveModel, j: int) -> tuple[object, TslsGrams]:
    """The model's basis state at dimension ``j`` and its factored TSLS Grams.

    The widths are checked before any basis is built: instruments narrower
    than the design cannot identify it, and neither width may exceed n.
    """
    width, k = model.widths(j)
    if k < width:
        raise InvalidDimensionError(f"K(J)={k} is below the design width {width} at J={j}; increase q")
    if max(width, k) > sample.n:
        raise InsufficientSampleError(f"K(J)={k} or width {width} at J={j} exceeds the sample size n={sample.n}")
    basis, design, bmat = model.design(sample, j)
    return basis, TslsGrams(design, bmat)


def fit(sample: Sample, model: SieveModel, j: int, grams: tuple[object, TslsGrams] | None = None) -> SieveFit:
    """The model's sieve TSLS fit at dimension ``j``; series regression when it has no instruments.

    ``grams`` passes ``fit_grams(sample, model, j)`` when they were already
    formed for s_hat alone. The fit's right factor is the solved R times
    u_hat, formed in place in R's blocks.
    """
    basis, grams = grams or fit_grams(sample, model, j)
    left, rmat, coef, u_hat, s_hat, flags = grams.solve(sample.y)
    return SieveFit(j=j, basis=basis, left=left, right=rmat.weight(u_hat), coef=coef, u_hat=u_hat,
                    s_hat=s_hat, flags=flags)


def evaluate(model: SieveModel, fit_: SieveFit, pts, deriv=0) -> np.ndarray:
    """The model's reported function (or its derivative ``deriv``) of the fit at points ``pts``."""
    rows, sl = model.selector(
        fit_.basis, bs.as_points(pts, model.grid_dim), bs.multi_index(deriv, model.grid_dim)
    )
    return rows @ fit_.coef[sl]


def sieve_rows(basis: bs.BasisSpec, pts, deriv):
    """Selector of a function that is the leading block psi^J(x)' coef[:J] of the coefficients."""
    return bs.design_matrix(basis, pts, deriv), slice(0, basis.n_funcs)


def _forms(fit: SieveFit, rows: np.ndarray, fit2: SieveFit, rows2: np.ndarray) -> np.ndarray:
    """The row-wise quadratic forms of ``rows`` and ``rows2`` in the two fits' inner Gram, clipped at 0 for one fit.

    The Gram (``WindowedRows.inner`` of the right factors as stored) depends on the fits alone, so the first
    field to form it keeps it in ``fit.inner_grams`` for every field; the forms take ``GRID_ROWS`` rows at a time.
    """
    if fit2 not in fit.inner_grams:
        fit.inner_grams[fit2] = fit.right.inner(fit2.right)
    gram, out = fit.inner_grams[fit2], np.empty(rows.shape[0])
    for chunk in grid_chunks(out.size):
        np.einsum("gp,gp->g", rows[chunk] @ gram, rows2[chunk], out=out[chunk])
    return np.maximum(out, 0.0, out=out) if fit is fit2 else out


@dataclass(eq=False)
class VarianceField:
    """Sieve variance machinery for the fits of one backend on one grid, factored through the sieve.

    Per J: the fit, the estimate on the grid, and ``rows``, the G x p
    selector rows d^a psi^J(x)' taken through the rows of the fit's left
    factor that the selector's coefficient slice picks (p the fit's width),
    both filled one chunk of ``GRID_ROWS`` grid rows at a time. With
    W_J = left_J right_J' and right_J = R_J o u_J the scores are
    S_J = rows_J right_J', never formed. sigma_J^2 and sigma~_{J,J2} are
    row-wise quadratic forms of the rows in the inner Gram
    C = sum_c right_J,c' right_J2,c = sum_c R_J,c' diag(u_J u_J2) R_J2,c, a
    sum over the two fits' windowed blocks that depends on the fits alone;
    the forms are taken over fixed chunks of ``GRID_ROWS`` grid rows. So
    neither depends on which other J the field holds. Where a contrast's
    variance cancels, ``contrast_sd`` recomputes it from score differences,
    so fits that alias each other contrast to exactly zero. The bootstrap
    needs only the fit's projection right_J' Omega', so the draws of J do
    not depend on which other J the field holds. Contrast draws are
    differences of per-J draws, so no contrast rows exist. The field holds
    the J values that ``cover`` gave it, each fitted by ``backend``; the
    rows, estimates, sigma, cross terms and per-J single sups
    (``single_sups``) stay with it.
    """

    backend: SieveBackend
    grid: np.ndarray
    deriv: tuple[int, ...]
    rows: dict[int, np.ndarray] = field(init=False, default_factory=dict)
    fits: dict[int, SieveFit] = field(init=False, default_factory=dict)
    estimates: dict[int, np.ndarray] = field(init=False, default_factory=dict)
    sigma: dict[int, np.ndarray] = field(init=False, default_factory=dict)
    _cross: dict[tuple[int, int], np.ndarray] = field(init=False, default_factory=dict)
    single_sups: dict[tuple, np.ndarray] = field(init=False, default_factory=dict, repr=False)

    @property
    def j_values(self) -> tuple[int, ...]:
        """The J values the field holds, ascending."""
        return tuple(sorted(self.sigma))

    def cover(self, js) -> VarianceField:
        """Add the fit, rows, estimate and sigma of each J in ``js`` that the field lacks; returns the field.

        A J's grid quantities do not depend on the field's other J, so the
        grown field holds the bits of one built over all its J at once, and
        raises as that one would; a call that raises adds nothing. The rows
        and the estimate are filled one ``grid_chunks`` chunk at a time from
        that chunk's selector rows, so no selector array of more than
        ``GRID_ROWS`` rows is alive.
        """
        model, g, new = self.backend.model, self.grid.shape[0], {}
        for j in sorted(set(js) - self.sigma.keys()):
            fit = self.backend.fit(j)
            rows, estimate = np.empty((g, fit.left.shape[1])), np.empty(g)
            for chunk in grid_chunks(g):
                block, sl = model.selector(fit.basis, self.grid[chunk], self.deriv)
                np.matmul(block, fit.coef[sl], out=estimate[chunk])
                np.matmul(block, fit.left[sl], out=rows[chunk])
            new[j] = fit, rows, estimate, _forms(fit, rows, fit, rows)
        sigma = {j: np.sqrt(var) for j, (*_, var) in new.items()}
        if sigma and max(float(s.max()) for s in (*self.sigma.values(), *sigma.values())) == 0.0:
            raise DegenerateVarianceError("all residuals are exactly zero; sieve variance and bands are undefined")
        for j, s in sigma.items():
            if float(s.min()) < VARIANCE_FLOOR * float(s.max()):
                raise DegenerateVarianceError(f"sigma_J collapses on the grid for J={j}; variance is degenerate")
        for j, (fit, rows, estimate, var) in new.items():
            self.fits[j], self.rows[j], self.estimates[j], self._cross[(j, j)] = fit, rows, estimate, var
        self.sigma.update(sigma)
        return self

    def _fill_cross(self, pairs) -> None:
        """Compute the cross terms of ``pairs`` not yet held; every J of them must be one the field holds."""
        todo = sorted({(min(p), max(p)) for p in pairs} - self._cross.keys())
        missing = sorted({j for key in todo for j in key} - self.sigma.keys())
        if missing:
            raise InvalidDimensionError(f"J values {missing} are not in the variance field")
        for j, j2 in todo:
            self._cross[(j, j2)] = _forms(self.fits[j], self.rows[j], self.fits[j2], self.rows[j2])

    @property
    def n(self) -> int:
        return self.backend.n

    def fitted(self, j: int) -> np.ndarray:
        """The estimate (d^a h_J)(x) = d^a psi^J(x)' coef[slice] on the grid, as a fresh array."""
        return self.estimates[j].copy()

    def cross(self, j: int, j2: int) -> np.ndarray:
        """sigma~_{J,J2}(x) = psi' M_J diag(u_J u_J2) M_J2' psi; sigma_J^2(x) when J2 = J."""
        key = (min(j, j2), max(j, j2))
        self._fill_cross([key])
        return self._cross[key]

    def contrast_sd(self, j: int, j2: int) -> np.ndarray:
        """sigma_{J,J2}(x) = sqrt(sigma_J^2 + sigma_J2^2 - 2 sigma~_{J,J2}).

        The difference of quadratic forms cancels where the contrast is small
        next to both sigmas, so at grid points whose variance is at most
        ``CONTRAST_CANCELLATION`` of sigma_J^2 + sigma_J2^2 it is recomputed
        as the squared norm of the score-difference row rows_J W_J - rows_J2 W_J2,
        a chunk of grid rows at a time.
        """
        total = self.cross(j, j) + self.cross(j2, j2)
        var = total - 2.0 * self.cross(j, j2)
        near = np.flatnonzero(var <= CONTRAST_CANCELLATION * total)
        for lo in range(0, near.size, _DIFF_ROWS):
            idx = near[lo:lo + _DIFF_ROWS]
            diff = self.fits[j].score_rows(self.rows[j][idx])
            diff -= self.fits[j2].score_rows(self.rows[j2][idx])
            var[idx] = np.einsum("gn,gn->g", diff, diff)
        return np.sqrt(np.maximum(var, 0.0))

    def contrast_scales(self, pairs) -> list[np.ndarray]:
        """Per pair (J, J2), sigma_{J,J2}(x) at the grid points above the floor and inf elsewhere.

        A sub-floor sd is the l2 norm of a degenerate score-difference row, so
        a contrast divided by these scales is zero there and drops out of
        every sup.
        """
        self._fill_cross(pairs)
        scales = []
        for j, j2 in pairs:
            sd = self.contrast_sd(j, j2)
            floor = VARIANCE_FLOOR * max(float(self.sigma[j].max()), float(self.sigma[j2].max()))
            scales.append(np.where(sd > floor, sd, np.inf))
        return scales


@dataclass(frozen=True, eq=False)
class SieveModel:
    """The per-model description the shared backend works from.

    ``design(sample, j)`` gives the basis state the selector reads, the n x p
    design as a ``WindowedRows`` and the dense n x K instruments (None for
    series regression) at sieve dimension J. ``span_built`` says that the
    design is built from B-spline spans (``basis.basis_spans`` through
    ``WindowedRows.of_spans``), as only a B-spline series regression's
    (``npiv_model`` without instruments) is: its windows are narrow only as
    far as the rows' order makes them, so the backend orders the rows by x.
    Every other design is ``WindowedRows.whole`` of a dense array, one block
    in any row order.
    ``template`` is the basis whose dimension grid enumerates J, and
    ``widths(j)`` gives the design and instrument widths at J, both of which
    must stay <= n. ``selector(basis, pts, a)`` gives the rows and
    coefficient slice of the reported function, so its a-th derivative at
    ``pts`` is rows @ coef[slice]; a variance field asks for the rows of
    one chunk of grid points at a time. ``grid_dim`` is the dimension of
    that function's argument.
    """

    design: Callable
    template: bs.BasisSpec
    widths: Callable[[int], tuple[int, int]]
    selector: Callable
    grid_dim: int
    span_built: bool = False


def npiv_model(x_spec: bs.BasisSpec, ispec: bs.InstrumentSpec | None) -> SieveModel:
    """The standard model Y = h(X) + u; series regression when ispec is None."""

    def design(sample: Sample, j: int):
        basis = bs.spec_for_dimension(x_spec, j, data=sample.x_quantiles)
        if ispec is None:
            return basis, WindowedRows.of_spans(bs.basis_spans(basis, sample.x)), None
        return basis, WindowedRows.whole(bs.design_matrix(basis, sample.x)), bs.instrument_matrix(ispec, j, sample)

    return SieveModel(
        design=design,
        template=x_spec,
        widths=lambda j: (j, j if ispec is None else bs.instrument_dim(ispec, j)),
        selector=sieve_rows,
        grid_dim=x_spec.dim,
        span_built=ispec is None,
    )


def candidate_dims(model: SieveModel, n: int) -> list[int]:
    """The model's grid dimensions J, smallest first, while the design and instrument widths are <= n.

    This is the one J grid: the J_hat_max bracket, the index set, the stored
    selections and the fixed J values of a Monte Carlo study all draw from it.
    """
    return list(takewhile(lambda j: max(model.widths(j)) <= n, bs.admissible_dimensions(model.template)))


class SieveBackend:
    """Fit cache for one sieve model on one sample, and its reported function.

    A span-built model (``SieveModel.span_built``) is fitted on the sample's
    observations ordered by x (``np.lexsort``, first column first, stable),
    so each chunk of ``OBS_ROWS`` observations of its design touches a
    window of B-spline columns; ``order`` maps that order's rows to the
    given sample's (fitted row i is given row ``order[i]``), and ``sample``
    is the ordered sample. Every other model's design is one dense block in
    any order, so its backend keeps the given sample itself (``order`` is
    None) and the bootstrap draws its multipliers in place. Each J is
    fitted once through ``fit``; a J asked only for its ``shat`` forms only
    its Grams, which a later ``fit`` completes. ``build_field`` combines the
    model's selector rows with the fits.
    """

    def __init__(self, sample: Sample, model: SieveModel):
        self.order = np.lexsort(sample.x.T[::-1]) if model.span_built else None
        if model.span_built:
            sample = Sample(sample.y[self.order], sample.x[self.order], sample.w[self.order])
        self.sample = sample
        self.model = model
        self._fits: dict = {}
        self._grams: dict = {}
        self.n = sample.n

    @property
    def grid_dim(self) -> int:
        return self.model.grid_dim

    def candidate_dims(self) -> list[int]:
        """``candidate_dims(model, n)`` on this sample; raises when no J fits it."""
        out = candidate_dims(self.model, self.n)
        if not out:
            raise InsufficientSampleError(f"no admissible dimension J fits the sample size n={self.n}")
        return out

    def next_dim(self, j: int) -> int:
        return bs.next_dimension(self.model.template, j)

    def fit(self, j: int):
        if j not in self._fits:
            self._fits[j] = fit(self.sample, self.model, j, self._grams.pop(j, None))
        return self._fits[j]

    def shat(self, j: int) -> float:
        """s_hat at J; a J not yet fitted forms only its Grams, which ``fit`` completes."""
        if j in self._fits:
            return self._fits[j].s_hat
        if j not in self._grams:
            self._grams[j] = fit_grams(self.sample, self.model, j)
        return self._grams[j][1].s_hat

    def drop_grams(self) -> None:
        """Forget the Grams of every J that was asked only for its s_hat."""
        self._grams.clear()

    def view(self, model: SieveModel) -> SieveBackend:
        """A backend sharing these fits whose ``model`` reports another linear functional of them."""
        other = copy.copy(self)
        other.model = model
        return other


def build_field(backend: SieveBackend, pts, deriv, js) -> VarianceField:
    """A fresh variance field of the backend's reported function at derivative ``deriv``, covered to ``js``.

    ``pts`` is any grid ``basis.as_points`` accepts and ``deriv`` any order ``basis.multi_index`` accepts.
    The field reads the backend's fits through the selector's rows and coefficient slices, so every
    field of the backend shares each fit's factors and projections.
    """
    dim = backend.grid_dim
    return VarianceField(backend, bs.as_points(pts, dim), bs.multi_index(deriv, dim)).cover(js)
