"""Multiplier bootstrap: reproducible draws, sup-t statistics, quantiles.

Every bootstrap statistic is a linear map of one B x n matrix Omega of i.i.d.
standard normal multipliers. Row b of Omega is drawn from an independent
substream keyed by (base_seed, b): the PCG64 generator that NumPy's
``default_rng`` gives for ``SeedSequence((base_seed, b))``. So each draw is
identical regardless of execution order, and theta*, every band's z* and
every alpha level see the same draws. ``_seed_words`` runs NumPy's
``SeedSequence`` hash for all B draw indices at once in uint32 arithmetic,
and each row's generator is seeded from its words through NumPy's own PCG64
seeding; this skips B Python-level hashes and moves no bit.

Drawing Omega and forming the projections run on ``_linalg.thread_map``,
whose threads start and are joined inside each call: each fixed 64-row
slice of Omega is one task. Every task writes only its own rows of Omega,
or its own columns of each projection, by the same operations on the same
operands as on one thread, so no bit depends on the thread count. Like
every map, they leave the caller only while numpy's OpenBLAS runs on one
thread; forked Monte Carlo workers use one thread.

The scores factor through the sieve (see ``VarianceField``), so Omega enters
only through each fit's whole-coefficient weights W = M diag(u_hat) =
L (R o u_hat)', which a fit keeps as L and its right factor R o u_hat:
``_projections`` forms the projection (R o u_hat)' Omega' = sum_c R_c' Omega_c'
over the right factor's windowed blocks R_c, and a field's rows are its
selector rows taken through L. Each projection is formed once per fit and
plan and kept read-only in the fit's ``projections``, and every field of
the backend reads it. Omega is drawn only when a field holds a fit without
that plan's projection, with its columns in the backend's row order, so
each observation keeps its own multipliers however the backend orders the
sample. It is never held whole: each 64-draw slice is drawn into its
thread's 64 x n buffer and projected at once into those draws' columns of
every missing projection. ``multiplier_matrix`` gives the whole matrix,
row for row the same draws.
The draws of J at the grid are D*_J = rows_J (R_J o u_J)' Omega'. A contrast draw is the difference
D*_J - D*_J2 of per-J draws, each taken once per chunk of grid rows however
many pairs share it, and scaled by the pair's sd, which also scales the
pair's statistic |h_J - h_J2| that ``sup_t_contrast`` returns beside the
draws. No contrast rows are formed. Fits that alias each other give exactly
zero: their contrast variance cancels, so ``contrast_sd`` recomputes it from
score differences, which are exactly zero, and a zero sd drops the grid
point from every sup. Every sup-t statistic keeps a running per-draw maximum
over fixed 64-draw slices and the fixed chunks of grid rows of
``estimator.grid_chunks``; ``sup_t_single`` scales each chunk of rows by its
sigma rather than copying the whole G x p rows, and memoizes each J's sup
on the field, so a sup over a J set is the elementwise max of per-J sups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import thread_map
from .errors import ConfigurationError, InvalidDimensionError
from .estimator import VarianceField, grid_chunks

_BLOCK = 64


@dataclass(frozen=True)
class MultiplierPlan:
    """Number of multiplier draws and the seed of the substream family."""

    n_draws: int = 1000
    base_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_draws", "base_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 1 <= self.n_draws < 2**32:
            raise ConfigurationError("the number of bootstrap draws must lie in [1, 2**32)")
        if self.base_seed < 0:
            raise ConfigurationError("base_seed must be a nonnegative integer")


# The constants of NumPy's SeedSequence (numpy/random/bit_generator.pyx), pool size 4.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_XSHIFT = np.uint32(16)


def _seed_words(base_seed: int, draws) -> np.ndarray:
    """Row i is ``SeedSequence((base_seed, draws[i])).generate_state(4, np.uint64)``.

    NumPy's SeedSequence algorithm on every draw index at once: the entropy
    is base_seed's 32-bit words (least significant first; 0 is one word)
    followed by the draw index, which ``MultiplierPlan`` keeps below 2**32.
    The hash constants advance independently of the data, so they stay
    Python ints while the pool words are uint32 arrays that wrap mod 2**32.
    """
    index = np.asarray(draws, dtype=np.uint32).ravel()
    seed, entropy = int(base_seed), []
    while True:
        entropy.append(np.full(index.shape, seed & _MASK32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    entropy.append(index)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros_like(index)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = np.empty((index.size, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _StreamSeed(np.random.bit_generator.ISeedSequence):
    """One substream's precomputed PCG64 seed words, standing in for its SeedSequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a substream seed holds only PCG64's four uint64 words")
        return self.words


def _draw(out: np.ndarray, seeds: np.ndarray, order, row) -> None:
    """Draw the rows of ``out`` from the substreams seeded by the rows of ``seeds``.

    Each row's generator is made as it draws the row, so only one is alive.
    Without ``order`` each row is drawn in place; with it, each row is drawn
    into the n-vector ``row`` and gathered, so column i holds observation
    ``order[i]``'s multiplier.
    """
    for dest, words in zip(out, seeds):
        rng = np.random.Generator(np.random.PCG64(_StreamSeed(words)))
        if order is None:
            rng.standard_normal(out=dest)
        else:
            rng.standard_normal(out=row)
            np.take(row, order, out=dest, mode="wrap")


def multiplier_matrix(plan: MultiplierPlan, n: int, order=None) -> np.ndarray:
    """The B x n matrix Omega whose row b is draw b's n multipliers, or those taken at ``order``.

    Row b is ``default_rng(SeedSequence((base_seed, b))).standard_normal(n)``.
    All B substreams are seeded in one pass of ``_seed_words``, and each
    fixed 64-row slice is drawn by ``_draw`` as one ``thread_map`` task; with
    ``order``, column i holds observation ``order[i]``'s multipliers and no
    second B x n array is made.
    """
    omega = np.empty((plan.n_draws, int(n)))
    seeds = _seed_words(plan.base_seed, np.arange(plan.n_draws))
    thread_map(lambda rows, row: _draw(omega[rows], seeds[rows], order, row), _slices(plan.n_draws),
               None if order is None else lambda: np.empty(int(n)))
    return omega


def _projections(varfield: VarianceField, plan: MultiplierPlan) -> dict[int, np.ndarray]:
    """The read-only p x B projections {J: (R_J o u_J)' Omega'} of the field's fits.

    Each fit of the field that lacks the plan's projection gets
    sum_c R_c' Omega_c' over the windowed blocks R_c of its right factor
    R o u_hat, with Omega's columns in the backend's row order. The field's
    rows are taken through the left factor already, so rows_J @ projection
    is D*_J = rows_J W_J Omega'. Each fixed 64-draw slice of Omega is one
    ``thread_map`` task: it draws the slice into its thread's buffer and
    adds the slice's products to those draws' columns of every missing
    projection, so no B x n array is made and no bit depends on the thread
    count. The kept projections are allocated before the thread buffers, so
    a call leaves free blocks behind rather than gaps between the kept
    arrays.
    """
    missing = [fit for fit in varfield.fits.values() if plan not in fit.projections]
    if missing:
        projs = [np.zeros((fit.right.width, plan.n_draws)) for fit in missing]
        n, order = varfield.n, varfield.backend.order
        seeds = _seed_words(plan.base_seed, np.arange(plan.n_draws))
        width = max(fit.right.width for fit in missing)

        def project(cols: slice, buffers) -> None:
            omega, part, row = buffers
            omega, part = omega[: cols.stop - cols.start], part[:, : cols.stop - cols.start]
            _draw(omega, seeds[cols], order, row)
            for fit, proj in zip(missing, projs):
                for run, window, block in fit.right:
                    proj[window, cols] += np.matmul(block.T, omega[:, run].T, out=part[: window.stop - window.start])

        def make_buffers():
            return np.empty((_BLOCK, n)), np.empty((width, _BLOCK)), None if order is None else np.empty(n)

        thread_map(project, _slices(plan.n_draws), make_buffers)
        for fit, proj in zip(missing, projs):
            proj.flags.writeable = False
            fit.projections[plan] = proj
    return {j: varfield.fits[j].projections[plan] for j in varfield.j_values}


def _slices(n_draws: int) -> list[slice]:
    """The fixed 64-draw slices of the draws, over which each running per-draw max is taken."""
    return [slice(s, min(s + _BLOCK, n_draws)) for s in range(0, n_draws, _BLOCK)]


def sup_t_single(varfield: VarianceField, plan: MultiplierPlan, j_set=None) -> np.ndarray:
    """Per-draw sup over (x, J) of |D*_J(x) / sigma_J(x)|.

    It is the elementwise max over J of the per-J sups max_x |D*_J(x) / sigma_J(x)|,
    each formed once per plan and memoized on the field in ``single_sups``;
    max is exact, so the result does not depend on which sets were asked for
    before. Each call returns a fresh array.
    """
    js = sorted(set(j_set if j_set is not None else varfield.j_values))
    if not js:
        raise ConfigurationError("sup_t_single needs a nonempty J set")
    missing = [j for j in js if j not in varfield.sigma]
    if missing:
        raise InvalidDimensionError(f"J values {missing} are not in the variance field")
    todo = [j for j in js if (plan, j) not in varfield.single_sups]
    proj = _projections(varfield, plan) if todo else {}
    for j in todo:
        sups = np.zeros(plan.n_draws)
        for chunk in grid_chunks(varfield.grid.shape[0]):
            rows = varfield.rows[j][chunk] / varfield.sigma[j][chunk, None]
            for cols in _slices(plan.n_draws):
                vals, sup = rows @ proj[j][:, cols], sups[cols]
                np.maximum(sup, np.abs(vals, out=vals).max(axis=0), out=sup)
        varfield.single_sups[plan, j] = sups
    return np.max([varfield.single_sups[plan, j] for j in js], axis=0)


def sup_t_contrast(
    varfield: VarianceField, plan: MultiplierPlan, pairs=None
) -> tuple[dict[tuple[int, int], float], np.ndarray]:
    """The contrast statistics and per-draw sups over the pairs (J, J2), J2 > J.

    Returns ``(stats, draws)``: ``stats[(J, J2)]`` is the statistic
    sup_x |h_J(x) - h_J2(x)| / sigma_{J,J2}(x) and ``draws`` the per-draw sup
    over (x, J, J2) of |(D*_J - D*_J2)(x) / sigma_{J,J2}(x)|; both divide by
    the same scales. The multipliers are held fixed across the whole supremum
    within one draw. Grid points where the contrast sd is degenerate (which
    certifies a degenerate numerator) are excluded. The draws D*_J of each J
    in the pairs are computed once per slice and chunk of grid rows, and each
    pair's draws are their difference.
    """
    if pairs is None:
        js = varfield.j_values
        pairs = [(a, b) for i, a in enumerate(js) for b in js[i + 1 :]]
    pairs = list(pairs)
    if not pairs:
        raise ConfigurationError("sup_t_contrast needs a nonempty pair set")
    for j, j2 in pairs:
        if j2 <= j:
            raise InvalidDimensionError(f"contrast pairs require J2 > J, got ({j}, {j2})")
    scales = varfield.contrast_scales(pairs)
    js = sorted({j for pair in pairs for j in pair})
    fitted = {j: varfield.fitted(j) for j in js}
    stats = {(j, j2): float(np.abs((fitted[j] - fitted[j2]) / scale).max(initial=0.0))
             for (j, j2), scale in zip(pairs, scales)}
    proj = _projections(varfield, plan)
    sups = np.zeros(plan.n_draws)
    for chunk in grid_chunks(varfield.grid.shape[0]):
        for cols in _slices(plan.n_draws):
            draws = {j: varfield.rows[j][chunk] @ proj[j][:, cols] for j in js}
            sup, diff = sups[cols], np.empty((chunk.stop - chunk.start, cols.stop - cols.start))
            for (j, j2), scale in zip(pairs, scales):
                np.subtract(draws[j], draws[j2], out=diff)
                diff /= scale[chunk, None]
                np.maximum(sup, np.abs(diff, out=diff).max(axis=0), out=sup)
    return stats, sups


def quantile(draw_sups, level: float) -> float:
    """Empirical quantile: smallest value with >= level fraction at or below it.

    This is the ceiling order statistic x_(ceil(level * B)).
    """
    if not 0.0 < level < 1.0:
        raise ConfigurationError("quantile level must lie in (0, 1)")
    draws = np.sort(np.asarray(draw_sups, dtype=np.float64).ravel())
    if draws.size == 0:
        raise ConfigurationError("quantile of an empty draw set")
    k = int(np.ceil(level * draws.size))
    k = min(max(k, 1), draws.size)
    return float(draws[k - 1])
