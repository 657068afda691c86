"""Multiplier bootstrap: reproducible draws, sup-t statistics, quantiles.

Every bootstrap statistic is a linear map of one B x n matrix Omega of i.i.d.
standard normal multipliers. Row b of Omega is drawn from an independent
substream keyed by (base_seed, b), so each draw is identical regardless of
execution order or worker count, and theta*, every band's z* and every alpha
level see the same draws.

The scores factor through the sieve (see ``VarianceField``), so Omega enters
only through the projections W Omega' of each fit's whole-coefficient weights
W = M diag(u_hat). Each is formed once per fit and plan and kept read-only in
the fit's ``projections``; a field reads the rows of its coefficient slice.
Omega is drawn only when a field holds a fit without that plan's projection,
and lives only while the missing projections are formed. The draws of J at
the grid are D*_J = rows_J W_J Omega'. A contrast draw is the difference
D*_J - D*_J2 of per-J draws, each taken once per chunk of grid rows however
many pairs share it, and scaled by the pair's sd, which also scales the
pair's statistic |h_J - h_J2| that ``sup_t_contrast`` returns beside the
draws. No contrast rows are formed, and fits that alias each other give
exactly zero because their per-pair Grams make the sd exactly zero. Every
sup-t statistic keeps a running per-draw maximum over fixed 64-draw slices,
which keeps results bit-identical for any number of worker threads.
``sup_t_single`` results are memoized on the field.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidDimensionError
from .estimator import VarianceField

_BLOCK = 64
#: Grid rows per chunk of the contrast sweep, which holds one rows x 64 array of draws per J.
_ROWS = 256


@dataclass(frozen=True)
class MultiplierPlan:
    """Number of multiplier draws and the seed of the substream family."""

    n_draws: int = 1000
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_draws < 1:
            raise ConfigurationError("need at least one bootstrap draw")
        if self.base_seed < 0:
            raise ConfigurationError("base_seed must be a nonnegative integer")


def draw_multipliers(plan: MultiplierPlan, b: int, n: int) -> np.ndarray:
    """The n-vector of N(0,1) multipliers for draw ``b``; deterministic."""
    if not 0 <= b < plan.n_draws:
        raise ConfigurationError(f"draw index {b} outside [0, {plan.n_draws})")
    seq = np.random.SeedSequence(entropy=(int(plan.base_seed), int(b)))
    return np.random.default_rng(seq).standard_normal(int(n))


def multiplier_matrix(plan: MultiplierPlan, n: int) -> np.ndarray:
    """The B x n matrix Omega whose row b is ``draw_multipliers(plan, b, n)``."""
    omega = np.empty((plan.n_draws, int(n)))
    for b in range(plan.n_draws):
        omega[b] = draw_multipliers(plan, b, n)
    return omega


def _projections(varfield: VarianceField, plan: MultiplierPlan) -> dict[int, np.ndarray]:
    """The read-only p x B projections {J: W_J Omega'} of the field's weights.

    Each fit of the field that lacks the plan's projection gets the product
    of its whole weights and Omega, drawn once for all of them; J reads the
    rows of its coefficient slice, a view of the fit's projection.
    """
    missing = [fit for fit in varfield.fits.values() if plan not in fit.projections]
    if missing:
        omega_t = multiplier_matrix(plan, varfield.n).T
        for fit in missing:
            proj = fit.weights @ omega_t
            proj.flags.writeable = False
            fit.projections[plan] = proj
    return {j: varfield.fits[j].projections[plan][varfield.slices[j]] for j in varfield.j_values}


def _sup_over_draws(blocks, n_draws: int, n_workers: int = 1) -> np.ndarray:
    """Per-draw max over the blocks, in fixed 64-draw slices (so for any n_workers).

    A block maps a slice ``(start, stop)`` of the draws to its per-draw sup;
    blocks run one after another, the slices of a block in parallel.
    """
    sups = np.zeros(n_draws)
    slices = [(s, min(s + _BLOCK, n_draws)) for s in range(0, n_draws, _BLOCK)]
    with ThreadPoolExecutor(max_workers=n_workers) if n_workers > 1 else nullcontext() as pool:
        mapper = map if pool is None else pool.map
        for block in blocks:
            for (start, stop), vals in zip(slices, mapper(block, slices)):
                np.maximum(sups[start:stop], vals, out=sups[start:stop])
    return sups


def _single_block(rows: np.ndarray, proj: np.ndarray):
    """Per-draw sup of |rows @ proj| over the rows."""
    def block(bounds: tuple[int, int]) -> np.ndarray:
        vals = rows @ proj[:, slice(*bounds)]
        return np.abs(vals, out=vals).max(axis=0)

    return block


def sup_t_single(
    varfield: VarianceField,
    plan: MultiplierPlan,
    j_set=None,
    n_workers: int = 1,
) -> np.ndarray:
    """Per-draw sup over (x, J) of |D*_J(x) / sigma_J(x)|.

    Memoized on the field per (n_draws, base_seed, J set); each call returns
    a fresh copy of the draws.
    """
    js = tuple(j_set) if j_set is not None else varfield.j_values
    if not js:
        raise ConfigurationError("sup_t_single needs a nonempty J set")
    missing = [j for j in js if j not in varfield.j_values]
    if missing:
        raise InvalidDimensionError(f"J values {missing} are not in the variance field")
    key = (plan.n_draws, plan.base_seed, tuple(sorted(set(js))))
    sups = varfield.sup_t_memo.get(key)
    if sups is None:
        proj = _projections(varfield, plan)
        blocks = (_single_block(varfield.rows[j] / varfield.sigma[j][:, None], proj[j]) for j in key[2])
        sups = _sup_over_draws(blocks, plan.n_draws, n_workers)
        varfield.sup_t_memo[key] = sups
    return sups.copy()


def sup_t_contrast(
    varfield: VarianceField,
    plan: MultiplierPlan,
    pairs=None,
    n_workers: int = 1,
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
    g = varfield.grid.shape[0]

    def chunk(lo: int, hi: int):
        def block(bounds: tuple[int, int]) -> np.ndarray:
            start, stop = bounds
            draws = {j: varfield.rows[j][lo:hi] @ proj[j][:, start:stop] for j in js}
            sup, diff = np.zeros(stop - start), np.empty((hi - lo, stop - start))
            for (j, j2), scale in zip(pairs, scales):
                np.subtract(draws[j], draws[j2], out=diff)
                diff /= scale[lo:hi, None]
                np.maximum(sup, np.abs(diff, out=diff).max(axis=0), out=sup)
            return sup

        return block

    blocks = (chunk(lo, min(lo + _ROWS, g)) for lo in range(0, g, _ROWS))
    return stats, _sup_over_draws(blocks, plan.n_draws, n_workers)


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
