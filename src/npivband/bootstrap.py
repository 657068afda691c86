"""Multiplier bootstrap: reproducible draws, sup-t statistics, quantiles.

Every bootstrap statistic is a linear map of one B x n matrix Omega of i.i.d.
standard normal multipliers. Row b of Omega is drawn from an independent
substream keyed by (base_seed, b), so each draw is identical regardless of
execution order, and theta*, every band's z* and every alpha level see the
same draws.

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
sup-t statistic keeps a running per-draw maximum over fixed 64-draw slices.
``sup_t_single`` results are memoized on the field.
"""

from __future__ import annotations

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


def _slices(n_draws: int) -> list[slice]:
    """The fixed 64-draw slices of the draws, over which each running per-draw max is taken."""
    return [slice(s, min(s + _BLOCK, n_draws)) for s in range(0, n_draws, _BLOCK)]


def sup_t_single(varfield: VarianceField, plan: MultiplierPlan, j_set=None) -> np.ndarray:
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
        sups = np.zeros(plan.n_draws)
        for j in key[2]:
            rows = varfield.rows[j] / varfield.sigma[j][:, None]
            for cols in _slices(plan.n_draws):
                vals, sup = rows @ proj[j][:, cols], sups[cols]
                np.maximum(sup, np.abs(vals, out=vals).max(axis=0), out=sup)
        varfield.sup_t_memo[key] = sups
    return sups.copy()


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
    g = varfield.grid.shape[0]
    sups = np.zeros(plan.n_draws)
    for lo in range(0, g, _ROWS):
        hi = min(lo + _ROWS, g)
        for cols in _slices(plan.n_draws):
            draws = {j: varfield.rows[j][lo:hi] @ proj[j][:, cols] for j in js}
            sup, diff = sups[cols], np.empty((hi - lo, cols.stop - cols.start))
            for (j, j2), scale in zip(pairs, scales):
                np.subtract(draws[j], draws[j2], out=diff)
                diff /= scale[lo:hi, None]
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
