"""Uniform confidence bands for the structural function and its derivatives.

Every band has one form, built by ``_band``: the fit at one J plus or minus
(z* + excess) sigma_J(x), where z* is the bootstrap quantile of the sup-t
process over the grid and a set of J values. The data-driven band
(``band_deriv``; ``band_h`` at a = 0) centers at the selected J_tilde, takes z*
over the conservative index set J_minus and has excess A_hat theta*. It serves
whatever function the selection's backend reports: h, the h1 block of a
partially linear model, or an additive component through
``extensions.component_view``. The robustness band widens theta* pointwise to
max{theta*, J^{(|a|-p)/d} / sigma(x)} to allow for bias-dominating regimes.
The undersmoothed band uses a deterministic J, z*_{1-alpha,J} over that J
alone and no excess. The data-driven and robustness bands read their variance
field from ``AdaptiveSelection.band_field``, built once per derivative order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis as bs
from .adaptive import AdaptiveSelection
from .bootstrap import MultiplierPlan, quantile, sup_t_single
from .errors import ConfigurationError, InvalidSmoothnessError
from .estimator import VarianceField

BAND_KINDS = ("h_band", "deriv_band", "undersmoothed", "robustness")


@dataclass(frozen=True, eq=False)
class BandResult:
    """A symmetric uniform band: center(x) +/- halfwidth(x) on a grid."""

    grid: np.ndarray
    center: np.ndarray
    halfwidth: np.ndarray
    kind: str
    level: float
    deriv: tuple[int, ...]
    j_used: int
    z_star: float
    theta_star: float | None = None
    a_hat: float | None = None
    p_lower: float | None = None
    z_draws: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in BAND_KINDS:
            raise ConfigurationError(f"unknown band kind {self.kind!r}")
        if not np.all(self.halfwidth > 0.0):
            raise ConfigurationError("band halfwidth must be strictly positive")

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.halfwidth

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.halfwidth

    @property
    def width(self) -> np.ndarray:
        return 2.0 * self.halfwidth


def excludes_constant(band: BandResult) -> bool:
    """True when no horizontal line fits inside the band.

    The check is the scalar comparison: the largest value of the lower
    envelope exceeds the smallest value of the upper envelope.
    """
    return bool(np.max(band.lower) > np.min(band.upper))


def _band(field: VarianceField, j: int, z_js, plan, alpha: float, excess, **labels) -> BandResult:
    """The band fit_J(x) +/- (z* + excess) sigma_J(x) on the field's grid.

    z* is the 1 - alpha quantile of the bootstrap sup-t statistic over ``z_js``.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")
    z_draws = sup_t_single(field, plan or MultiplierPlan(), z_js)
    z_star = quantile(z_draws, 1.0 - alpha)
    return BandResult(
        grid=field.grid,
        center=field.fitted(j),
        halfwidth=(z_star + excess) * field.sigma[j],
        level=1.0 - alpha,
        deriv=field.deriv,
        j_used=j,
        z_star=z_star,
        z_draws=z_draws,
        **labels,
    )


def band_deriv(
    selection: AdaptiveSelection,
    plan: MultiplierPlan | None = None,
    alpha: float = 0.05,
    a=1,
    a_fixed: float | None = None,
) -> BandResult:
    """Data-driven uniform confidence band for d^a of the reported function (a = 0: the h band)."""
    field = selection.band_field(a)
    a_hat = selection.a_hat if a_fixed is None else float(a_fixed)
    return _band(
        field, selection.j_tilde, selection.j_minus_set, plan, alpha, a_hat * selection.theta_star,
        kind="deriv_band" if any(field.deriv) else "h_band", theta_star=selection.theta_star, a_hat=a_hat,
    )


def band_h(
    selection: AdaptiveSelection,
    plan: MultiplierPlan | None = None,
    alpha: float = 0.05,
    a_fixed: float | None = None,
) -> BandResult:
    """Data-driven uniform confidence band for the structural function."""
    return band_deriv(selection, plan, alpha, a=0, a_fixed=a_fixed)


def default_p_lower(dim: int, deriv_order: int) -> float:
    """Smoothness lower bound used by the robustness band when none is given."""
    return max(dim / 2.0 + 0.1, deriv_order + 0.1)


def band_robustness(
    selection: AdaptiveSelection,
    plan: MultiplierPlan | None = None,
    alpha: float = 0.05,
    a=0,
    p_lower: float | None = None,
) -> BandResult:
    """Robustness-check band with a bias allowance of order J^{(|a|-p)/d}.

    It is the data-driven band of ``band_deriv`` with the inflation theta*
    widened pointwise to max{theta*, J^{(|a|-p)/d} / sigma(x)}.
    """
    dim = selection.backend.grid_dim
    order = sum(bs.multi_index(a, dim))
    if p_lower is None:
        p_lower = default_p_lower(dim, order)
    if not p_lower > order:
        raise InvalidSmoothnessError(
            f"robustness band needs p_lower > |a| (got p_lower={p_lower}, |a|={order})"
        )
    field = selection.band_field(a)
    j = selection.j_tilde
    bias_term = j ** ((order - p_lower) / dim) / field.sigma[j]
    excess = selection.a_hat * np.maximum(selection.theta_star, bias_term)
    return _band(
        field, j, selection.j_minus_set, plan, alpha, excess,
        kind="robustness", theta_star=selection.theta_star, a_hat=selection.a_hat, p_lower=float(p_lower),
    )


def band_undersmoothed(
    varfield: VarianceField,
    j: int,
    plan: MultiplierPlan | None = None,
    alpha: float = 0.05,
) -> BandResult:
    """Deterministic-J band of the field's function: fit at J +/- z*_{1-alpha,J} sigma_J(x)."""
    return _band(varfield, j, (j,), plan, alpha, 0.0, kind="undersmoothed")
