"""Uniform confidence bands for the structural function and its derivatives.

Data-driven bands center at the adaptively selected fit and use the halfwidth
(z* + A_hat theta*) sigma_tilde(x), where z* is the bootstrap quantile of the
sup-t process over the grid and the conservative index set. ``band_deriv``
builds them for whatever function the selection's backend reports: h, the h1
block of a partially linear model, or an additive component through
``extensions.component_view``. The robustness variant widens the inflation
term to max{theta*, J^{(|a|-p)/d} / sigma(x)} to allow for bias-dominating
regimes. Undersmoothed bands use a deterministic J
and the plain quantile z*_{1-alpha,J} with no inflation term.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import basis as bs
from . import estimator as est
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


def selection_field(
    selection: AdaptiveSelection, multi: tuple[int, ...], varfield: VarianceField | None = None
) -> VarianceField:
    """Variance field at derivative order ``multi`` over J_minus and J_tilde.

    ``varfield``, then the selection's own field, is reused when it has that
    order and covers those J values; otherwise a new field is built.
    """
    needed = tuple(sorted(set(selection.j_minus_set) | {selection.j_tilde}))
    for candidate in (varfield, selection.varfield):
        if candidate is not None and candidate.deriv == multi and set(needed) <= set(candidate.j_values):
            return candidate
    return est.build_field(selection.backend, selection.grid, multi, needed)


def band_deriv(
    selection: AdaptiveSelection,
    varfield: VarianceField | None = None,
    plan: MultiplierPlan | None = None,
    alpha: float = 0.05,
    a=1,
    a_fixed: float | None = None,
    n_workers: int = 1,
) -> BandResult:
    """Data-driven uniform confidence band for d^a of the reported function (a = 0: the h band)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")
    plan = plan or MultiplierPlan()
    multi = bs.multi_index(a, selection.backend.grid_dim)
    field = selection_field(selection, multi, varfield)
    z_draws = sup_t_single(field, plan, selection.j_minus_set, n_workers=n_workers)
    z_star = quantile(z_draws, 1.0 - alpha)
    a_hat = selection.a_hat if a_fixed is None else float(a_fixed)
    return BandResult(
        grid=field.grid,
        center=field.fitted(selection.j_tilde),
        halfwidth=(z_star + a_hat * selection.theta_star) * field.sigma[selection.j_tilde],
        kind="h_band" if all(v == 0 for v in multi) else "deriv_band",
        level=1.0 - alpha,
        deriv=multi,
        j_used=selection.j_tilde,
        z_star=z_star,
        theta_star=selection.theta_star,
        a_hat=a_hat,
        z_draws=z_draws,
    )


def band_h(
    selection: AdaptiveSelection,
    varfield: VarianceField | None = None,
    plan: MultiplierPlan | None = None,
    alpha: float = 0.05,
    a_fixed: float | None = None,
    n_workers: int = 1,
) -> BandResult:
    """Data-driven uniform confidence band for the structural function."""
    return band_deriv(selection, varfield, plan, alpha, a=0, a_fixed=a_fixed, n_workers=n_workers)


def default_p_lower(dim: int, deriv_order: int) -> float:
    """Smoothness lower bound used by the robustness band when none is given."""
    return max(dim / 2.0 + 0.1, deriv_order + 0.1)


def band_robustness(
    selection: AdaptiveSelection,
    varfield: VarianceField | None = None,
    plan: MultiplierPlan | None = None,
    alpha: float = 0.05,
    a=0,
    p_lower: float | None = None,
    n_workers: int = 1,
) -> BandResult:
    """Robustness-check band with a bias allowance of order J^{(|a|-p)/d}.

    It is the data-driven band of ``band_deriv`` with the inflation theta*
    widened pointwise to max{theta*, J^{(|a|-p)/d} / sigma(x)}.
    """
    multi = bs.multi_index(a, selection.backend.grid_dim)
    order = sum(multi)
    dim = selection.backend.grid_dim
    if p_lower is None:
        p_lower = default_p_lower(dim, order)
    if p_lower <= order:
        raise InvalidSmoothnessError(
            f"robustness band needs p_lower > |a| (got p_lower={p_lower}, |a|={order})"
        )
    field = selection_field(selection, multi, varfield)
    band = band_deriv(selection, field, plan, alpha, multi, n_workers=n_workers)
    sigma = field.sigma[selection.j_tilde]
    bias_term = selection.j_tilde ** ((order - p_lower) / dim) / sigma
    inflation = np.maximum(selection.theta_star, bias_term)
    halfwidth = (band.z_star + selection.a_hat * inflation) * sigma
    return replace(band, halfwidth=halfwidth, kind="robustness", p_lower=float(p_lower))


def band_undersmoothed(
    varfield: VarianceField,
    j: int,
    plan: MultiplierPlan | None = None,
    alpha: float = 0.05,
    n_workers: int = 1,
) -> BandResult:
    """Deterministic-J band of the field's function: fit at J +/- z*_{1-alpha,J} sigma_J(x)."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")
    z_draws = sup_t_single(varfield, plan or MultiplierPlan(), (j,), n_workers=n_workers)
    z_star = quantile(z_draws, 1.0 - alpha)
    return BandResult(
        grid=varfield.grid,
        center=varfield.fitted(j),
        halfwidth=z_star * varfield.sigma[j],
        kind="undersmoothed",
        level=1.0 - alpha,
        deriv=varfield.deriv,
        j_used=j,
        z_star=z_star,
        z_draws=z_draws,
    )
