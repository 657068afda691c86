"""Data-driven choice of sieve dimension (bootstrap-calibrated Lepski rule).

The selection runs in three steps. First the upper truncation point J_hat_max
is the smallest dimension of the model's one grid
(``estimator.candidate_dims``) where J sqrt(log J) / s_hat_J crosses
10 sqrt(n), with 1 / s_hat_J replaced by upsilon_n = max{1, (0.1 log n)^4}
for regression. Second, the threshold
theta* is the (1 - alpha_hat) quantile of the bootstrap sup-t contrast
statistic over the index set, with alpha_hat = min{0.5, sqrt(log J_hat_max /
J_hat_max)}; ``sup_t_contrast`` returns these draws together with each
pair's contrast statistic. Third,
``lepski``, a pure function of those statistics and theta*, takes J_hat as
the smallest dimension whose contrasts against all larger dimensions stay
within 1.1 theta*, and the selected dimension is J_tilde = min(J_hat, J_hat_n)
for NPIV or J_tilde = J_hat for regression.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from . import basis as bs
from . import estimator as est
from .bootstrap import MultiplierPlan, quantile, sup_t_contrast
from .errors import ConfigurationError
from .estimator import VarianceField

LEPSKI_FACTOR = 1.1
_RATE_CONSTANT = 10.0
_INDEX_SET_LOWER = 0.1


def upsilon(n: int) -> float:
    """Regression replacement for 1/s_hat: max{1, (0.1 log n)^4}."""
    return max(1.0, (0.1 * math.log(n)) ** 4)


def _j_log_rate(j: int) -> float:
    return j * math.sqrt(max(math.log(j), 0.0))


def default_grid(dim: int, points_per_axis: int = 100) -> np.ndarray:
    """Equally spaced evaluation grid on [0, 1]^dim, C-ordered."""
    axis = np.linspace(0.0, 1.0, points_per_axis)
    if dim == 1:
        return axis.reshape(-1, 1)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True, eq=False)
class AdaptiveSelection:
    """Everything the dimension-selection rule produces, plus fit byproducts.

    ``contrast_stats`` is the rule's input, {(J, J2): statistic} over the
    pairs of the index set; a selection rebuilt from ``selection.json`` has none.
    """

    j_hat_max: int
    index_set: tuple[int, ...]
    alpha_hat: float
    theta_star: float
    j_hat: int
    j_hat_n: int
    j_tilde: int
    j_minus_set: tuple[int, ...]
    a_hat: float
    mode: str
    grid: np.ndarray
    varfield: VarianceField | None
    s_hat_by_j: dict
    backend: est.SieveBackend
    theta_draws: np.ndarray | None = None
    contrast_stats: dict = field(default_factory=dict, repr=False)
    flags: tuple[str, ...] = ()
    band_fields: dict = field(init=False, default_factory=dict, compare=False, repr=False)

    def band_field(self, a=0) -> VarianceField:
        """The variance field at derivative order ``a`` on ``grid``, covered to J_minus and J_tilde.

        There is one field per order, kept in ``band_fields``; at order 0 it
        is ``varfield`` when the selection has one. A caller that needs other
        J values on the same grid grows this field by ``cover``. A copy made
        with ``dataclasses.replace`` starts without fields.
        """
        multi = bs.multi_index(a, self.backend.grid_dim)
        js = (*self.j_minus_set, self.j_tilde)
        if multi not in self.band_fields:
            own = self.varfield is not None and self.varfield.deriv == multi
            self.band_fields[multi] = self.varfield if own else est.build_field(self.backend, self.grid, multi, js)
        return self.band_fields[multi].cover(js)


def _j_hat_max(backend: est.SieveBackend, mode: str, flags: list) -> int:
    """The smallest J of ``backend.candidate_dims()`` with lhs(J) <= 10 sqrt(n) < lhs(J+), J+ the next dimension.

    lhs(J) = J sqrt(log J) upsilon, with upsilon = 1 / s_hat_J for npiv and
    upsilon_n for regression; both modes bracket on the same grid. Past the
    grid s_hat cannot be computed, but s_hat <= 1 bounds the npiv lhs below
    by J sqrt(log J), which often settles the bracket anyway. When no J
    brackets, the last grid J is taken and flagged ``jmax_capped_by_sample``.
    """
    n = backend.n
    if mode == "regression" and n < 2:
        raise ConfigurationError("regression truncation rule needs n >= 2")
    ups = upsilon(n)

    def lhs(j: int) -> float:
        if mode == "regression":
            return _j_log_rate(j) * ups
        return _j_log_rate(j) / max(backend.shat(j), np.finfo(float).tiny)

    beyond = lhs if mode == "regression" else _j_log_rate
    target = _RATE_CONSTANT * math.sqrt(n)
    cands = backend.candidate_dims()
    if lhs(cands[0]) > target:
        flags.append("jmax_left_inequality_violated")
        warnings.warn("smallest admissible dimension already violates the truncation rule; using it as J_hat_max",
                      RuntimeWarning, stacklevel=2)
        return cands[0]
    last_ok = cands[0]
    for i, j in enumerate(cands):
        if lhs(j) > target:
            continue
        last_ok = j
        rhs = lhs(cands[i + 1]) if i + 1 < len(cands) else beyond(backend.next_dim(j))
        if rhs > target:
            return j
    flags.append("jmax_capped_by_sample")
    warnings.warn("truncation rule did not bracket within the feasible grid; capping J_hat_max",
                  RuntimeWarning, stacklevel=2)
    return last_ok


def lepski(index_set, j_hat_max: int, stats, theta_star: float, mode: str) -> dict:
    """The Lepski rule on the contrast statistics of an ascending index set.

    ``stats[(J, J2)]`` is sup_x |h_J(x) - h_J2(x)| / sigma_{J,J2}(x) for each
    pair J < J2 of ``index_set``. J_hat is the smallest J whose statistics
    against every larger J are at most 1.1 theta* (a NaN statistic fails).
    J_hat_n is the largest J below J_hat_max, J_tilde = min(J_hat, J_hat_n) for
    npiv and J_hat for regression, and A_hat = max{0, log log J_tilde}. Returns
    the ``AdaptiveSelection`` fields ``j_hat``, ``j_hat_n``, ``j_tilde``,
    ``j_minus_set``, ``a_hat`` and ``flags``, the rule's own flags.
    """
    flags = []
    threshold = LEPSKI_FACTOR * theta_star
    j_hat = next(j for j in index_set if all(stats[(j, j2)] <= threshold for j2 in index_set if j2 > j))
    below = [j for j in index_set if j < j_hat_max]
    j_hat_n = max(below, default=j_hat_max)
    if not below:
        flags.append("j_hat_n_degenerate")
    j_tilde = j_hat if mode == "regression" else min(j_hat, j_hat_n)
    j_minus = tuple(j for j in index_set if j < j_hat_n) if j_tilde == j_hat else index_set
    if not j_minus:
        j_minus = index_set
        flags.append("j_minus_fallback_full_set")
    a_hat = math.log(math.log(j_tilde)) if j_tilde > 1 else 0.0
    if not a_hat > 0.0:
        a_hat = 0.0
        flags.append("a_hat_clamped_at_zero")
    return dict(j_hat=j_hat, j_hat_n=j_hat_n, j_tilde=j_tilde, j_minus_set=j_minus, a_hat=a_hat,
                flags=tuple(flags))


def run_selection(backend: est.SieveBackend, plan: MultiplierPlan, mode: str, grid) -> AdaptiveSelection:
    """Generic Lepski selection over a fit backend; used by all model variants.

    The J_hat_max bracket, the index set and alpha_hat, the field over the
    index set, its contrast statistics and draws, theta*, then ``lepski``.
    """
    if mode not in ("npiv", "regression"):
        raise ConfigurationError(f"unknown selection mode {mode!r}")
    flags: list[str] = []
    j_hat_max = _j_hat_max(backend, mode, flags)
    # J_hat_max is a candidate and 0.1 log^2 J <= J, so the index set ends at J_hat_max.
    lower = _INDEX_SET_LOWER * math.log(j_hat_max) ** 2
    index_set = tuple(j for j in backend.candidate_dims() if lower <= j <= j_hat_max)
    if j_hat_max >= 2:
        alpha_hat = min(0.5, math.sqrt(math.log(j_hat_max) / j_hat_max))
    else:
        alpha_hat = 0.5
        flags.append("alpha_hat_clamped")

    pts = bs.as_points(grid if grid is not None else default_grid(backend.grid_dim), backend.grid_dim)
    varfield = est.build_field(backend, pts, (0,) * backend.grid_dim, index_set)
    backend.drop_grams()
    if len(index_set) > 1:
        stats, theta_draws = sup_t_contrast(varfield, plan)
        theta_star = quantile(theta_draws, 1.0 - alpha_hat)
    else:
        # Singleton index set: the contrast sup is vacuous; keep the UCB
        # inflation defined via the standard normal quantile.
        stats, theta_draws = {}, None
        theta_star = float(ndtri(1.0 - alpha_hat))
        flags.append("singleton_index_set")

    rule = lepski(index_set, j_hat_max, stats, theta_star, mode)
    rule["flags"] = (*flags, *rule["flags"])
    return AdaptiveSelection(
        j_hat_max=j_hat_max, index_set=index_set, alpha_hat=alpha_hat, theta_star=theta_star, mode=mode,
        grid=pts, varfield=varfield, s_hat_by_j={j: backend.shat(j) for j in index_set}, backend=backend,
        theta_draws=theta_draws, contrast_stats=stats, **rule,
    )


def select(
    sample: est.Sample,
    x_spec: bs.BasisSpec,
    ispec: bs.InstrumentSpec | None = None,
    plan: MultiplierPlan | None = None,
    mode: str = "npiv",
    grid=None,
) -> AdaptiveSelection:
    """Select the sieve dimension for the standard NPIV or regression model."""
    if mode == "npiv" and ispec is None:
        raise ConfigurationError("npiv mode needs an InstrumentSpec; use mode='regression' otherwise")
    backend = est.SieveBackend(sample, est.npiv_model(x_spec, ispec if mode == "npiv" else None))
    return run_selection(backend, plan or MultiplierPlan(), mode, grid)
