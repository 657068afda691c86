"""Additive and partially linear model wrappers, and fixed-effect stripping.

The additive model stacks an intercept with centered per-coordinate bases
(each basis function minus its exact integral over [0, 1]); the centered
columns of one coordinate sum to zero pointwise, so the stacked design is
rank deficient by construction and all fits go through the generalized
inverse. The partially linear model stacks a univariate (or d1-variate)
basis with demeaned linear regressors. Both reuse the selection engine and
band machinery through padded selector vectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import adaptive as ad
from . import basis as bs
from . import estimator as est
from . import ucb
from .bootstrap import MultiplierPlan, quantile, sup_t_single
from .errors import ConfigurationError, InvalidDimensionError
from .estimator import VarianceField


# ---------------------------------------------------------------------------
# Additive structural functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdditiveSpec:
    """Per-coordinate univariate basis templates plus an intercept."""

    components: tuple[bs.BasisSpec, ...]
    intercept: bool = True

    def __post_init__(self) -> None:
        if len(self.components) < 2:
            raise ConfigurationError("additive model needs at least two coordinates")
        for spec in self.components:
            if spec.dim != 1:
                raise ConfigurationError("additive components must be univariate bases")


@dataclass(eq=False)
class AdditiveFit:
    """TSLS fit of the stacked centered additive design at component dimension J."""

    j: int
    spec: AdditiveSpec
    bases: tuple[bs.BasisSpec, ...]
    integrals: tuple[np.ndarray, ...]
    coef: np.ndarray
    m: np.ndarray
    u_hat: np.ndarray
    s_hat: float
    design: np.ndarray
    bmat: np.ndarray
    y: np.ndarray
    flags: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.u_hat.size

    def component_slice(self, comp: int) -> slice:
        offset = 1 if self.spec.intercept else 0
        return slice(offset + comp * self.j, offset + (comp + 1) * self.j)

    @property
    def intercept_hat(self) -> float:
        return float(self.coef[0]) if self.spec.intercept else 0.0


def _centered_block(basis: bs.BasisSpec, integrals: np.ndarray, col: np.ndarray, deriv: int) -> np.ndarray:
    block = bs.design_matrix(basis, col, deriv)
    if deriv == 0:
        block = block - integrals[None, :]
    return block


def _additive_design(spec: AdditiveSpec, bases, integrals, x: np.ndarray,
                     deriv: tuple[int, ...] | None = None) -> np.ndarray:
    n = x.shape[0]
    deriv = deriv or (0,) * len(bases)
    cols = []
    if spec.intercept:
        cols.append(np.ones((n, 1)) if all(a == 0 for a in deriv) else np.zeros((n, 1)))
    for i, basis in enumerate(bases):
        block = _centered_block(basis, integrals[i], x[:, i], deriv[i])
        zero_others = [a for k, a in enumerate(deriv) if k != i]
        if any(a > 0 for a in zero_others):
            block = np.zeros_like(block)  # mixed partials of an additive function vanish
        cols.append(block)
    return np.hstack(cols)


def fit_additive(sample: est.Sample, aspec: AdditiveSpec, ispec: bs.InstrumentSpec | None, j: int) -> AdditiveFit:
    """Fit the additive model with the same component dimension J per coordinate."""
    d = len(aspec.components)
    if sample.dim != d:
        raise ConfigurationError(f"sample has {sample.dim} coordinates, spec has {d}")
    bases = tuple(
        bs.spec_for_dimension(aspec.components[i], j, data=sample.x[:, i]) for i in range(d)
    )
    integrals = tuple(bs.basis_integrals(b) for b in bases)
    design = _additive_design(aspec, bases, integrals, sample.x)
    n_cols = design.shape[1]
    flags: list[str] = []
    if ispec is None:
        bmat = design
        g_inv, rank = est.pinv_psd(design.T @ design, max(sample.n, n_cols))
        m = g_inv @ design.T
        if rank < n_cols:
            flags.append("design_rank_deficient")
    else:
        level = bs.resolution_for_dimension(aspec.components[0], j)
        level_w = -(-(level + ispec.q) * d // ispec.dim_w)
        w_basis = bs.make_spec(ispec.order, level_w, ispec.dim_w, ispec.knot_rule, data=sample.w)
        bmat = bs.design_matrix(w_basis, sample.w)
        if bmat.shape[1] < n_cols:
            raise InvalidDimensionError(
                f"instrument dimension {bmat.shape[1]} is below the stacked design "
                f"dimension {n_cols}; increase q"
            )
        if bmat.shape[1] > sample.n:
            raise est.InsufficientSampleError(
                f"K={bmat.shape[1]} exceeds the sample size n={sample.n}"
            )
        m, tsls_flags = est.tsls_influence(design, bmat)
        flags.extend(tsls_flags)
    coef = m @ sample.y
    u_hat = sample.y - design @ coef
    s_hat, s_flags = est.singular_value_min(design, bmat)
    flags.extend(s_flags)
    return AdditiveFit(
        j=j, spec=aspec, bases=bases, integrals=integrals, coef=coef, m=m,
        u_hat=u_hat, s_hat=s_hat, design=design, bmat=bmat, y=sample.y,
        flags=tuple(flags),
    )


def evaluate_additive(fit: AdditiveFit, x, deriv=None) -> np.ndarray:
    """The full additive estimate (or its derivative) at d-dimensional points."""
    pts = bs.as_points(x, len(fit.bases))
    multi = _additive_deriv(deriv, len(fit.bases))
    design = _additive_design(fit.spec, fit.bases, fit.integrals, pts, multi)
    return design @ fit.coef


def _additive_deriv(deriv, d: int) -> tuple[int, ...]:
    if deriv is None or (np.isscalar(deriv) and int(deriv) == 0):
        return (0,) * d
    if np.isscalar(deriv):
        raise ConfigurationError("additive derivatives need a multi-index")
    multi = tuple(int(v) for v in deriv)
    if len(multi) != d:
        raise ConfigurationError(f"multi-index must have {d} entries")
    return multi


def evaluate_component(fit: AdditiveFit, comp: int, x1, deriv: int = 0) -> np.ndarray:
    """One additive component (centered so that it integrates to zero)."""
    pts = bs.as_points(x1, 1)
    block = _centered_block(fit.bases[comp], fit.integrals[comp], pts[:, 0], deriv)
    return block @ fit.coef[fit.component_slice(comp)]


def component_influence(fit: AdditiveFit, comp: int, x1, deriv: int = 0) -> np.ndarray:
    """Rows of the zero-padded component selector times the influence matrix."""
    pts = bs.as_points(x1, 1)
    block = _centered_block(fit.bases[comp], fit.integrals[comp], pts[:, 0], deriv)
    return block @ fit.m[fit.component_slice(comp), :]


class _AdditiveBackend:
    """Selection backend: contrasts use the full additive estimate."""

    def __init__(self, sample: est.Sample, aspec: AdditiveSpec, ispec: bs.InstrumentSpec | None):
        self.sample = sample
        self.aspec = aspec
        self.ispec = ispec
        self.grid_dim = sample.dim
        self.n = sample.n
        self.y = sample.y
        self._fits: dict[int, AdditiveFit] = {}

    def candidate_dims(self) -> list[int]:
        template = self.aspec.components[0]
        d = len(self.aspec.components)
        out: list[int] = []
        level = 0
        while True:
            j = 2**level + template.order - 1
            n_cols = (1 if self.aspec.intercept else 0) + d * j
            if n_cols > self.n:
                break
            if self.ispec is not None:
                level_w = -(-(level + self.ispec.q) * d // self.ispec.dim_w)
                k = (2**level_w + self.ispec.order - 1) ** self.ispec.dim_w
                if k > self.n:
                    break
            out.append(j)
            level += 1
        if not out:
            raise est.InsufficientSampleError("no feasible component dimension")
        return out

    def next_dim(self, j: int) -> int:
        template = self.aspec.components[0]
        level = bs.resolution_for_dimension(template, j)
        return 2 ** (level + 1) + template.order - 1

    def fit(self, j: int) -> AdditiveFit:
        if j not in self._fits:
            self._fits[j] = fit_additive(self.sample, self.aspec, self.ispec, j)
        return self._fits[j]

    def shat(self, j: int) -> float:
        return self.fit(j).s_hat

    def residuals(self, j: int) -> np.ndarray:
        return self.fit(j).u_hat

    def influence(self, j: int, pts: np.ndarray, deriv=0) -> np.ndarray:
        fit = self.fit(j)
        multi = _additive_deriv(deriv, self.grid_dim)
        design = _additive_design(fit.spec, fit.bases, fit.integrals, pts, multi)
        return design @ fit.m

    def center(self, j: int, pts: np.ndarray, deriv=0) -> np.ndarray:
        return evaluate_additive(self.fit(j), pts, deriv)


def select_additive(
    sample: est.Sample,
    aspec: AdditiveSpec,
    ispec: bs.InstrumentSpec | None = None,
    plan: MultiplierPlan | None = None,
    grid=None,
    n_workers: int = 1,
) -> ad.AdaptiveSelection:
    """Data-driven component dimension for the additive model."""
    backend = _AdditiveBackend(sample, aspec, ispec)
    mode = "npiv" if ispec is not None else "regression"
    if grid is None:
        grid = ad.default_grid(sample.dim, points_per_axis=25 if sample.dim > 1 else 100)
    return ad.run_selection(backend, plan or MultiplierPlan(), mode, grid, aspec.components[0], n_workers)


def component_field(selection: ad.AdaptiveSelection, comp: int, a: int = 0, grid=None) -> VarianceField:
    """Variance field of additive component ``comp`` over J_minus and J_tilde."""
    pts = bs.as_points(grid if grid is not None else np.linspace(0, 1, 100), 1)
    needed = tuple(sorted(set(selection.j_minus_set) | {selection.j_tilde}))
    fits = {j: selection.backend.fit(j) for j in needed}
    return VarianceField(
        grid=pts,
        deriv=(a,),
        j_values=needed,
        influence={j: component_influence(fits[j], comp, pts, a) for j in needed},
        u_hat={j: fits[j].u_hat for j in needed},
        y=selection.backend.y,
    )


def component_band(
    selection: ad.AdaptiveSelection,
    plan: MultiplierPlan,
    alpha: float,
    comp: int,
    a: int = 0,
    grid=None,
    n_workers: int = 1,
    varfield: VarianceField | None = None,
) -> ucb.BandResult:
    """Uniform band for one additive component via the padded selector vector.

    ``varfield`` is a field from ``component_field`` for the same ``comp`` and
    ``a``; bands at several alpha levels that share it share one bootstrap
    statistic. Without it the field is built on ``grid``.
    """
    field = varfield if varfield is not None else component_field(selection, comp, a, grid)
    pts = field.grid
    z_draws = sup_t_single(field, plan, selection.j_minus_set, n_workers=n_workers)
    z_star = quantile(z_draws, 1.0 - alpha)
    center = evaluate_component(selection.backend.fit(selection.j_tilde), comp, pts, a)
    multiplier = z_star + selection.a_hat * selection.theta_star
    return ucb.BandResult(
        grid=pts,
        center=center,
        halfwidth=multiplier * field.sigma[selection.j_tilde],
        kind="h_band" if a == 0 else "deriv_band",
        level=1.0 - alpha,
        deriv=(a,),
        j_used=selection.j_tilde,
        z_star=z_star,
        theta_star=selection.theta_star,
        a_hat=selection.a_hat,
        z_draws=z_draws,
    )


# ---------------------------------------------------------------------------
# Partially linear structural functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartiallyLinearSpec:
    """Nonparametric block basis plus indices of the linear columns of X."""

    x1_spec: bs.BasisSpec | None
    linear_cols: tuple[int, ...] = ()
    demean: bool = True


@dataclass(eq=False)
class PartiallyLinearFit:
    j: int
    x1_basis: bs.BasisSpec | None
    coef: np.ndarray
    beta: np.ndarray
    x2_mean: np.ndarray
    m: np.ndarray
    u_hat: np.ndarray
    s_hat: float
    design: np.ndarray
    bmat: np.ndarray
    y: np.ndarray
    n_nonpar: int
    flags: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.u_hat.size


def _pl_blocks(sample: est.Sample, plspec: PartiallyLinearSpec):
    linear = tuple(plspec.linear_cols)
    nonpar = tuple(i for i in range(sample.dim) if i not in linear)
    x1 = sample.x[:, nonpar] if nonpar else None
    x2 = sample.x[:, linear] if linear else np.empty((sample.n, 0))
    return x1, x2


def fit_partially_linear(
    sample: est.Sample,
    plspec: PartiallyLinearSpec,
    ispec: bs.InstrumentSpec | None,
    j: int,
) -> PartiallyLinearFit:
    """TSLS fit of (psi^J(x1)', x2')' using b^{K(J)}(w) as instruments.

    With ``ispec=None`` the regressors instrument themselves (the exogenous
    case), and with ``x1_spec=None`` the fit degenerates to ordinary linear IV
    of Y on an intercept plus the demeaned linear block.
    """
    x1, x2 = _pl_blocks(sample, plspec)
    x2_mean = x2.mean(axis=0) if plspec.demean and x2.size else np.zeros(x2.shape[1])
    x2c = x2 - x2_mean[None, :]
    flags: list[str] = []
    if plspec.x1_spec is None:
        x1_basis = None
        n_nonpar = 1
        design = np.hstack([np.ones((sample.n, 1)), x2c])
        bmat = design if ispec is None else np.hstack([np.ones((sample.n, 1)), sample.w])
        if bmat.shape[1] < design.shape[1]:
            raise InvalidDimensionError("fewer instruments than linear regressors")
    else:
        if plspec.x1_spec.dim != (sample.dim - len(plspec.linear_cols)):
            raise ConfigurationError("x1_spec dimension does not match the nonparametric block")
        x1_basis = bs.spec_for_dimension(plspec.x1_spec, j, data=x1)
        psi1 = bs.design_matrix(x1_basis, x1)
        n_nonpar = psi1.shape[1]
        design = np.hstack([psi1, x2c])
        if ispec is None:
            bmat = design
        else:
            k = bs.instrument_dim(ispec, j)
            if k < design.shape[1]:
                raise InvalidDimensionError(
                    f"K(J)={k} is below the stacked design dimension {design.shape[1]}; "
                    "increase q"
                )
            if k > sample.n:
                raise est.InsufficientSampleError(f"K(J)={k} exceeds n={sample.n}")
            w_basis = bs.instrument_spec_for(ispec, j, w_data=sample.w)
            bmat = bs.design_matrix(w_basis, sample.w)
    if bmat is design:
        g_inv, rank = est.pinv_psd(design.T @ design, max(sample.n, design.shape[1]))
        m = g_inv @ design.T
        if rank < design.shape[1]:
            flags.append("design_rank_deficient")
    else:
        m, tsls_flags = est.tsls_influence(design, bmat)
        flags.extend(tsls_flags)
    coef = m @ sample.y
    u_hat = sample.y - design @ coef
    s_hat, s_flags = est.singular_value_min(design, bmat)
    flags.extend(s_flags)
    return PartiallyLinearFit(
        j=j, x1_basis=x1_basis, coef=coef, beta=coef[n_nonpar:], x2_mean=x2_mean,
        m=m, u_hat=u_hat, s_hat=s_hat, design=design, bmat=bmat, y=sample.y,
        n_nonpar=n_nonpar, flags=tuple(flags),
    )


def evaluate_h1(fit: PartiallyLinearFit, x1, deriv=0) -> np.ndarray:
    """The nonparametric block estimate h1 (or its derivative)."""
    if fit.x1_basis is None:
        raise ConfigurationError("fit has no nonparametric block")
    design = bs.design_matrix(fit.x1_basis, x1, deriv)
    return design @ fit.coef[: fit.n_nonpar]


def h1_influence(fit: PartiallyLinearFit, x1, deriv=0) -> np.ndarray:
    """Rows of the selector (psi^J(x1)', 0')' times the influence matrix."""
    if fit.x1_basis is None:
        raise ConfigurationError("fit has no nonparametric block")
    design = bs.design_matrix(fit.x1_basis, x1, deriv)
    return design @ fit.m[: fit.n_nonpar, :]


class _PartiallyLinearBackend:
    """Selection backend: contrasts and variances use the h1 selector."""

    def __init__(self, sample: est.Sample, plspec: PartiallyLinearSpec, ispec: bs.InstrumentSpec | None):
        if plspec.x1_spec is None:
            raise ConfigurationError("selection needs a nonparametric block")
        self.sample = sample
        self.plspec = plspec
        self.ispec = ispec
        self.grid_dim = plspec.x1_spec.dim
        self.n = sample.n
        self.y = sample.y
        self._fits: dict[int, PartiallyLinearFit] = {}

    def candidate_dims(self) -> list[int]:
        template = self.plspec.x1_spec
        d2 = len(self.plspec.linear_cols)
        out: list[int] = []
        level = 0
        while True:
            j = (2**level + template.order - 1) ** template.dim
            if j + d2 > self.n:
                break
            if self.ispec is not None and bs.instrument_dim(self.ispec, j) + d2 > self.n:
                break
            out.append(j)
            level += 1
        if not out:
            raise est.InsufficientSampleError("no feasible nonparametric dimension")
        return out

    def next_dim(self, j: int) -> int:
        template = self.plspec.x1_spec
        level = bs.resolution_for_dimension(template, j)
        return (2 ** (level + 1) + template.order - 1) ** template.dim

    def fit(self, j: int) -> PartiallyLinearFit:
        if j not in self._fits:
            self._fits[j] = fit_partially_linear(self.sample, self.plspec, self.ispec, j)
        return self._fits[j]

    def shat(self, j: int) -> float:
        return self.fit(j).s_hat

    def residuals(self, j: int) -> np.ndarray:
        return self.fit(j).u_hat

    def influence(self, j: int, pts: np.ndarray, deriv=0) -> np.ndarray:
        return h1_influence(self.fit(j), pts, deriv)

    def center(self, j: int, pts: np.ndarray, deriv=0) -> np.ndarray:
        return evaluate_h1(self.fit(j), pts, deriv)


def select_partially_linear(
    sample: est.Sample,
    plspec: PartiallyLinearSpec,
    ispec: bs.InstrumentSpec | None = None,
    plan: MultiplierPlan | None = None,
    grid=None,
    n_workers: int = 1,
) -> ad.AdaptiveSelection:
    """Data-driven dimension for the nonparametric block of a partially linear model."""
    backend = _PartiallyLinearBackend(sample, plspec, ispec)
    mode = "npiv" if ispec is not None else "regression"
    return ad.run_selection(
        backend, plan or MultiplierPlan(), mode, grid, plspec.x1_spec, n_workers
    )


# ---------------------------------------------------------------------------
# Fixed-effect partial-out (first stage of the trade pipeline)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FixedEffectsPlan:
    """Categorical factors to strip and the sieve dimension of the first stage."""

    factors: tuple[np.ndarray, ...]
    j_max: int

    def __post_init__(self) -> None:
        if not self.factors:
            raise ConfigurationError("at least one factor is required")


def partial_out_fixed_effects(
    sample: est.Sample,
    plan: FixedEffectsPlan,
    ispec: bs.InstrumentSpec,
) -> tuple[est.Sample, dict]:
    """Strip estimated factor effects from Y by partially linear series regression.

    The outcome is regressed on the factor dummies (first level dropped per
    factor) and the instrument basis at dimension K(j_max); the returned
    sample has Y replaced by Y minus the estimated factor effects, leaving X
    and W untouched.
    """
    n = sample.n
    dummy_blocks: list[np.ndarray] = []
    level_maps: list[tuple[np.ndarray, np.ndarray]] = []
    for idx, factor in enumerate(plan.factors):
        labels = np.asarray(factor)
        if labels.shape[0] != n:
            raise ConfigurationError(f"factor {idx} has {labels.shape[0]} rows, expected {n}")
        levels, codes = np.unique(labels, return_inverse=True)
        counts = np.bincount(codes)
        if levels.size < 2:
            warnings.warn(
                f"factor {idx} has a single level; it is dropped from the first stage",
                RuntimeWarning,
                stacklevel=2,
            )
            level_maps.append((levels, np.zeros(levels.size)))
            continue
        if (counts == 1).any():
            warnings.warn(
                f"factor {idx} has singleton levels that absorb their own observation",
                RuntimeWarning,
                stacklevel=2,
            )
        block = np.zeros((n, levels.size - 1))
        mask = codes > 0
        block[np.nonzero(mask)[0], codes[mask] - 1] = 1.0
        dummy_blocks.append(block)
        level_maps.append((levels, codes))
    w_basis = bs.instrument_spec_for(ispec, plan.j_max, w_data=sample.w)
    bmat = bs.design_matrix(w_basis, sample.w)
    design = np.hstack([*dummy_blocks, bmat]) if dummy_blocks else bmat
    coef, *_ = np.linalg.lstsq(design, sample.y, rcond=max(design.shape) * np.finfo(float).eps)
    fe_total = np.zeros(n)
    offset = 0
    effects: list[dict] = []
    block_iter = iter(dummy_blocks)
    for levels, codes in level_maps:
        if levels.size < 2:
            effects.append({"levels": levels, "effects": np.zeros(levels.size)})
            continue
        block = next(block_iter)
        gamma = coef[offset : offset + levels.size - 1]
        offset += levels.size - 1
        per_level = np.concatenate([[0.0], gamma])
        fe_total += per_level[codes]
        effects.append({"levels": levels, "effects": per_level})
    adjusted = est.Sample(sample.y - fe_total, sample.x, sample.w)
    info = {"effects": effects, "k_dim": bmat.shape[1], "fe_fitted": fe_total}
    return adjusted, info
