"""Additive and partially linear models, and fixed-effect stripping.

Both models are sieve TSLS fits of a stacked design, run through the shared
TSLS core (``estimator.tsls``) and the shared fit-cache backend
(``estimator.SieveBackend``). Each supplies the backend a model description:
its fit at J, the design and instrument widths at J, and the selector rows of
the function it reports. Selection and bands then work as for the standard
model.

The additive model stacks an intercept with centered per-coordinate bases
(each basis function minus its exact integral over [0, 1]); the centered
columns of one coordinate sum to zero pointwise, so the stacked design is
rank deficient by construction and all fits go through the generalized
inverse. Selection contrasts the full additive estimate; ``component_view``
reports one centered component on a 1-d grid, so ``ucb.band_deriv`` gives
its band. The partially linear model stacks a univariate (or d1-variate)
basis with demeaned linear regressors and reports the nonparametric block h1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import adaptive as ad
from . import basis as bs
from . import estimator as est
from .errors import ConfigurationError, InvalidDimensionError


# ---------------------------------------------------------------------------
# Additive structural functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdditiveSpec:
    """Per-coordinate univariate basis templates; the model adds an intercept."""

    components: tuple[bs.BasisSpec, ...]

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
    flags: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.u_hat.size

    def component_slice(self, comp: int) -> slice:
        return slice(1 + comp * self.j, 1 + (comp + 1) * self.j)

    @property
    def intercept_hat(self) -> float:
        return float(self.coef[0])


def _centered_block(basis: bs.BasisSpec, integrals: np.ndarray, col: np.ndarray, deriv: int) -> np.ndarray:
    block = bs.design_matrix(basis, col, deriv)
    if deriv == 0:
        block = block - integrals[None, :]
    return block


def _additive_design(bases, integrals, x: np.ndarray, deriv: tuple[int, ...] | None = None) -> np.ndarray:
    n = x.shape[0]
    deriv = deriv or (0,) * len(bases)
    cols = [np.ones((n, 1)) if all(a == 0 for a in deriv) else np.zeros((n, 1))]
    for i, basis in enumerate(bases):
        block = _centered_block(basis, integrals[i], x[:, i], deriv[i])
        zero_others = [a for k, a in enumerate(deriv) if k != i]
        if any(a > 0 for a in zero_others):
            block = np.zeros_like(block)  # mixed partials of an additive function vanish
        cols.append(block)
    return np.hstack(cols)


def _instrument_level(aspec: AdditiveSpec, ispec: bs.InstrumentSpec, j: int) -> int:
    """Instrument resolution ceil((l + q) d / d_w) at component dimension J on d coordinates."""
    level = bs.resolution_for_dimension(aspec.components[0], j)
    return -(-(level + ispec.q) * len(aspec.components) // ispec.dim_w)


def fit_additive(sample: est.Sample, aspec: AdditiveSpec, ispec: bs.InstrumentSpec | None, j: int) -> AdditiveFit:
    """Fit the additive model with the same component dimension J per coordinate."""
    d = len(aspec.components)
    if sample.dim != d:
        raise ConfigurationError(f"sample has {sample.dim} coordinates, spec has {d}")
    bases = tuple(
        bs.spec_for_dimension(aspec.components[i], j, data=sample.x[:, i]) for i in range(d)
    )
    integrals = tuple(bs.basis_integrals(b) for b in bases)
    design = _additive_design(bases, integrals, sample.x)
    bmat = None
    if ispec is not None:
        level_w = _instrument_level(aspec, ispec, j)
        w_basis = bs.make_spec(ispec.order, level_w, ispec.dim_w, ispec.knot_rule, data=sample.w)
        bmat = bs.design_matrix(w_basis, sample.w)
        if bmat.shape[1] < design.shape[1]:
            raise InvalidDimensionError(
                f"instrument dimension {bmat.shape[1]} is below the stacked design "
                f"dimension {design.shape[1]}; increase q"
            )
        if bmat.shape[1] > sample.n:
            raise est.InsufficientSampleError(
                f"K={bmat.shape[1]} exceeds the sample size n={sample.n}"
            )
    m, coef, u_hat, s_hat, flags = est.tsls(design, bmat, sample.y)
    return AdditiveFit(
        j=j, spec=aspec, bases=bases, integrals=integrals, coef=coef, m=m,
        u_hat=u_hat, s_hat=s_hat, design=design, bmat=design if bmat is None else bmat, flags=flags,
    )


def evaluate_additive(fit: AdditiveFit, x, deriv=None) -> np.ndarray:
    """The full additive estimate (or its derivative) at d-dimensional points."""
    rows, sl = _additive_rows(fit, bs.as_points(x, len(fit.bases)), deriv)
    return rows @ fit.coef[sl]


def evaluate_component(fit: AdditiveFit, comp: int, x1, deriv: int = 0) -> np.ndarray:
    """One additive component (centered so that it integrates to zero)."""
    rows, sl = _component_rows(comp)(fit, bs.as_points(x1, 1), (deriv,))
    return rows @ fit.coef[sl]


def _additive_rows(fit: AdditiveFit, pts: np.ndarray, deriv):
    multi = bs.multi_index(deriv, len(fit.bases))
    return _additive_design(fit.bases, fit.integrals, pts, multi), slice(None)


def _component_rows(comp: int):
    def rows(fit: AdditiveFit, pts: np.ndarray, deriv):
        block = _centered_block(fit.bases[comp], fit.integrals[comp], pts[:, 0], deriv[0])
        return block, fit.component_slice(comp)

    return rows


def additive_model(aspec: AdditiveSpec, ispec: bs.InstrumentSpec | None) -> est.SieveModel:
    """The additive model; it reports the full additive estimate on [0, 1]^d."""
    d = len(aspec.components)

    def widths(j: int) -> tuple[int, int]:
        width = 1 + d * j
        if ispec is None:
            return width, width
        return width, (2 ** _instrument_level(aspec, ispec, j) + ispec.order - 1) ** ispec.dim_w

    return est.SieveModel(
        fit=lambda sample, j: fit_additive(sample, aspec, ispec, j),
        template=aspec.components[0],
        widths=widths,
        selector=_additive_rows,
        grid_dim=d,
    )


def component_view(selection: ad.AdaptiveSelection, comp: int, grid) -> ad.AdaptiveSelection:
    """The additive selection reporting centered component ``comp`` on a 1-d grid.

    The view shares the selection's fits, dimensions and bootstrap threshold;
    ``ucb.band_deriv`` on it gives the component's uniform band.
    """
    return replace(
        selection,
        backend=selection.backend.view(_component_rows(comp), grid_dim=1),
        grid=bs.as_points(grid, 1),
        varfield=None,
    )


# ---------------------------------------------------------------------------
# Partially linear structural functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartiallyLinearSpec:
    """Nonparametric block basis plus indices of the linear columns of X."""

    x1_spec: bs.BasisSpec
    linear_cols: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.x1_spec is None:
            raise ConfigurationError("partially linear model needs a nonparametric block basis")


@dataclass(eq=False)
class PartiallyLinearFit:
    j: int
    x1_basis: bs.BasisSpec
    coef: np.ndarray
    beta: np.ndarray
    x2_mean: np.ndarray
    m: np.ndarray
    u_hat: np.ndarray
    s_hat: float
    design: np.ndarray
    bmat: np.ndarray
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

    The linear block x2 enters demeaned. With ``ispec=None`` the regressors
    instrument themselves (the exogenous case).
    """
    x1, x2 = _pl_blocks(sample, plspec)
    if plspec.x1_spec.dim != (sample.dim - len(plspec.linear_cols)):
        raise ConfigurationError("x1_spec dimension does not match the nonparametric block")
    x2_mean = x2.mean(axis=0)
    x1_basis = bs.spec_for_dimension(plspec.x1_spec, j, data=x1)
    psi1 = bs.design_matrix(x1_basis, x1)
    n_nonpar = psi1.shape[1]
    design = np.hstack([psi1, x2 - x2_mean[None, :]])
    bmat = None
    if ispec is not None:
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
    m, coef, u_hat, s_hat, flags = est.tsls(design, bmat, sample.y)
    return PartiallyLinearFit(
        j=j, x1_basis=x1_basis, coef=coef, beta=coef[n_nonpar:], x2_mean=x2_mean,
        m=m, u_hat=u_hat, s_hat=s_hat, design=design, bmat=design if bmat is None else bmat,
        n_nonpar=n_nonpar, flags=flags,
    )


def evaluate_h1(fit: PartiallyLinearFit, x1, deriv=0) -> np.ndarray:
    """The nonparametric block estimate h1 (or its derivative)."""
    rows, sl = _h1_rows(fit, x1, deriv)
    return rows @ fit.coef[sl]


def _h1_rows(fit: PartiallyLinearFit, pts: np.ndarray, deriv):
    return bs.design_matrix(fit.x1_basis, pts, deriv), slice(0, fit.n_nonpar)


def partially_linear_model(plspec: PartiallyLinearSpec, ispec: bs.InstrumentSpec | None) -> est.SieveModel:
    """The partially linear model; it reports the nonparametric block h1."""
    d2 = len(plspec.linear_cols)
    return est.SieveModel(
        fit=lambda sample, j: fit_partially_linear(sample, plspec, ispec, j),
        template=plspec.x1_spec,
        widths=lambda j: (j + d2, j + d2 if ispec is None else bs.instrument_dim(ispec, j)),
        selector=_h1_rows,
        grid_dim=plspec.x1_spec.dim,
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
