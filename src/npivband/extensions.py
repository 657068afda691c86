"""Additive and partially linear models, and fixed-effect stripping.

Both models are sieve TSLS fits of a stacked design, run through the one
``estimator.fit`` and the shared fit-cache backend (``estimator.SieveBackend``).
Each is only a model description: its design and instruments at J, their
widths at J, and the selector rows of the function it reports. Selection,
evaluation and bands then work as for the standard model.

The additive model stacks an intercept with centered per-coordinate bases
(each basis function minus its exact integral over [0, 1]). B-splines and
their integrals sum to one, so the J centered columns of one coordinate sum
to zero; each block keeps its first J - 1 columns, which span the same
functions (Newey 1997's normalisation). The stacked design then has full
rank 1 + d(J - 1) on generic data, and its fits take the Cholesky route.
Selection contrasts the full additive estimate; ``component_model``
reports one centered component on [0, 1], and ``component_view`` puts a
selection behind it, so ``ucb.band_deriv`` gives the component's band. The
partially linear model stacks a univariate (or d1-variate) basis with
demeaned linear regressors and reports the nonparametric block h1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import adaptive as ad
from . import basis as bs
from . import estimator as est
from .errors import ConfigurationError


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


def _centered_block(basis: bs.BasisSpec, integrals: np.ndarray, col: np.ndarray, deriv: int) -> np.ndarray:
    """The first J - 1 centered columns b_k^(deriv)(col) - [deriv == 0] int b_k of one coordinate.

    The dropped last column is minus the sum of these: the centered columns
    sum to zero at deriv 0, and the derivatives of a partition of unity sum
    to zero at deriv >= 1.
    """
    block = bs.design_matrix(basis, col, deriv)[:, :-1]
    return block - integrals[None, :-1] if deriv == 0 else np.ascontiguousarray(block)


def _additive_design(axes, x: np.ndarray, deriv: tuple[int, ...]) -> np.ndarray:
    n = x.shape[0]
    cols = [np.ones((n, 1)) if all(a == 0 for a in deriv) else np.zeros((n, 1))]
    for i, (basis, integrals) in enumerate(axes):
        block = _centered_block(basis, integrals, x[:, i], deriv[i])
        zero_others = [a for k, a in enumerate(deriv) if k != i]
        if any(a > 0 for a in zero_others):
            block = np.zeros_like(block)  # mixed partials of an additive function vanish
        cols.append(block)
    return np.hstack(cols)


def _additive_rows(axes, pts: np.ndarray, deriv):
    return _additive_design(axes, pts, deriv), slice(None)


def _instrument_level(aspec: AdditiveSpec, ispec: bs.InstrumentSpec, j: int) -> int:
    """Instrument resolution ceil((l + q) d / d_w) at component dimension J on d coordinates."""
    level = bs.resolution_for_dimension(aspec.components[0], j)
    return -(-(level + ispec.q) * len(aspec.components) // ispec.dim_w)


def additive_model(aspec: AdditiveSpec, ispec: bs.InstrumentSpec | None) -> est.SieveModel:
    """The additive model, the same component dimension J per coordinate.

    Its basis state is the per-axis ``(basis, integrals)`` pairs; it reports
    the full additive estimate on [0, 1]^d.
    """
    d = len(aspec.components)

    def design(sample: est.Sample, j: int):
        if sample.dim != d:
            raise ConfigurationError(f"sample has {sample.dim} coordinates, spec has {d}")
        quantiles = sample.x_quantiles
        bases = [bs.spec_for_dimension(aspec.components[i], j, data=quantiles[i : i + 1]) for i in range(d)]
        axes = tuple((basis, bs.basis_integrals(basis)) for basis in bases)
        bmat = None
        if ispec is not None:
            level_w = _instrument_level(aspec, ispec, j)
            w_basis = bs.make_spec(ispec.order, level_w, ispec.dim_w, ispec.knot_rule, data=sample.w_quantiles)
            bmat = bs.design_matrix(w_basis, sample.w)
        return axes, est.WindowedRows.whole(_additive_design(axes, sample.x, (0,) * d)), bmat

    def widths(j: int) -> tuple[int, int]:
        width = 1 + d * (j - 1)
        if ispec is None:
            return width, width
        return width, (2 ** _instrument_level(aspec, ispec, j) + ispec.order - 1) ** ispec.dim_w

    return est.SieveModel(
        design=design,
        template=aspec.components[0],
        widths=widths,
        selector=_additive_rows,
        grid_dim=d,
    )


def component_model(model: est.SieveModel, comp: int) -> est.SieveModel:
    """The additive ``model`` reporting its centered component ``comp`` on [0, 1].

    Each coordinate's block holds J - 1 columns, so the component reads the
    coefficients 1 + comp (J - 1) : 1 + (comp + 1)(J - 1).
    """

    def rows(axes, pts: np.ndarray, deriv):
        basis, integrals = axes[comp]
        p = basis.n_funcs - 1
        return _centered_block(basis, integrals, pts[:, 0], deriv[0]), slice(1 + comp * p, 1 + (comp + 1) * p)

    return replace(model, selector=rows, grid_dim=1)


def component_view(selection: ad.AdaptiveSelection, comp: int, grid) -> ad.AdaptiveSelection:
    """The additive selection reporting centered component ``comp`` on a 1-d grid.

    The view shares the selection's fits, dimensions and bootstrap threshold
    but builds its own band fields; ``ucb.band_deriv`` on it gives the
    component's uniform band.
    """
    backend = selection.backend
    return replace(
        selection,
        backend=backend.view(component_model(backend.model, comp)),
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


def nonparametric_cols(linear_cols, dim: int) -> list[int]:
    """The columns of a ``dim``-column X outside the linear block ``linear_cols``.

    Raises ConfigurationError naming the linear columns that repeat or lie
    outside 0..dim-1, or when no column is left nonparametric.
    """
    linear = list(linear_cols)
    bad = sorted({c for c in linear if not 0 <= c < dim or linear.count(c) > 1})
    if bad:
        raise ConfigurationError(
            f"linear columns {bad} are not distinct x-column indices in 0..{dim - 1}"
        )
    nonpar = [i for i in range(dim) if i not in linear]
    if not nonpar:
        raise ConfigurationError(f"linear columns {linear} leave no x column nonparametric")
    return nonpar


def partially_linear_model(plspec: PartiallyLinearSpec, ispec: bs.InstrumentSpec | None) -> est.SieveModel:
    """The partially linear model Y = h1(X1) + X2' beta + u; it reports the nonparametric block h1.

    The design is (psi^J(x1)', x2' - mean(x2)')', so beta is coef[J:]. With
    ``ispec=None`` the regressors instrument themselves (the exogenous case).
    """
    linear = list(plspec.linear_cols)
    d2 = len(linear)

    def design(sample: est.Sample, j: int):
        nonpar = nonparametric_cols(linear, sample.dim)
        if plspec.x1_spec.dim != len(nonpar):
            raise ConfigurationError("x1_spec dimension does not match the nonparametric block")
        x1, x2 = sample.x[:, nonpar], sample.x[:, linear]
        basis = bs.spec_for_dimension(plspec.x1_spec, j, data=tuple(sample.x_quantiles[i] for i in nonpar))
        psi1 = bs.design_matrix(basis, x1)
        bmat = bs.instrument_matrix(ispec, j, sample)
        return basis, est.WindowedRows.whole(np.hstack([psi1, x2 - x2.mean(axis=0)])), bmat

    return est.SieveModel(
        design=design,
        template=plspec.x1_spec,
        widths=lambda j: (j + d2, j + d2 if ispec is None else bs.instrument_dim(ispec, j)),
        selector=est.sieve_rows,
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
    bmat = bs.instrument_matrix(ispec, plan.j_max, sample)
    design = np.hstack([*dummy_blocks, bmat]) if dummy_blocks else bmat
    coef, *_ = np.linalg.lstsq(design, sample.y, rcond=max(design.shape) * np.finfo(float).eps)
    fe_total = np.zeros(n)
    offset = 0
    effects: list[dict] = []
    for levels, codes in level_maps:
        if levels.size < 2:
            effects.append({"levels": levels, "effects": np.zeros(levels.size)})
            continue
        gamma = coef[offset : offset + levels.size - 1]
        offset += levels.size - 1
        per_level = np.concatenate([[0.0], gamma])
        fe_total += per_level[codes]
        effects.append({"levels": levels, "effects": per_level})
    adjusted = est.Sample(sample.y - fe_total, sample.x, sample.w)
    info = {"effects": effects, "k_dim": bmat.shape[1], "fe_fitted": fe_total}
    return adjusted, info
