"""Sieve NPIV estimation with a data-driven sieve dimension and
multiplier-bootstrap uniform confidence bands."""

__version__ = "0.1.0"

from .basis import (
    BasisSpec,
    InstrumentSpec,
    SupportTransform,
    TRADE_CLAMP,
    apply_transform,
    design_matrix,
    instrument_dim,
    make_spec,
)
from .estimator import Sample, SieveFit, VarianceField, build_field, evaluate, fit, npiv_model
from .bootstrap import (
    MultiplierPlan,
    multiplier_matrix,
    quantile,
    sup_t_contrast,
    sup_t_single,
)
from .adaptive import AdaptiveSelection, select
from .ucb import (
    BandResult,
    band_deriv,
    band_h,
    band_robustness,
    band_undersmoothed,
    excludes_constant,
)
from .extensions import (
    AdditiveSpec,
    FixedEffectsPlan,
    PartiallyLinearSpec,
    additive_model,
    partially_linear_model,
    partial_out_fixed_effects,
)
from .simgen import Design, McReport, TradeCalibration, a_sweep, generate, get_design, run_mc

__all__ = [
    "AdaptiveSelection",
    "AdditiveSpec",
    "BandResult",
    "BasisSpec",
    "Design",
    "FixedEffectsPlan",
    "InstrumentSpec",
    "McReport",
    "MultiplierPlan",
    "PartiallyLinearSpec",
    "Sample",
    "SieveFit",
    "SupportTransform",
    "TRADE_CLAMP",
    "TradeCalibration",
    "VarianceField",
    "a_sweep",
    "additive_model",
    "apply_transform",
    "band_deriv",
    "band_h",
    "band_robustness",
    "band_undersmoothed",
    "build_field",
    "design_matrix",
    "evaluate",
    "excludes_constant",
    "fit",
    "generate",
    "get_design",
    "instrument_dim",
    "make_spec",
    "multiplier_matrix",
    "npiv_model",
    "partial_out_fixed_effects",
    "partially_linear_model",
    "quantile",
    "run_mc",
    "select",
    "sup_t_contrast",
    "sup_t_single",
    "__version__",
]
