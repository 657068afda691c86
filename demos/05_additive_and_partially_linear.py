"""Structured models: additive components, partially linear blocks, and
fixed-effect stripping.

Run with:  python demos/05_additive_and_partially_linear.py
"""

import numpy as np

from npivband import (
    AdditiveSpec,
    BasisSpec,
    FixedEffectsPlan,
    InstrumentSpec,
    MultiplierPlan,
    PartiallyLinearSpec,
    Sample,
    additive_model,
    band_deriv,
    evaluate,
    fit,
    partial_out_fixed_effects,
    partially_linear_model,
    select,
)
from npivband.adaptive import default_grid, run_selection
from npivband.estimator import SieveBackend
from npivband.extensions import component_model, component_view

rng = np.random.default_rng(5)
cubic = BasisSpec(4, 0)

# ---------------------------------------------------------------------------
# Additive model: one component dimension, centered component estimates
# ---------------------------------------------------------------------------

n = 1200
x = rng.random((n, 2))
y = 1.0 + np.sin(3 * x[:, 0]) + x[:, 1] ** 2 + 0.4 * rng.standard_normal(n)
sample = Sample(y, x, x)

aspec = AdditiveSpec((cubic, cubic))
plan = MultiplierPlan(n_draws=300, base_seed=2)
# The selection contrasts the full additive estimate on 25 x 25 grid points.
model = additive_model(aspec, None)
selection = run_selection(SieveBackend(sample, model), plan, "regression", default_grid(2, 25))
print("additive component dimension J~:", selection.j_tilde)

# A component is the additive model read through that component's selector.
g1 = np.linspace(0, 1, 50)
comp0 = evaluate(component_model(model, 0), selection.backend.fit(selection.j_tilde), g1)
centered_truth = np.sin(3 * g1) - (1 - np.cos(3.0)) / 3.0
print("component 1 max error vs centered truth:",
      round(float(np.abs(comp0 - centered_truth).max()), 3))

# A component is one more linear functional of the same fits, so its band is
# the ordinary band of the selection viewed through that component.
band0 = band_deriv(component_view(selection, 0, g1), plan=plan, alpha=0.05, a=0)
inside = bool(np.all(np.abs(band0.center - centered_truth) <= band0.halfwidth))
print("component band covers the centered truth:", inside)

# ---------------------------------------------------------------------------
# Partially linear model: nonparametric block plus a parametric slope
# ---------------------------------------------------------------------------

x2 = np.clip(0.5 + 0.2 * rng.standard_normal(n), 0, 1)
xp = np.column_stack([x[:, 0], x2])
yp = np.sin(4 * x[:, 0]) + 1.5 * x2 + 0.4 * rng.standard_normal(n)
pl_sample = Sample(yp, xp, xp)
plspec = PartiallyLinearSpec(cubic, linear_cols=(1,))
pl_fit = fit(pl_sample, partially_linear_model(plspec, None), 7)
# The design stacks the J nonparametric columns before the linear block.
print("\npartially linear slope estimate:", round(float(pl_fit.coef[pl_fit.j]), 3), "(truth 1.5)")

# ---------------------------------------------------------------------------
# Fixed-effect stripping (the first stage of the trade pipeline)
# ---------------------------------------------------------------------------

exporters = rng.integers(0, 20, n)
importers = rng.integers(0, 15, n)
delta = rng.standard_normal(20)
w = np.clip(x[:, 0] + 0.1 * rng.standard_normal(n), 0, 1)
y_fe = np.sin(3 * x[:, 0]) + delta[exporters] + 0.3 * rng.standard_normal(n)
panel = Sample(y_fe, x[:, 0], w)

ispec = InstrumentSpec(cubic, q=2)
j_max = select(panel, cubic, ispec, plan=plan).j_hat_max
adjusted, info = partial_out_fixed_effects(panel, FixedEffectsPlan((exporters, importers), j_max), ispec)
recovered = info["effects"][0]["effects"]
corr = np.corrcoef(recovered - recovered.mean(), delta - delta.mean())[0, 1]
print("\nfirst-stage dimension K(J_hat_max):", info["k_dim"])
print("correlation of recovered exporter effects with truth:", round(float(corr), 3))
