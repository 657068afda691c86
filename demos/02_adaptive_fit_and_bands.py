"""Data-driven sieve dimension and uniform confidence bands, end to end.

Simulates the endogenous design with structural function sin(4x) log(x),
selects the sieve dimension, and builds the three kinds of bands.

Run with:  python demos/02_adaptive_fit_and_bands.py
"""

import numpy as np

from npivband import (
    MultiplierPlan,
    band_h,
    band_robustness,
    band_undersmoothed,
    build_field,
    generate,
    get_design,
    select,
)

design = get_design("npiv_sine_log")
sample, truth = generate(design, n=2500, seed=42)
plan = MultiplierPlan(n_draws=500, base_seed=0)
grid = design.report_grid()

# ---------------------------------------------------------------------------
# Step 1-3: the data-driven sieve dimension
# ---------------------------------------------------------------------------

selection = select(sample, design.x_spec, design.ispec, plan=plan, grid=grid)
print("upper truncation point:", selection.j_hat_max)
print("index set searched:    ", selection.index_set)
print("selected dimension:    ", selection.j_tilde)
print("bootstrap threshold:   ", round(selection.theta_star, 3))
print("first-stage singular values:",
      {j: round(v, 3) for j, v in selection.s_hat_by_j.items()})

# ---------------------------------------------------------------------------
# Steps 4-5: the 95% uniform confidence band
# ---------------------------------------------------------------------------

band = band_h(selection, plan=plan, alpha=0.05)
truth_vals = truth.h(grid[:, 0])
covered = bool(np.all((band.lower <= truth_vals) & (truth_vals <= band.upper)))
print("\n95% band: z* =", round(band.z_star, 3),
      " inflation A_hat * theta* =", round(band.a_hat * band.theta_star, 3))
print("band covers the truth on the whole grid:", covered)
print("average band width:", round(float(band.width.mean()), 3))

# The robustness variant widens the inflation term where the bias allowance
# dominates; with a sane smoothness bound it coincides with the band above.
robust = band_robustness(selection, plan=plan, alpha=0.05, p_lower=1.0)
print("robustness band / baseline width ratio:",
      round(float((robust.width / band.width).max()), 3))

# ---------------------------------------------------------------------------
# Comparison: undersmoothed bands at a deterministic J
# ---------------------------------------------------------------------------

for j_fixed in (7, 11):
    field = build_field(selection.backend, grid, 0, (j_fixed,))
    under = band_undersmoothed(field, j_fixed, plan=plan, alpha=0.05)
    ratio = float(under.width.mean() / band.width.mean())
    print(f"undersmoothed J={j_fixed}: width ratio vs data-driven = {ratio:.2f}")
