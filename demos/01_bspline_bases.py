"""Walk through the B-spline sieve bases: grids, evaluation, derivatives.

Run with:  python demos/01_bspline_bases.py
"""

from itertools import takewhile

import numpy as np

from npivband import (
    BasisSpec,
    InstrumentSpec,
    SupportTransform,
    TRADE_CLAMP,
    apply_transform,
    design_matrix,
    instrument_dim,
)
from npivband.basis import admissible_dimensions

# ---------------------------------------------------------------------------
# The admissible dimension grid
# ---------------------------------------------------------------------------
# A cubic basis (order 4) at resolution l has 2^l + 3 functions, so the
# dimensions we can search over are 4, 5, 7, 11, 19, 35, 67, 131, ...
# (``admissible_dimensions`` yields them without end; a fit keeps those whose
# widths fit the sample, ``estimator.candidate_dims``).



def dimensions_up_to(spec, cap):
    return list(takewhile(lambda j: j <= cap, admissible_dimensions(spec)))


cubic = BasisSpec(order=4, resolution=0)
print("cubic dimension grid up to 200:", dimensions_up_to(cubic, 200))
print("tensor grid in d=2 up to 130:  ", dimensions_up_to(BasisSpec(4, 0, dim=2), 130))

# ---------------------------------------------------------------------------
# Evaluation: partition of unity and local support
# ---------------------------------------------------------------------------

spec = BasisSpec(order=4, resolution=2)  # 7 basis functions, knots at 1/4, 1/2, 3/4
x = np.linspace(0, 1, 9)
values = design_matrix(spec, x)
print("\nbasis values at x=0.5:", np.round(design_matrix(spec, 0.5)[0], 4))
print("row sums (partition of unity):", np.round(values.sum(axis=1), 12))
print("nonzero entries per row:", np.count_nonzero(values, axis=1))

# Derivatives are analytic; entries of the differentiated basis sum to zero.
d1 = design_matrix(spec, 0.5, 1)[0]
print("first-derivative row at 0.5 sums to", round(d1.sum(), 14))

# ---------------------------------------------------------------------------
# The instrument dimension map K(J)
# ---------------------------------------------------------------------------
# Instruments use a basis one order higher and a resolution offset q, which
# fixes K(J) >= J along the whole grid.

ispec = InstrumentSpec(cubic, q=2)
for j in dimensions_up_to(cubic, 40):
    print(f"J = {j:3d}  ->  K(J) = {instrument_dim(ispec, j)}")

# ---------------------------------------------------------------------------
# Support transforms
# ---------------------------------------------------------------------------
# Raw data must live on [0, 1] before basis evaluation. Three monotone maps
# are provided; the clamp rule is the one used for log participation shares.

raw = np.array([-12.0, -8.0, -4.0, -1.0])
print("\nclamp rule on log shares:", apply_transform(TRADE_CLAMP, raw))
print("empirical CDF of (3, 1, 2):", apply_transform(SupportTransform("empirical_cdf"), [3, 1, 2]))
print("affine [0, 10] of 5:", apply_transform(SupportTransform("affine", lo=0, hi=10), [5.0]))
