"""Test-session setup, run before any test module imports numpy."""

import os

# One BLAS thread, as in the benchmark and the golden runs. The acceptance
# studies run their replications in forked worker processes, and BLAS threads
# in each worker would oversubscribe the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
