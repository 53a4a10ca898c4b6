"""Test-session set-up: one BLAS thread.

OpenBLAS reads its thread count when numpy loads it, so the variables are
set here, before any test module imports numpy. The suite's matrices are
small: more threads only add contention, and with two threads competing
for the cores with another busy process the joint coder's wall time in
test_acceptance criterion 5 grew several fold.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
