"""One BLAS thread for the whole suite, as CI and perfbench run it.

The dense solve's printed weights depend on the BLAS thread count, so the
suite pins it before numpy (and with it the BLAS library) is loaded.  A
value already set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
