"""Multilevel Monte Carlo for SDEs with antithetic splitting-scheme couplings."""

import os

# The engine's one BLAS call is a polyfit on a dozen points, so OpenBLAS's
# worker threads only cost CPU; this must run before any submodule imports
# numpy.  A value already set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
