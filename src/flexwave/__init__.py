"""Periodic flexural-gravity water waves: traveling-wave solver, Floquet
spectral stability and the matching weakly nonlinear asymptotics.

flexwave runs on one BLAS thread unless the caller sets a count.  When none
of `OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS` and `MKL_NUM_THREADS` is set to
a non-empty value, importing the package sets all three to "1"; a value the
caller sets wins and is left as given, so `OPENBLAS_NUM_THREADS=2 flexwave
...` runs on two.  Each Floquet exponent is one small dense eigensolve (66 x
66 to 130 x 130), which gains little from a thread pool, and two runs
started at once on 2 vCPUs slowed each other 4 to 11 times under the
default pool.  The BLAS library reads these variables once, when numpy
loads it, so the setting only takes effect when flexwave is imported before
numpy: the `flexwave` command always is, and a library caller who imports
numpy first keeps numpy's own thread count.  The setting also applies to the
rest of a library caller's process, and to the processes it starts.
"""

import os

# Runs before any submodule loads numpy: see the module docstring.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(os.environ.get(var) for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

__version__ = "0.1.0"
