"""The BLAS thread-count variables, which take effect only before numpy loads.

numpy and scipy each load an OpenBLAS that reads these variables once, when
it is loaded, and otherwise starts a busy-waiting thread per extra core.
hdnorm runs its parallel work in worker processes and band threads, so BLAS
gains nothing from threads of its own.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_to_one_blas_thread() -> None:
    """Set each unset BLAS thread-count variable to "1" if numpy is not loaded yet.

    A variable the caller set keeps its value, and a process that already
    loaded numpy sees ``os.environ`` unchanged: its BLAS has read its thread
    count already.
    """
    if "numpy" not in sys.modules:
        for var in BLAS_THREAD_VARS:
            os.environ.setdefault(var, "1")
