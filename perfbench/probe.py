"""Provenance of the program's runtime, printed as one JSON object.

Runs in a child process with the same environment as the program, so the BLAS
thread count it reports is the one the program gets.

    python3 perfbench/probe.py
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys


def _blas_libraries() -> dict:
    """Effective thread count and configuration of every OpenBLAS loaded."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, threads.argtypes = ctypes.c_int, []
                    config.restype, config.argtypes = ctypes.c_char_p, []
                    info = {"threads": threads(), "config": config().decode()}
                    break
            if info:
                break
        out[os.path.basename(path)] = info
    return out


def main() -> int:
    import numpy
    import scipy

    import hdnorm

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    json.dump({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hdnorm": hdnorm.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_libraries": _blas_libraries(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }, sys.stdout, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
