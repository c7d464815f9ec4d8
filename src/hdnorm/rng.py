"""Reproducible random streams and inverse-CDF samplers.

Every source of randomness in the package is a counter-based Philox stream
whose 128-bit key is derived from a user seed plus an integer path, via
``numpy.random.SeedSequence``.  Work units (one Monte-Carlo chunk, one data
replication, one covariance draw) each own a distinct path, so any partition
of the work across threads or processes produces bitwise-identical results.

Continuous variates are produced by inverse-CDF transforms of the uniform
stream (no rejection sampling), which keeps the draw count per variate fixed
and the values stable across platforms.

The two transforms, ``ndtri`` and ``gammaincinv``, are the only scipy
functions the package calls, and every other module takes them from here.
They are scipy.special's compiled ufuncs, loaded from
``scipy.special._ufuncs`` without running the package's ``__init__``, whose
array-API wrappers cost most of a CLI process's start-up (see ``_ufuncs``).
They are the very objects ``scipy.special`` exports, so the values do not
depend on how they were loaded.  ``numpy.random`` is imported without
``secrets``, which would load OpenSSL for an entropy source that keyed streams
never use; its stand-in supplies the same entropy (see ``_import_numpy_random``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import random
import sys
import threading
import types


class _BindSubmodules:
    """Import finder that binds ``submodules`` on scipy.special once it initialises.

    The import system binds a submodule on its package only when it loads the
    submodule, so those that ``_ufuncs`` loaded before the package would
    otherwise be in ``sys.modules`` but not attributes of it.
    """

    def __init__(self, submodules):
        self.submodules = submodules

    def find_spec(self, name, path=None, target=None):
        spec = (importlib.machinery.PathFinder.find_spec(name, path, target)
                if name == "scipy.special" else None)
        if spec is not None:
            exec_module = spec.loader.exec_module

            def exec_and_bind(module):
                exec_module(module)
                for key, submodule in self.submodules.items():
                    vars(module).setdefault(key, submodule)
                if self in sys.meta_path:
                    sys.meta_path.remove(self)

            spec.loader.exec_module = exec_and_bind
        return spec


def _ufuncs():
    """scipy.special's compiled ufunc module, or the package where that is unsafe.

    A module for the package is made from its spec but not executed, and is
    in ``sys.modules`` only while ``scipy.special._ufuncs`` imports under it.
    Another thread could import scipy.special in that window and get the
    empty package, so this is done only when no other Python thread runs.
    A later ``import scipy.special`` initialises the package in full, reuses
    the loaded ``_ufuncs`` and gets its submodules bound (``_BindSubmodules``).
    """
    if "scipy.special" not in sys.modules and threading.active_count() == 1:
        try:
            spec = importlib.util.find_spec("scipy.special")
            package = sys.modules["scipy.special"] = importlib.util.module_from_spec(spec)
            try:
                ufuncs = importlib.import_module("scipy.special._ufuncs")
            finally:
                del sys.modules["scipy.special"]
            sys.meta_path.insert(0, _BindSubmodules(
                {key: value for key, value in vars(package).items()
                 if isinstance(value, types.ModuleType)}))
            return ufuncs
        except (ImportError, AttributeError):
            pass
    import scipy.special
    return scipy.special


def _import_numpy_random() -> None:
    """Import ``numpy.random`` without ``secrets`` where that is safe.

    ``numpy.random.bit_generator`` takes only ``randbits`` from ``secrets``, as
    the OS entropy for a ``SeedSequence`` given none, but ``secrets`` imports
    ``hmac`` and with it OpenSSL's libcrypto, a few MB that keyed streams never
    use.  While numpy.random imports, ``sys.modules`` holds a stand-in whose
    ``randbits`` is what ``secrets.randbits`` is: ``SystemRandom().getrandbits``.
    A later ``import secrets`` loads the real module.  Another thread could
    import ``secrets`` in that window and get the stand-in, so this is done
    only when no other Python thread runs.
    """
    if ("numpy.random" not in sys.modules and "secrets" not in sys.modules
            and threading.active_count() == 1):
        stand_in = sys.modules["secrets"] = types.ModuleType("secrets")
        stand_in.randbits = random.SystemRandom().getrandbits
        try:
            import numpy.random  # noqa: F401
        finally:
            del sys.modules["secrets"]


# Before numpy itself: numpy 1.x imports numpy.random when it loads.
_import_numpy_random()
import numpy as np  # noqa: E402
from numpy.random import Generator, Philox, SeedSequence  # noqa: E402

_special = _ufuncs()
ndtri = _special.ndtri
gammaincinv = _special.gammaincinv

# Path domain tags.  Each top-level consumer of randomness uses its own tag so
# streams never collide across subsystems.
DOMAIN_NULL_RANGE = 1   # Monte-Carlo draws of the null range statistic
DOMAIN_DATA = 2         # scenario data replications
DOMAIN_COV = 3          # stochastic covariance construction
DOMAIN_RESERVOIR = 4    # reservoir subsampling in diagnostics

# Smallest uniform passed to the normal quantile function; keeps ndtri finite
# for the (probability ~2^-53) event that the generator returns exactly 0.
_U_FLOOR = 2.0 ** -54


def substream(seed: int, *path: int) -> Generator:
    """Return the generator for the stream identified by ``(seed, *path)``."""
    # Philox keys itself with the sequence's generate_state(2, np.uint64), the contract's key.
    return Generator(Philox(SeedSequence(seed, spawn_key=tuple(int(p) for p in path))))


def derive_seed(seed: int, *path: int) -> int:
    """Fold ``(seed, *path)`` into a single 64-bit seed for nested settings."""
    state = SeedSequence(seed, spawn_key=tuple(int(p) for p in path)).generate_state(1, np.uint64)
    return int(state[0])


# Each sampler below draws into ``out`` (of ``shape``, float64, C-contiguous)
# if given and transforms it in place; the values are the same either way.
def uniform(gen: Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform draws on (0, 1), never exactly zero."""
    u = gen.random(shape, out=out)
    np.clip(u, _U_FLOOR, None, out=u)
    return u


def standard_normal(gen: Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal draws via the inverse CDF of a uniform stream."""
    u = uniform(gen, shape, out)
    return ndtri(u, out=u)


def chi_square(gen: Generator, df: float, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Chi-square draws via the inverse regularized incomplete gamma."""
    u = uniform(gen, shape, out)
    return np.multiply(2.0, gammaincinv(df / 2.0, u, out=u), out=u)


def exponential(gen: Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Unit-rate exponential draws."""
    u = uniform(gen, shape, out)
    return np.negative(np.log(u, out=u), out=u)


def rademacher(gen: Generator, shape) -> np.ndarray:
    """Draws from {-1, +1} with equal probability."""
    return np.where(gen.random(shape) < 0.5, -1.0, 1.0)
