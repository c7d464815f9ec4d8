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
They, ``Generator``, ``Philox`` and ``SeedSequence`` come from extension
modules loaded without the ``__init__`` of ``numpy.random`` (``mtrand``,
``MT19937``, ``SFC64``, ``_pickle``), ``scipy``, ``scipy._lib`` (``_pep440``,
``__config__``, and ``_testutils``, which imports ``subprocess``) or
``scipy.special`` (array-API wrappers that load ``numpy.f2py``); they are the
very objects those packages export (see ``_import_bare``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import random
import sys
import threading
import types


class _BindSubmodules:
    """Import finder that runs a package ``_import_bare`` skipped, then binds on it
    the submodules loaded under its stand-in, as a plain import binds them.

    ``submodules`` maps each skipped package to ``{attribute: module}``.
    """

    def __init__(self, submodules):
        self.submodules = submodules

    def find_spec(self, name, path=None, target=None):
        spec = (importlib.machinery.PathFinder.find_spec(name, path, target)
                if name in self.submodules else None)
        if spec is not None:
            exec_module = spec.loader.exec_module

            def exec_and_bind(module):
                exec_module(module)
                for key, submodule in self.submodules.pop(name).items():
                    vars(module).setdefault(key, submodule)
                if not self.submodules and self in sys.meta_path:
                    sys.meta_path.remove(self)

            spec.loader.exec_module = exec_and_bind
        return spec


def _import_bare(packages, *names):
    """Import the modules ``names`` without running the ``__init__`` of ``packages``.

    Each package, parents first, is a module made from its spec but not
    executed, in ``sys.modules`` only while ``names`` import.  Another thread
    could import it then and get the empty module, so this is a plain import
    unless one Python thread runs and none of ``packages`` is loaded, or if the
    bare load fails.  A later import of a skipped package runs it in full
    and binds the modules loaded under its stand-in (``_BindSubmodules``).
    """
    if threading.active_count() == 1 and not any(p in sys.modules for p in packages):
        stand_ins = {}
        try:
            for package in packages:
                spec = importlib.util.find_spec(package)
                stand_ins[package] = sys.modules[package] = importlib.util.module_from_spec(spec)
            return [importlib.import_module(name) for name in names]
        except (ImportError, AttributeError):
            pass
        finally:
            for package in stand_ins:
                del sys.modules[package]
            if stand_ins:
                sys.meta_path.insert(0, _BindSubmodules(
                    {package: {key: value for key, value in vars(stand_in).items()
                               if isinstance(value, types.ModuleType)}
                     for package, stand_in in stand_ins.items()}))
    return [importlib.import_module(name) for name in names]


# numpy.random.bit_generator takes only ``randbits`` from ``secrets``, the OS
# entropy for a SeedSequence given none, but secrets imports hmac and with it
# OpenSSL.  The stand-in's ``randbits`` is ``secrets.randbits``; a later
# ``import secrets`` loads the real module.  numpy 1.x imports numpy.random
# with numpy itself.
_stand_in = "secrets" not in sys.modules and threading.active_count() == 1
if _stand_in:
    sys.modules["secrets"] = types.ModuleType("secrets")
    sys.modules["secrets"].randbits = random.SystemRandom().getrandbits
try:
    import numpy as np
    _generator, _philox, _bit_generator = _import_bare(
        ("numpy.random",), "numpy.random._generator", "numpy.random._philox",
        "numpy.random.bit_generator")
finally:
    if _stand_in:
        del sys.modules["secrets"]
Generator, Philox, SeedSequence = _generator.Generator, _philox.Philox, _bit_generator.SeedSequence

# After numpy.random: the process's high-water mark depends on allocation order.
(_ufuncs,) = _import_bare(("scipy", "scipy._lib", "scipy.special"), "scipy.special._ufuncs")
ndtri = _ufuncs.ndtri
gammaincinv = _ufuncs.gammaincinv

# Path domain tags.  Each top-level consumer of randomness uses its own tag so
# streams never collide across subsystems.
DOMAIN_NULL_RANGE = 1   # Monte-Carlo draws of the null range statistic
DOMAIN_DATA = 2         # scenario data replications
DOMAIN_COV = 3          # stochastic covariance construction
DOMAIN_RESERVOIR = 4    # reservoir subsampling in diagnostics

# Smallest uniform passed to the normal quantile function; keeps ndtri finite
# for the (probability ~2^-53) event that the generator returns exactly 0.
# Flooring is non-decreasing, so it may follow a selection of order statistics
# instead of preceding it (``montecarlo._null_chunk``).
_U_FLOOR = 2.0 ** -54


def substream(seed: int, *path: int) -> Generator:
    """Return the generator for the stream identified by ``(seed, *path)``."""
    # Philox keys itself with the sequence's generate_state(2, np.uint64), the contract's key.
    return Generator(Philox(SeedSequence(seed, spawn_key=tuple(map(int, path)))))


def derive_seed(seed: int, *path: int) -> int:
    """Fold ``(seed, *path)`` into a single 64-bit seed for nested settings."""
    state = SeedSequence(seed, spawn_key=tuple(map(int, path))).generate_state(1, np.uint64)
    return int(state[0])


# Each sampler below draws into ``out`` (of ``shape``, float64, C-contiguous)
# if given and transforms it in place; the values are the same either way.
def uniform(gen: Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform draws on (0, 1), never exactly zero."""
    u = gen.random(shape, out=out)
    np.maximum(u, _U_FLOOR, out=u)
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
