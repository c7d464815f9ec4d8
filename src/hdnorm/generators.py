"""Covariance builders and data-generating scenarios.

Covariance structures
---------------------
``identity``       the d x d identity
``ar1``            entries rho^|i-j|, |rho| < 1
``sparse_random``  unit diagonal, sparse Unif[0,1] off-diagonals, shifted and
                   rescaled to be positive definite
``wishart``        W W^T / d with W a d x d standard normal draw
``geom_decay``     diag(rate^1, ..., rate^d)

Scenario families
-----------------
``null_gaussian``            N(0, Sigma)
``loc_mixture``              two Gaussians separated by shift * 1_d
``cov_mixture``              balanced-by-default scale mixture (1 +/- gap) Sigma
``multivariate_t``           t with ``dof`` degrees of freedom and scale Sigma
``chisq_marginals``          iid chi-square coordinates, optionally standardized
                             and mixed through Sigma^{1/2}
``elliptical_uniform_scale`` Gaussian scale mixture, scales ~ Unif(sigma0, sigma0 + delta)
``leptokurtic``              independent coordinates with excess kurtosis, rotated
``bai_sarandasa``            factor model with a shared random sign coupling
``mixed_marginals``          Gaussian coordinates with a t-distributed block

Each family is one ``Family`` record in ``FAMILIES``: its parameters and
their defaults, its sampler ``sample(s, p, gen)`` and its population
covariance ``covariance(s, p, cov)``.  A ``Scenario`` judges itself when it is
built: ``_params`` checks and fills in its parameters once, into the read-only
``resolved`` that ``sample_scenario`` and ``scenario_covariance`` read.  Each covariance
kind's parameters and their defaults are listed once, in ``COV_KINDS``.

Samplers are pure functions of an explicit generator stream, and each names
the factor of Sigma it transports its draws with.  Gaussian drivers use the
cheaper Cholesky factor ("chol"); non-Gaussian drivers use the symmetric
square root ("sym") or, for the leptokurtic family, the eigenvector factor
("eigen"), since for non-Gaussian inputs the factors produce different laws.
A sampler draws into the first of two n x d buffers, ``buf[0]``, and acts on
it in place; a transport by a full factor writes into ``buf[1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from . import rng
from .errors import InvalidScenarioParams, NotPSD, _count, _integer
from .moments import DataMatrix

_PSD_TOL = 1e-8

# Each covariance kind's parameters and their defaults; None means required.
COV_KINDS: Dict[str, Dict[str, Optional[float]]] = {
    "identity": {},
    "ar1": {"rho": None},
    "sparse_random": {"density": 0.02, "jitter": 0.05},
    "wishart": {},
    "geom_decay": {"rate": 0.93},
}
COV_PARAMS = tuple(dict.fromkeys(name for takes in COV_KINDS.values() for name in takes))


def _real(value, *what: str) -> float:
    """``value`` as a float if a finite real number, not a bool; else ``InvalidScenarioParams``."""
    if type(value) is float or not isinstance(value, bool) and isinstance(value, Real):
        try:
            value = float(value)
        except OverflowError:
            raise InvalidScenarioParams(f"{' '.join(what)} is too large for a float") from None
        if math.isfinite(value):
            return value
        raise InvalidScenarioParams(f"{' '.join(what)} must be finite, got {value!r}")
    raise InvalidScenarioParams(f"{' '.join(what)} must be a number, got {value!r}")


@dataclass(frozen=True)
class CovSpec:
    """A covariance structure specification; hashable so factors can be cached.

    Parameters left as None take their kind's default from ``COV_KINDS``;
    ``seed`` keys the stream of the stochastic kinds; ``d`` and ``seed`` are kept as ints.
    """

    kind: str
    d: int
    rho: Optional[float] = None
    density: Optional[float] = None
    jitter: Optional[float] = None
    rate: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        takes = COV_KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if takes is None:
            raise InvalidScenarioParams(
                f"unknown covariance kind {self.kind!r}; choose from {', '.join(COV_KINDS)}")
        object.__setattr__(self, "d", _count(self.d, "covariance d", 1, InvalidScenarioParams))
        object.__setattr__(self, "seed",
                           _count(self.seed, "covariance seed", 0, InvalidScenarioParams))
        for name in COV_PARAMS:
            value = getattr(self, name)
            if value is not None and name not in takes:
                raise InvalidScenarioParams(f"{self.kind} covariance takes no {name!r}")
            value = takes.get(name) if value is None else _real(value, self.kind, name)
            object.__setattr__(self, name, value)
        if self.kind == "ar1" and not (self.rho is not None and abs(self.rho) < 1.0):
            raise InvalidScenarioParams(f"ar1 needs |rho| < 1, got {self.rho}")
        if self.kind == "geom_decay" and not self.rate > 0.0:
            raise InvalidScenarioParams(f"geom_decay needs a positive rate, got {self.rate}")


def _cov_diagonal(spec: CovSpec) -> Optional[np.ndarray]:
    """Diagonal of the covariance when the structure is diagonal, else None."""
    if spec.kind == "identity":
        return np.ones(spec.d)
    if spec.kind == "geom_decay":
        return spec.rate ** np.arange(1, spec.d + 1)
    return None


# Stream sub-tags so different stochastic builders never share draws.
_COV_KIND_TAG = {"sparse_random": 1, "wishart": 2}


def sparse_random_components(spec: CovSpec) -> Tuple[np.ndarray, float]:
    """The raw sparse matrix and the diagonal shift used to make it PD."""
    d = spec.d
    gen = rng.substream(spec.seed, rng.DOMAIN_COV, _COV_KIND_TAG["sparse_random"], d)
    upper = np.triu(gen.random((d, d)) * (gen.random((d, d)) < spec.density), k=1)
    star = upper + upper.T + np.eye(d)
    lam_min = float(np.linalg.eigvalsh(star)[0])
    delta = max(-lam_min, 0.0) + spec.jitter
    return star, delta


def build_covariance(spec: CovSpec) -> np.ndarray:
    """Materialize the covariance matrix for a specification."""
    diag = _cov_diagonal(spec)
    if diag is not None:
        return np.diag(diag)
    cov = _dense_covariance(spec)
    _check_psd(spec, np.linalg.eigvalsh(cov))
    return cov


def _dense_covariance(spec: CovSpec) -> np.ndarray:
    """The covariance of a kind that is not diagonal, not yet checked to be PSD."""
    if spec.kind == "ar1":
        lags = np.arange(spec.d)
        return (spec.rho ** lags)[abs(lags[:, None] - lags)]
    if spec.kind == "sparse_random":
        star, delta = sparse_random_components(spec)
        return (star + delta * np.eye(spec.d)) / (1.0 + delta)
    gen = rng.substream(spec.seed, rng.DOMAIN_COV, _COV_KIND_TAG["wishart"], spec.d)
    W = rng.standard_normal(gen, (spec.d, spec.d))
    return (W @ W.T) / spec.d


def _check_psd(spec: CovSpec, eigs: np.ndarray) -> None:
    """``NotPSD`` unless the ascending eigenvalues ``eigs`` are PSD to within ``_PSD_TOL``."""
    if eigs[0] < -_PSD_TOL * max(1.0, eigs[-1]):
        raise NotPSD(f"covariance {spec.kind!r} has eigenvalue {eigs[0]}")


@lru_cache(maxsize=1)
def _factor(spec: CovSpec, form: str):
    """Transport factor, cached for the last covariance only: a process runs one
    cell's replications back to back, and older d x d factors are not kept alive.
    Returns None for the identity, the 1-D root of a diagonal covariance, or
    else a 2-D factor to multiply on the right, for ``_apply_factor``.

    ``form`` selects the factorization: "chol" (Gaussian drivers), "sym"
    (symmetric square root) or "eigen" (eigenvector-scaled columns).  The
    factorization is the PSD check: a Cholesky factor exists only for a
    positive definite matrix, and ``eigh``'s eigenvalues are checked as
    ``build_covariance`` checks its own.
    """
    diag = _cov_diagonal(spec)
    if diag is not None:
        return None if spec.kind == "identity" else np.sqrt(diag)
    cov = _dense_covariance(spec)
    if form == "chol":
        try:
            return np.linalg.cholesky(cov).T
        except np.linalg.LinAlgError:
            form = "sym"  # PSD-singular: fall back to the symmetric root
    lam, U = np.linalg.eigh(cov)
    _check_psd(spec, lam)
    lam = np.clip(lam, 0.0, None)
    if form == "sym":
        S = (U * np.sqrt(lam)) @ U.T
        return (S + S.T) / 2.0
    return (U * np.sqrt(lam)).T  # "eigen"


def _apply_factor(Z: np.ndarray, factor: Optional[np.ndarray], out: np.ndarray) -> np.ndarray:
    """``Z`` transported by ``factor``: unchanged for None, in place for a
    diagonal root, else into ``out``."""
    if factor is None:
        return Z
    if factor.ndim == 1:
        return np.multiply(Z, factor, out=Z)
    return np.matmul(Z, factor, out=out)


class _ReadOnlyParams(dict):
    """A dict that refuses every change, and pickles as the dict it holds."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("scenario params are read-only; build a new Scenario to change them")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class Scenario:
    """A generative model: family name, sample shape, covariance, parameters; checked when
    built, which keeps ``n`` and ``d`` as ints, its parameters with defaults filled in as
    ``resolved`` and a copy of ``params`` (``_echo``), both read-only, so what was checked runs."""

    family: str
    n: int
    d: int
    cov: CovSpec
    params: Mapping[str, object] = field(default_factory=dict)
    resolved: Mapping[str, object] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "n", 1, InvalidScenarioParams))
        object.__setattr__(self, "d", _count(self.d, "d", 1, InvalidScenarioParams))
        object.__setattr__(self, "resolved", _ReadOnlyParams(_params(self)))
        object.__setattr__(self, "params", _ReadOnlyParams(
            {k: _echo(v) for k, v in self.params.items()}))


def _echo(value):
    """A checked parameter as kept: lists as tuples, flags as bools, numbers as ints or floats."""
    if isinstance(value, (bool, np.bool_, list, tuple)):
        return tuple(map(_echo, value)) if isinstance(value, (list, tuple)) else bool(value)
    return float(value) if _integer(value) is None else _integer(value)


class PowerOfD(NamedTuple):
    """A default of ``coeff * d**exponent``; a spec may give the value itself,
    or ``<key>_coeff`` and ``<key>_exponent`` in place of either factor."""

    coeff: float
    exponent: float


def _gaussian(s, p, gen, buf):
    """n rows of N(0, Sigma), through the Cholesky factor."""
    Z = rng.standard_normal(gen, (s.n, s.d), buf[0])
    return _apply_factor(Z, _factor(s.cov, "chol"), buf[1])


def _loc_mixture(s, p, gen, buf):
    second = gen.random(s.n) >= p["weights"][0]
    X = _gaussian(s, p, gen, buf)
    return np.add(X, np.where(second, p["shift"], 0.0)[:, None], out=X)


def _cov_mixture(s, p, gen, buf):
    gap = p["gap"]
    second = gen.random(s.n) >= p["weights"][0]
    scale = np.where(second, math.sqrt(1.0 - gap), math.sqrt(1.0 + gap))
    X = _gaussian(s, p, gen, buf)
    return np.multiply(X, scale[:, None], out=X)


def _multivariate_t(s, p, gen, buf):
    X = _gaussian(s, p, gen, buf)
    g = rng.chi_square(gen, p["dof"], s.n)
    return np.divide(X, np.sqrt(g / p["dof"])[:, None], out=X)


def _chisq_marginals(s, p, gen, buf):
    dof = p["dof"]
    X = rng.chi_square(gen, dof, (s.n, s.d), buf[0])
    if not p["standardize"]:
        return X
    np.divide(np.subtract(X, dof, out=X), math.sqrt(2.0 * dof), out=X)
    return _apply_factor(X, _factor(s.cov, "sym"), buf[1])


def _elliptical_uniform_scale(s, p, gen, buf):
    X = _gaussian(s, p, gen, buf)
    eps = p["sigma0"] + p["delta"] * gen.random(s.n)
    return np.multiply(X, eps[:, None], out=X)


def _leptokurtic(s, p, gen, buf):
    a2, b2 = _leptokurtic_variances(p["excess_kurtosis"])
    Z = rng.standard_normal(gen, (s.n, s.d), buf[0])
    first = gen.random((s.n, s.d), out=buf[1]) < 0.5
    np.multiply(Z, math.sqrt(a2), out=Z, where=first)
    np.multiply(Z, math.sqrt(b2), out=Z, where=np.logical_not(first, out=first))
    return _apply_factor(Z, _factor(s.cov, "eigen"), buf[1])


def _leptokurtic_variances(excess: float) -> Tuple[float, float]:
    """Closed-form two-point scale calibration: variance 1, fourth moment 3 + excess.

    Each coordinate is a balanced mixture of N(0, a2) and N(0, b2) with
    a2 = 1 + sqrt(excess/3), b2 = 1 - sqrt(excess/3); feasible for excess in [0, 3].
    """
    root = math.sqrt(excess / 3.0)
    return 1.0 + root, 1.0 - root


def _bai_sarandasa(s, p, gen, buf):
    # Standardized-exponential factors sharing one random sign per row:
    # marginally symmetric, jointly dependent, all moments finite.
    T = np.subtract(rng.exponential(gen, (s.n, s.d), buf[0]), 1.0, out=buf[0])
    u = rng.rademacher(gen, s.n)
    return _apply_factor(np.multiply(u[:, None], T, out=T), _factor(s.cov, "sym"), buf[1])


def _mixed_marginals(s, p, gen, buf):
    # Both blocks are drawn into the second buffer, then joined into the first.
    k, t_dof = p["t_columns"], p["t_dof"]
    scratch = buf[1].reshape(-1)
    Zg = rng.standard_normal(gen, (s.n, s.d - k), scratch[:s.n * (s.d - k)].reshape(s.n, -1))
    Zt = rng.standard_normal(gen, (s.n, k), scratch[s.n * (s.d - k):].reshape(s.n, -1))
    g = rng.chi_square(gen, t_dof, s.n)
    np.divide(Zt, np.sqrt(g / t_dof)[:, None], out=Zt)
    return np.concatenate([Zg, Zt], axis=1, out=buf[0])


def _t_variance(dof: float) -> float:
    """Variance of a t coordinate with unit scale, finite only for dof > 2."""
    if dof <= 2:
        raise InvalidScenarioParams(f"t covariance finite only for dof > 2, got {dof}")
    return dof / (dof - 2.0)


def _mixed_marginals_covariance(s, p, cov):
    diag = np.ones(s.d)
    diag[s.d - p["t_columns"]:] = _t_variance(p["t_dof"])
    return np.diag(diag)


class Family(NamedTuple):
    """A scenario family: its parameters' defaults; ``sample(s, p, gen, buf)``,
    which draws the n x d sample from the stream ``gen`` into the buffers
    ``buf`` and returns the one holding it; and ``covariance(s, p, cov)``, the
    population covariance given the covariance spec's matrix ``cov``.  ``p``
    is the scenario's ``resolved`` parameters."""

    defaults: Mapping[str, object]
    sample: Callable[[Scenario, Dict[str, object], np.random.Generator, np.ndarray], np.ndarray]
    covariance: Callable[[Scenario, Dict[str, object], np.ndarray], np.ndarray]


def _unchanged(s, p, cov):
    return cov


FAMILIES: Dict[str, Family] = {
    "null_gaussian": Family({}, _gaussian, _unchanged),
    "loc_mixture": Family(
        {"shift": PowerOfD(2.15, -0.25), "weights": (0.5, 0.5)}, _loc_mixture,
        lambda s, p, cov: cov + (p["weights"][0] * p["weights"][1] * p["shift"] * p["shift"]
                                 * np.ones((s.d, s.d)))),
    "cov_mixture": Family(
        {"gap": PowerOfD(1.4, -0.5), "weights": (0.5, 0.5)}, _cov_mixture,
        lambda s, p, cov: (p["weights"][0] * (1.0 + p["gap"])
                           + p["weights"][1] * (1.0 - p["gap"])) * cov),
    "multivariate_t": Family({"dof": PowerOfD(1.0, 1.0)}, _multivariate_t,
                             lambda s, p, cov: _t_variance(p["dof"]) * cov),
    "chisq_marginals": Family(
        {"dof": 6.0, "standardize": False}, _chisq_marginals,
        lambda s, p, cov: cov if p["standardize"] else 2.0 * p["dof"] * np.eye(s.d)),
    "elliptical_uniform_scale": Family(
        {"sigma0": 1.0, "delta": 0.0}, _elliptical_uniform_scale,
        lambda s, p, cov: (p["sigma0"] * p["sigma0"] + p["sigma0"] * p["delta"]
                           + p["delta"] * p["delta"] / 3.0) * cov),
    "leptokurtic": Family({"excess_kurtosis": 1.0}, _leptokurtic, _unchanged),
    "bai_sarandasa": Family({}, _bai_sarandasa, _unchanged),
    "mixed_marginals": Family({"t_fraction": 0.5, "t_dof": 25.0}, _mixed_marginals,
                              _mixed_marginals_covariance),
}


def _params(s: Scenario) -> Dict[str, object]:
    """The scenario's parameters, with its family's defaults filled in and checked.

    Called once, by ``Scenario`` when built, and the only reader of ``s.params``,
    so the sampler, the population covariance and the spec parser accept and
    reject the same scenarios.  Mixed marginals also get ``t_columns``.
    """
    fam, n, d = s.family, s.n, s.d
    _real(n, "n"), _real(d, "d")  # each refused if too large for a float
    if not isinstance(s.cov, CovSpec):
        raise InvalidScenarioParams(f"scenario cov must be a CovSpec, got {s.cov!r}")
    if s.cov.d != d:
        raise InvalidScenarioParams(f"need a covariance of dimension d={d}, got {s.cov.d}")
    if not isinstance(fam, str) or fam not in FAMILIES:
        raise InvalidScenarioParams(
            f"unknown scenario family {fam!r}; choose from {', '.join(FAMILIES)}")
    if not isinstance(s.params, Mapping):
        raise InvalidScenarioParams(f"scenario params must be an object, got {s.params!r}")
    given, p = dict(s.params), {}
    for key, default in FAMILIES[fam].defaults.items():
        if isinstance(default, PowerOfD):
            coeff = _real(given.pop(f"{key}_coeff", default.coeff), fam, f"{key}_coeff")
            exponent = _real(given.pop(f"{key}_exponent", default.exponent), fam, f"{key}_exponent")
            try:
                default = coeff * float(d) ** exponent
            except OverflowError:
                raise InvalidScenarioParams(
                    f"{fam} {key} at d={d} is too large for a float") from None
        value = given.pop(key, default)
        if isinstance(default, bool) and not isinstance(value, (bool, np.bool_)):
            raise InvalidScenarioParams(f"{fam} {key} must be true or false, got {value!r}")
        if isinstance(default, tuple) and not isinstance(value, (tuple, list)):
            raise InvalidScenarioParams(f"{fam} {key} must be a list of numbers, got {value!r}")
        p[key] = (bool(value) if isinstance(default, bool)  # standardize, the weights, or a float
                  else tuple(_real(w, fam, key) for w in value) if isinstance(default, tuple)
                  else _real(value, fam, key))
    if given:
        raise InvalidScenarioParams(f"{fam} has no parameter {sorted(given)[0]!r}")

    w = p.get("weights")
    if w is not None and not (len(w) == 2 and 0.0 < w[0] < 1.0 and 0.0 < w[1] < 1.0
                              and abs(w[0] + w[1] - 1.0) < 1e-12):
        raise InvalidScenarioParams(f"mixture weights must lie in (0,1) and sum to 1, got {w}")
    if not 0.0 <= p.get("gap", 0.0) < 1.0:
        raise InvalidScenarioParams(f"scale gap must lie in [0, 1), got {p['gap']}")
    for key in ("dof", "t_dof", "sigma0"):
        if not p.get(key, 1.0) > 0.0:
            raise InvalidScenarioParams(f"{fam} needs {key} > 0, got {p[key]}")
    if not p.get("delta", 0.0) >= 0.0:
        raise InvalidScenarioParams(f"{fam} needs delta >= 0, got {p['delta']}")
    if not 0.0 <= p.get("excess_kurtosis", 0.0) <= 3.0:
        raise InvalidScenarioParams("excess kurtosis must lie in [0, 3] for the two-point "
                                    f"calibration, got {p['excess_kurtosis']}")
    if fam == "mixed_marginals":
        p["t_columns"] = k = int(round(p["t_fraction"] * d))
        if not 0.0 < p["t_fraction"] < 1.0 or not 1 <= k <= d - 1:
            raise InvalidScenarioParams(f"t_fraction {p['t_fraction']} leaves no room at d={d}")
    untransported = fam == "mixed_marginals" or (fam == "chisq_marginals" and not p["standardize"])
    if untransported and s.cov.kind != "identity":
        raise InvalidScenarioParams(f"{fam} draws untransported coordinates; "
                                    "use an identity covariance spec")
    return p


def sample_scenario(s: Scenario, gen: np.random.Generator,
                    buffers: Optional[np.ndarray] = None) -> DataMatrix:
    """Draw an n x d sample from the scenario using the provided stream.

    The sample is drawn into ``buffers``, a float64 array of shape (2, n, d)
    (a new one if None), and its values are one of the two n x d halves; a
    later draw into the same buffers overwrites them.
    """
    buffers = np.empty((2, s.n, s.d)) if buffers is None else buffers
    return DataMatrix.from_array(FAMILIES[s.family].sample(s, s.resolved, gen, buffers))


def scenario_covariance(s: Scenario) -> np.ndarray:
    """The population covariance implied by a scenario (for moment checks)."""
    return FAMILIES[s.family].covariance(s, s.resolved, build_covariance(s.cov))
