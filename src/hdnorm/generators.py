"""Covariance builders, data-generating scenarios, and effective ranks.

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

Samplers are pure functions of an explicit generator stream.  Non-Gaussian
drivers are pushed through the symmetric square root (or the eigenvector
factor, for the leptokurtic family) rather than a Cholesky factor, since for
non-Gaussian inputs the two produce different laws; Gaussian drivers use the
cheaper Cholesky factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Optional, Tuple

import numpy as np

from . import rng
from .errors import InvalidScenarioParams, NotPSD, ZeroMatrix
from .moments import DataMatrix

_PSD_TOL = 1e-8


@dataclass(frozen=True)
class CovSpec:
    """A covariance structure specification; hashable so factors can be cached."""

    kind: str
    d: int
    rho: Optional[float] = None
    density: Optional[float] = None
    jitter: Optional[float] = None
    rate: Optional[float] = None
    seed: int = 0

    @classmethod
    def identity(cls, d: int) -> "CovSpec":
        return cls(kind="identity", d=d)

    @classmethod
    def ar1(cls, d: int, rho: float) -> "CovSpec":
        return cls(kind="ar1", d=d, rho=float(rho))

    @classmethod
    def sparse_random(cls, d: int, density: float = 0.02, jitter: float = 0.05,
                      seed: int = 0) -> "CovSpec":
        return cls(kind="sparse_random", d=d, density=float(density),
                   jitter=float(jitter), seed=seed)

    @classmethod
    def wishart(cls, d: int, seed: int = 0) -> "CovSpec":
        return cls(kind="wishart", d=d, seed=seed)

    @classmethod
    def geom_decay(cls, d: int, rate: float = 0.93) -> "CovSpec":
        return cls(kind="geom_decay", d=d, rate=float(rate))


def _cov_diagonal(spec: CovSpec) -> Optional[np.ndarray]:
    """Diagonal of the covariance when the structure is diagonal, else None."""
    if spec.kind == "identity":
        return np.ones(spec.d)
    if spec.kind == "geom_decay":
        if spec.rate is None or not 0.0 < spec.rate:
            raise InvalidScenarioParams(f"geom_decay needs a positive rate, got {spec.rate}")
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
    if spec.d < 1:
        raise InvalidScenarioParams(f"dimension must be positive, got {spec.d}")
    diag = _cov_diagonal(spec)
    if diag is not None:
        if diag.min() < -_PSD_TOL:
            raise NotPSD(f"diagonal covariance has entry {diag.min()}")
        return np.diag(diag)
    if spec.kind == "ar1":
        if spec.rho is None or not abs(spec.rho) < 1.0:
            raise InvalidScenarioParams(f"ar1 needs |rho| < 1, got {spec.rho}")
        lags = np.arange(spec.d)
        cov = (spec.rho ** lags)[abs(lags[:, None] - lags)]
    elif spec.kind == "sparse_random":
        star, delta = sparse_random_components(spec)
        cov = (star + delta * np.eye(spec.d)) / (1.0 + delta)
    elif spec.kind == "wishart":
        gen = rng.substream(spec.seed, rng.DOMAIN_COV, _COV_KIND_TAG["wishart"], spec.d)
        W = rng.standard_normal(gen, (spec.d, spec.d))
        cov = (W @ W.T) / spec.d
    else:
        raise InvalidScenarioParams(f"unknown covariance kind {spec.kind!r}")
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] < -_PSD_TOL * max(1.0, eigs[-1]):
        raise NotPSD(f"covariance {spec.kind!r} has eigenvalue {eigs[0]}")
    return cov


@lru_cache(maxsize=16)
def _factor(spec: CovSpec, form: str):
    """Cached transport factor: returns (mode, payload) for ``_apply_factor``.

    ``form`` selects the factorization: "chol" (Gaussian drivers), "sym"
    (symmetric square root) or "eigen" (eigenvector-scaled columns).
    """
    diag = _cov_diagonal(spec)
    if diag is not None:
        if spec.kind == "identity":
            return ("identity", None)
        return ("diag", np.sqrt(diag))
    cov = build_covariance(spec)
    if form == "chol":
        try:
            return ("right", np.linalg.cholesky(cov).T)
        except np.linalg.LinAlgError:
            form = "sym"  # PSD-singular: fall back to the symmetric root
    lam, U = np.linalg.eigh(cov)
    lam = np.clip(lam, 0.0, None)
    if form == "sym":
        S = (U * np.sqrt(lam)) @ U.T
        return ("right", (S + S.T) / 2.0)
    if form == "eigen":
        return ("right", (U * np.sqrt(lam)).T)
    raise ValueError(f"unknown factor form {form!r}")


def _apply_factor(Z: np.ndarray, factor) -> np.ndarray:
    mode, payload = factor
    if mode == "identity":
        return Z
    if mode == "diag":
        return Z * payload
    return Z @ payload


@dataclass(frozen=True)
class Scenario:
    """A generative model: family name, sample shape, covariance, parameters."""

    family: str
    n: int
    d: int
    cov: CovSpec
    params: Mapping[str, object] = field(default_factory=dict)

    def param(self, key: str, default=None):
        return self.params.get(key, default)


def _scaled_param(s: Scenario, key: str, default_coeff: float,
                  default_exponent: float) -> float:
    """Resolve a parameter given either directly or as coeff * d^exponent."""
    if key in s.params:
        return float(s.params[key])
    coeff = float(s.param(f"{key}_coeff", default_coeff))
    exponent = float(s.param(f"{key}_exponent", default_exponent))
    return coeff * float(s.d) ** exponent


def _weights(s: Scenario) -> Tuple[float, float]:
    w = s.param("weights", (0.5, 0.5))
    w1, w2 = float(w[0]), float(w[1])
    if not (0.0 < w1 < 1.0 and 0.0 < w2 < 1.0 and abs(w1 + w2 - 1.0) < 1e-12):
        raise InvalidScenarioParams(f"mixture weights must lie in (0,1) and sum to 1, got {w}")
    return w1, w2


def _require_identity_cov(s: Scenario, why: str) -> None:
    if s.cov.kind != "identity":
        raise InvalidScenarioParams(f"{s.family} {why}; use an identity covariance spec")


def sample_scenario(s: Scenario, gen: np.random.Generator) -> DataMatrix:
    """Draw an n x d sample from the scenario using the provided stream."""
    n, d = s.n, s.d
    if n < 1 or d < 1:
        raise InvalidScenarioParams(f"need positive n and d, got n={n}, d={d}")
    if s.cov.d != d:
        raise InvalidScenarioParams(f"covariance dimension {s.cov.d} != scenario d={d}")
    fam = s.family

    if fam == "null_gaussian":
        X = _apply_factor(rng.standard_normal(gen, (n, d)), _factor(s.cov, "chol"))

    elif fam == "loc_mixture":
        shift = _scaled_param(s, "shift", 2.15, -0.25)
        w1, _ = _weights(s)
        second = gen.random(n) >= w1
        X = _apply_factor(rng.standard_normal(gen, (n, d)), _factor(s.cov, "chol"))
        X = X + np.where(second, shift, 0.0)[:, None]

    elif fam == "cov_mixture":
        gap = _scaled_param(s, "gap", 1.4, -0.5)
        if not 0.0 <= gap < 1.0:
            raise InvalidScenarioParams(f"scale gap must lie in [0, 1), got {gap}")
        w1, _ = _weights(s)
        second = gen.random(n) >= w1
        scale = np.where(second, math.sqrt(1.0 - gap), math.sqrt(1.0 + gap))
        X = _apply_factor(rng.standard_normal(gen, (n, d)), _factor(s.cov, "chol"))
        X = X * scale[:, None]

    elif fam == "multivariate_t":
        dof = _scaled_param(s, "dof", 1.0, 1.0)
        if dof <= 0:
            raise InvalidScenarioParams(f"t needs dof > 0, got {dof}")
        X = _apply_factor(rng.standard_normal(gen, (n, d)), _factor(s.cov, "chol"))
        g = rng.chi_square(gen, dof, n)
        X = X / np.sqrt(g / dof)[:, None]

    elif fam == "chisq_marginals":
        dof = float(s.param("dof", 6.0))
        if dof <= 0:
            raise InvalidScenarioParams(f"chi-square needs dof > 0, got {dof}")
        Y = rng.chi_square(gen, dof, (n, d))
        if s.param("standardize", False):
            X = _apply_factor((Y - dof) / math.sqrt(2.0 * dof), _factor(s.cov, "sym"))
        else:
            _require_identity_cov(s, "draws raw chi-square coordinates")
            X = Y

    elif fam == "elliptical_uniform_scale":
        sigma0 = float(s.param("sigma0", 1.0))
        delta = float(s.param("delta", 0.0))
        if sigma0 <= 0 or delta < 0:
            raise InvalidScenarioParams(f"need sigma0 > 0 and delta >= 0, got ({sigma0}, {delta})")
        X = _apply_factor(rng.standard_normal(gen, (n, d)), _factor(s.cov, "chol"))
        eps = sigma0 + delta * gen.random(n)
        X = X * eps[:, None]

    elif fam == "leptokurtic":
        excess = float(s.param("excess_kurtosis", 1.0))
        a2, b2 = _leptokurtic_variances(excess)
        Z = rng.standard_normal(gen, (n, d))
        Z = Z * np.where(gen.random((n, d)) < 0.5, math.sqrt(a2), math.sqrt(b2))
        X = _apply_factor(Z, _factor(s.cov, "eigen"))

    elif fam == "bai_sarandasa":
        # Standardized-exponential factors sharing one random sign per row:
        # marginally symmetric, jointly dependent, all moments finite.
        T = rng.exponential(gen, (n, d)) - 1.0
        u = rng.rademacher(gen, n)
        X = _apply_factor(u[:, None] * T, _factor(s.cov, "sym"))

    elif fam == "mixed_marginals":
        frac = float(s.param("t_fraction", 0.5))
        t_dof = float(s.param("t_dof", 25.0))
        k = int(round(frac * d))
        if not 0.0 < frac < 1.0 or not 1 <= k <= d - 1:
            raise InvalidScenarioParams(f"t_fraction {frac} leaves no room at d={d}")
        _require_identity_cov(s, "concatenates standard blocks")
        Zg = rng.standard_normal(gen, (n, d - k))
        Zt = rng.standard_normal(gen, (n, k))
        g = rng.chi_square(gen, t_dof, n)
        X = np.concatenate([Zg, Zt / np.sqrt(g / t_dof)[:, None]], axis=1)

    else:
        raise InvalidScenarioParams(f"unknown scenario family {fam!r}")

    return DataMatrix.from_array(X)


def _leptokurtic_variances(excess: float) -> Tuple[float, float]:
    """Closed-form two-point scale calibration: variance 1, fourth moment 3 + excess.

    Each coordinate is a balanced mixture of N(0, a2) and N(0, b2) with
    a2 = 1 + sqrt(excess/3), b2 = 1 - sqrt(excess/3); feasible for excess in [0, 3].
    """
    if not 0.0 <= excess <= 3.0:
        raise InvalidScenarioParams(
            f"excess kurtosis must lie in [0, 3] for the two-point calibration, got {excess}"
        )
    root = math.sqrt(excess / 3.0)
    a2, b2 = 1.0 + root, 1.0 - root
    assert abs(0.5 * (a2 + b2) - 1.0) <= 1e-10
    assert abs(3.0 * 0.5 * (a2 * a2 + b2 * b2) - (3.0 + excess)) <= 1e-10
    return a2, b2


def scenario_covariance(s: Scenario) -> np.ndarray:
    """The population covariance implied by a scenario (for moment checks)."""
    cov = build_covariance(s.cov)
    fam = s.family
    if fam in ("null_gaussian", "leptokurtic", "bai_sarandasa"):
        return cov
    if fam == "loc_mixture":
        shift = _scaled_param(s, "shift", 2.15, -0.25)
        w1, w2 = _weights(s)
        return cov + w1 * w2 * shift * shift * np.ones((s.d, s.d))
    if fam == "cov_mixture":
        gap = _scaled_param(s, "gap", 1.4, -0.5)
        w1, w2 = _weights(s)
        return (w1 * (1.0 + gap) + w2 * (1.0 - gap)) * cov
    if fam == "multivariate_t":
        dof = _scaled_param(s, "dof", 1.0, 1.0)
        if dof <= 2:
            raise InvalidScenarioParams(f"t covariance finite only for dof > 2, got {dof}")
        return dof / (dof - 2.0) * cov
    if fam == "chisq_marginals":
        dof = float(s.param("dof", 6.0))
        if s.param("standardize", False):
            return cov
        return 2.0 * dof * np.eye(s.d)
    if fam == "elliptical_uniform_scale":
        sigma0 = float(s.param("sigma0", 1.0))
        delta = float(s.param("delta", 0.0))
        second_moment = sigma0 * sigma0 + sigma0 * delta + delta * delta / 3.0
        return second_moment * cov
    if fam == "mixed_marginals":
        frac = float(s.param("t_fraction", 0.5))
        t_dof = float(s.param("t_dof", 25.0))
        k = int(round(frac * s.d))
        diag = np.ones(s.d)
        diag[s.d - k:] = t_dof / (t_dof - 2.0)
        return np.diag(diag)
    raise InvalidScenarioParams(f"unknown scenario family {fam!r}")


@dataclass(frozen=True)
class EffectiveRanks:
    """Scale-invariant spectral spread measures of a PSD matrix."""

    rho1_sigma: float
    rho1_sigma_sq: float
    rho2_sigma: float
    rho2_sigma_sq: float
    rho3: float


def effective_ranks(cov: np.ndarray) -> EffectiveRanks:
    """rho_1 = tr/op, rho_2 = tr^2/tr of square, rho_3 = tr^3(S^2)/tr^2(S^3)."""
    cov = np.asarray(cov, dtype=np.float64)
    lam = np.linalg.eigvalsh((cov + cov.T) / 2.0)
    op = float(lam[-1])
    if op <= 0.0:
        raise ZeroMatrix("effective ranks need a non-null PSD matrix")
    t1 = float(lam.sum())
    t2 = float((lam ** 2).sum())
    t3 = float((lam ** 3).sum())
    t4 = float((lam ** 4).sum())
    return EffectiveRanks(
        rho1_sigma=t1 / op,
        rho1_sigma_sq=t2 / (op * op),
        rho2_sigma=t1 * t1 / t2,
        rho2_sigma_sq=t2 * t2 / t4,
        rho3=t2 ** 3 / (t3 * t3),
    )
