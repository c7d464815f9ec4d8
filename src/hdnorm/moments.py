"""Sample moments and the dispersion-index estimator.

The dispersion index of a centered Gaussian vector is 2 tr(Sigma^2) / tr(Sigma);
it is the variance proxy for the centered radii and normalizes every test
statistic in :mod:`hdnorm.teststats`.  The estimator combines an unbiased
U-statistic estimate of tr(Sigma^2) with the trace of the sample covariance.
Both traces are read off the centered Gramian matrix when n <= d, which keeps
the cost at O(n d (n ^ d)) instead of O(n d^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataWarning,
    NonPositiveDispersion,
    OracleSizeExceeded,
    TooFewSamples,
)

DEFAULT_ORACLE_CAP = 64


@dataclass(frozen=True)
class DataMatrix:
    """An n x d sample matrix with rows as observations.

    All entries must be finite.  Most estimators additionally require n >= 4
    (they divide by (n - 2)(n - 3)); those checks live on the operations.
    """

    values: np.ndarray
    n: int
    d: int

    @classmethod
    def from_array(cls, values) -> "DataMatrix":
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D sample matrix, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"empty sample matrix of shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(
                f"non-finite entry at row {bad[0] + 1}, column {bad[1] + 1}"
            )
        return cls(values=arr, n=arr.shape[0], d=arr.shape[1])


@dataclass(frozen=True)
class DispersionEstimate:
    """The dispersion-index estimate together with its ingredients."""

    delta_hat: float
    tr_sigma_d: float
    tr_sigma_sq_hat: float
    radii_fourth_sum: float
    used_gramian: bool


def _centered(X: DataMatrix) -> np.ndarray:
    return X.values - X.values.mean(axis=0)


def _core(X: DataMatrix):
    """Shared moment computation.

    Returns (r2, tr1, tr2, r4, used_gramian) where r2[i] = ||X_i - mean||^2,
    tr1 = tr(S), tr2 = tr(S^2) for S the sample covariance (n > d) or the
    centered Gramian (n <= d), and r4 = sum_i r2[i]^2 accumulated exactly.
    Every estimator built on it divides by (n - 2)(n - 3), so it needs n >= 4.
    """
    n, d = X.n, X.d
    if n < 4:
        raise TooFewSamples(f"the moment estimators need n >= 4, got n={n}")
    Xc = _centered(X)
    r2 = np.einsum("ij,ij->i", Xc, Xc)
    tr1 = float(r2.sum()) / (n - 1)
    used_gramian = n <= d
    if used_gramian:
        M = Xc @ Xc.T
    else:
        M = Xc.T @ Xc
    # tr(S^2) = ||M||_F^2 / (n-1)^2; cyclic trace makes both paths agree.
    tr2 = float(np.einsum("ij,ij->", M, M)) / (n - 1) ** 2
    # fsum rounds the exact sum of the squares once.  A square beyond the
    # float range is inf, which the dispersion checks report, so numpy's
    # overflow warning would only repeat it.
    with np.errstate(over="ignore"):
        r4 = math.fsum((r2 * r2).tolist())
    return r2, tr1, tr2, r4, used_gramian


def sigma_hat_d(X: DataMatrix) -> np.ndarray:
    """Sample covariance (n > d) or centered Gramian (n <= d).

    The two share all spectral traces, so downstream code never needs to know
    which was produced.  If every row of ``X`` is identical the zero matrix is
    returned and a :class:`DegenerateDataWarning` is emitted; estimators that
    need positive dispersion will then raise.
    """
    n = X.n
    if n < 2:
        raise TooFewSamples(f"need at least 2 observations, got {n}")
    Xc = _centered(X)
    if n <= X.d:
        M = (Xc @ Xc.T) / (n - 1)
    else:
        M = (Xc.T @ Xc) / (n - 1)
    if not np.any(Xc):
        warnings.warn("all observations identical; covariance is zero", DegenerateDataWarning)
    return M


def tr_sigma_sq_hat(X: DataMatrix) -> float:
    """Unbiased estimate of tr(Sigma^2) from centered second and fourth moments.

    May be negative in pathological finite samples; callers decide whether
    that is an error (``delta_hat`` treats it as one).
    """
    _, tr1, tr2, r4, _ = _core(X)
    return _tr_sigma_sq_from_parts(X.n, tr1, tr2, r4)


def _tr_sigma_sq_from_parts(n: int, tr1: float, tr2: float, r4: float) -> float:
    return (n - 1) / (n * (n - 2) * (n - 3)) * (
        (n - 1) * (n - 2) * tr2 + tr1 * tr1 - n / (n - 1) * r4
    )


def tr_sigma_sq_oracle(X: DataMatrix, max_n: int = DEFAULT_ORACLE_CAP) -> float:
    """Brute-force evaluation of the same tr(Sigma^2) estimator.

    Evaluates the three U-statistic sums over distinct index pairs, triples
    and quadruples of raw inner products with explicit nested loops.  O(n^4):
    intended for cross-checking the closed form on small samples only.
    """
    n = X.n
    if n < 4:
        raise TooFewSamples(f"tr_sigma_sq_oracle needs n >= 4, got n={n}")
    if n > max_n:
        raise OracleSizeExceeded(f"n={n} exceeds the oracle cap of {max_n}")
    G = X.values @ X.values.T
    g = G.tolist()

    pairs = 0.0
    for i in range(n):
        gi = g[i]
        for j in range(n):
            if j != i:
                pairs += gi[j] * gi[j]

    triples = 0.0
    for j in range(n):
        gj = g[j]
        for i in range(n):
            if i == j:
                continue
            gij = gj[i]
            for k in range(n):
                if k != i and k != j:
                    triples += gij * gj[k]

    quads = 0.0
    for i in range(n):
        gi = g[i]
        for j in range(n):
            if j == i:
                continue
            gij = gi[j]
            for k in range(n):
                if k == i or k == j:
                    continue
                gk = g[k]
                for l in range(n):
                    if l != i and l != j and l != k:
                        quads += gij * gk[l]

    return (
        pairs / (n * (n - 1))
        - 2.0 * triples / (n * (n - 1) * (n - 2))
        + quads / (n * (n - 1) * (n - 2) * (n - 3))
    )


def delta_hat(X: DataMatrix) -> DispersionEstimate:
    """Estimate the dispersion index 2 tr(Sigma^2) / tr(Sigma).

    Raises :class:`NonPositiveDispersion` when either ingredient is
    non-positive: clamping instead would silently bias every downstream
    statistic on degenerate input.
    """
    _, tr1, tr2, r4, used_gramian = _core(X)
    return _dispersion_from_parts(X.n, tr1, tr2, r4, used_gramian)


def _dispersion_from_parts(
    n: int, tr1: float, tr2: float, r4: float, used_gramian: bool
) -> DispersionEstimate:
    that = _tr_sigma_sq_from_parts(n, tr1, tr2, r4)
    # Moments of data near the float range overflow to inf, and inf - inf is
    # NaN; NaN compares false, so without these checks a verdict would follow.
    if not math.isfinite(tr1):
        raise NonPositiveDispersion(f"tr of sample covariance is {tr1!r}; data too large")
    if tr1 <= 0.0:
        raise NonPositiveDispersion(f"tr of sample covariance is {tr1!r}; data degenerate")
    if not math.isfinite(that):
        raise NonPositiveDispersion(f"tr(Sigma^2) estimate is {that!r}; data too large")
    if that <= 0.0:
        raise NonPositiveDispersion(f"tr(Sigma^2) estimate is {that!r}; test cannot proceed")
    return DispersionEstimate(
        delta_hat=2.0 * that / tr1,
        tr_sigma_d=tr1,
        tr_sigma_sq_hat=that,
        radii_fourth_sum=r4,
        used_gramian=used_gramian,
    )
