"""Brute-force and spectral reference computations for the test suite.

They check properties of the package from outside it: the closed-form
tr(Sigma^2) estimate against its defining U-statistic sums, the similarity
invariance and ordering of the effective ranks of a covariance, the
contrast record against the five expressions it replaced, the null draws
against every uniform floored and transformed before any is selected, and
the pair subset ``hdnorm diagnose`` samples against Floyd's algorithm drawn
one index at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from hdnorm import DataMatrix, HdnormError, TooFewSamples, norm_constants, rng
from hdnorm.moments import _moments
from hdnorm.rng import ndtri

DEFAULT_ORACLE_CAP = 64


class OracleSizeExceeded(HdnormError):
    """Raised when the O(n^4) brute-force estimator is asked for too large an n."""


class ZeroMatrix(HdnormError):
    """Raised when a matrix argument is identically zero where it must not be."""


def tr_sigma_sq_hat(X: DataMatrix) -> float:
    """The package's unbiased tr(Sigma^2) estimate, before any positivity check."""
    return _moments(X).traces()[1]


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


# The range-type statistics, the IQR statistic, the two squared-radii
# statistics and the null draw, each written out as it was before all of them
# became one ``teststats.Contrast``, and the contrasts of any power of the
# radii.  ``r_*`` are order statistics of the radii, ``r2_*`` of the squared
# radii and ``s_*`` of standard normals (floats or arrays); ``delta_hat`` and
# ``that`` are the dispersion index and the tr(Sigma^2) estimate.


def extreme_value_oracle(n, delta_hat, r_lower, r_upper):
    """The range and the quasi-range (any q) of the radii."""
    constants = norm_constants(n)
    contrast = r_upper - r_lower
    scale = 2.0 * constants.a_n / math.sqrt(delta_hat)
    return scale * contrast - 2.0 * constants.a_n * constants.b_n


def iqr_oracle(n, delta_hat, r_lower, r_upper):
    """The IQR of the radii."""
    inv_scale = 1.0 / math.sqrt(delta_hat)
    contrast = r_upper - r_lower
    return 2.0 * math.sqrt(n) * (inv_scale * contrast - float(ndtri(0.75)))


def squared_range_oracle(n, that, r2_lower, r2_upper):
    """The range of the squared radii."""
    constants = norm_constants(n)
    inv_scale = 1.0 / math.sqrt(2.0 * that)
    return constants.a_n * (inv_scale * (r2_upper - r2_lower) - 2.0 * constants.b_n)


def squared_iqr_oracle(n, that, r2_lower, r2_upper):
    """The IQR of the squared radii."""
    inv_scale = 1.0 / math.sqrt(2.0 * that)
    q34 = float(ndtri(0.75))
    return math.sqrt(n) * (inv_scale * (r2_upper - r2_lower) - 2.0 * q34)


def power_oracle(n, q, h, t1, that, sorted_radii):
    """The quasi-range of order q, or the IQR for q None, of the powers Y = R^{2h}
    of the sorted radii, on the delta-method scale h t1^{h-1} (2 that)^{1/2} of Y,
    rounded as the squared-radii statistics are."""
    y = sorted_radii ** (2.0 * h)
    inv_scale = 1.0 / (h * t1 ** (h - 1.0) * math.sqrt(2.0 * that))
    if q is None:
        contrast = y[3 * n // 4 - 1] - y[n // 4 - 1]
        return math.sqrt(n) * (inv_scale * contrast - 2.0 * float(ndtri(0.75)))
    constants = norm_constants(n)
    return constants.a_n * (inv_scale * (y[n - q] - y[q - 1]) - 2.0 * constants.b_n)


def null_draw_oracle(n, s_lower, s_upper):
    """One draw of the null sample U_{n,q}."""
    c = norm_constants(n)
    contrast = s_upper - s_lower
    return c.a_n * contrast - 2.0 * c.a_n * c.b_n


def null_chunk_oracle(n, q, gen, count):
    """``count`` draws of the U_{n,q} sample from ``gen``: each row of uniforms is
    floored and transformed to normals in full, then its order statistics
    q and n - q + 1 are selected."""
    rows = np.partition(rng.standard_normal(gen, (count, n)), (q - 1, n - q), axis=1)
    return null_draw_oracle(n, rows[:, q - 1], rows[:, n - q])


def pair_indices_oracle(n, k, gen):
    """Floyd's uniform k-subset of the n(n-1)/2 pair indices, one draw per index."""
    total = n * (n - 1) // 2
    chosen = set()
    for t in range(total - k, total):
        j = int(gen.integers(0, t + 1))
        chosen.add(t if j in chosen else j)
    return np.sort(np.fromiter(chosen, dtype=np.int64, count=k))
