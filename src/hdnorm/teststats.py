"""Test statistics built from quantile contrasts of the radii.

Every statistic has the shape

    2 a_n * delta_hat^{-1/2} * (R_(upper) - R_(lower)) - 2 a_n b_n

for a symmetric pair of order statistics of the radii.  The extreme contrasts
(range, quasi-range) use the Gumbel-type normalizing constants ``a_n``, ``b_n``
below; the central contrast (IQR) uses a_n = sqrt(n) and the normal quartile
as b_n.  Squared-radii variants replace R by R^2 and the dispersion estimate
by 2 * tr(Sigma^2)-hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Optional, Tuple

from .errors import InvalidQuantileOrder, NonPositiveDispersion, TooFewSamples
from .radii import RadialSummary
from .rng import ndtri


@dataclass(frozen=True)
class NormConstants:
    """Normalizing constants a_n = sqrt(2 ln n), b_n = a_n - (ln ln n + ln 4pi)/(2 a_n)."""

    a_n: float
    b_n: float


@dataclass(frozen=True)
class TestStatistic:
    """A statistic's value, and the order q of a quasi-range (None for the others)."""

    value: float
    q: Optional[int] = None


def norm_constants(n) -> NormConstants:
    """Evaluate the extreme-contrast normalizing constants at sample size n >= 3."""
    if not isinstance(n, Integral):
        raise TypeError(f"sample size must be an integer, got {n!r}")
    n = int(n)
    if n < 3:
        raise TooFewSamples(f"normalizing constants need n >= 3, got n={n}")
    a = math.sqrt(2.0 * math.log(n))
    b = a - (math.log(math.log(n)) + math.log(4.0 * math.pi)) / (2.0 * a)
    return NormConstants(a_n=a, b_n=b)


def sigma_star() -> float:
    """Asymptotic standard deviation of the IQR statistic: 1 / (2 phi(Phi^-1(3/4)))."""
    x = float(ndtri(0.75))
    density = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return 1.0 / (2.0 * density)


def _extreme_value(rs: RadialSummary, q: int, constants: NormConstants) -> float:
    sorted_r = rs.sorted_radii
    contrast = sorted_r[rs.n - q] - sorted_r[q - 1]
    scale = 2.0 * constants.a_n / math.sqrt(rs.dispersion.delta_hat)
    return float(scale * contrast - 2.0 * constants.a_n * constants.b_n)


def range_statistic(rs: RadialSummary) -> TestStatistic:
    """Normalized range of the radii."""
    return TestStatistic(_extreme_value(rs, 1, norm_constants(rs.n)))


def quasi_range_statistic(rs: RadialSummary, q) -> TestStatistic:
    """Contrast of the q-th largest and q-th smallest radius.

    ``q = 1`` reproduces :func:`range_statistic` exactly.  The Monte-Carlo
    decision rule is only asymptotically justified for q fixed (small)
    relative to n, although any q up to floor(n/2) is accepted here.
    """
    if not isinstance(q, Integral):
        raise InvalidQuantileOrder(f"q must be an integer, got {q!r}")
    q = int(q)
    if not 1 <= q <= rs.n // 2:
        raise InvalidQuantileOrder(f"q={q} outside [1, {rs.n // 2}] for n={rs.n}")
    return TestStatistic(_extreme_value(rs, q, norm_constants(rs.n)), q)


def iqr_statistic(rs: RadialSummary) -> TestStatistic:
    """Normalized interquartile range of the radii."""
    n = rs.n
    if n < 4:
        raise TooFewSamples(f"IQR statistic needs n >= 4, got n={n}")
    sorted_r = rs.sorted_radii
    inv_scale = 1.0 / math.sqrt(rs.dispersion.delta_hat)
    contrast = sorted_r[math.floor(0.75 * n) - 1] - sorted_r[math.floor(0.25 * n) - 1]
    return TestStatistic(2.0 * math.sqrt(n) * (inv_scale * contrast - float(ndtri(0.75))))


def squared_radii_statistics(rs: RadialSummary) -> Tuple[TestStatistic, TestStatistic]:
    """Range- and IQR-type statistics on the squared radii.

    Normalized by sqrt(2 * tr(Sigma^2)-hat) directly rather than the full
    dispersion ratio.  Kept mainly as a contrast: the square-root form has
    visibly better finite-sample size control.
    """
    n = rs.n
    if n < 4:
        raise TooFewSamples(f"squared-radii statistics need n >= 4, got n={n}")
    that = rs.dispersion.tr_sigma_sq_hat
    if that <= 0.0:
        raise NonPositiveDispersion(f"tr(Sigma^2) estimate is {that!r}")
    constants = norm_constants(n)
    r2 = rs.sorted_radii ** 2
    inv_scale = 1.0 / math.sqrt(2.0 * that)
    t_range = constants.a_n * (inv_scale * (r2[-1] - r2[0]) - 2.0 * constants.b_n)
    q34 = float(ndtri(0.75))
    t_iqr = math.sqrt(n) * (
        inv_scale * (r2[math.floor(0.75 * n) - 1] - r2[math.floor(0.25 * n) - 1]) - 2.0 * q34
    )
    return TestStatistic(float(t_range)), TestStatistic(float(t_iqr))
