"""Test statistics built from quantile contrasts of the radii.

Every statistic, and every draw of the range-type null sample, is one
:class:`Contrast` of two order statistics Y_(lower) <= Y_(upper):
a * (Y_(upper) - Y_(lower)) / sd - 2 a b.  The range (ranks 1, n) and the
quasi-range of order q (ranks q, n - q + 1) take the Gumbel-type constants
``a_n``, ``b_n`` below; the IQR (ranks floor(n/4), floor(3n/4)) takes
a = sqrt(n) and b = Phi^-1(3/4).  Y = R^{2h} is a power of the radius R with
sd = h t1^{h-1} (2 t2)^{1/2}, for t1 the trace of the sample covariance and t2
the tr(Sigma^2) estimate: h = 1/2 is R with sd = delta_hat^{1/2} / 2, h = 1 is
R^2 with sd = (2 t2)^{1/2}.  In the null draw Y is a standard normal, sd = 1.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import InvalidQuantileOrder, TooFewSamples, _integer
from .radii import RadialSummary
from .rng import ndtri


class NormConstants(NamedTuple):
    """Normalizing constants a_n = sqrt(2 ln n), b_n = a_n - (ln ln n + ln 4pi)/(2 a_n)."""

    a_n: float
    b_n: float


def norm_constants(n) -> NormConstants:
    """Evaluate the extreme-contrast normalizing constants at sample size n >= 3."""
    if (size := _integer(n)) is None:
        raise TypeError(f"sample size must be an integer, got {n!r}")
    if size < 3:
        raise TooFewSamples(f"normalizing constants need n >= 3, got n={size}")
    a = math.sqrt(2.0 * math.log(size))
    b = a - (math.log(math.log(size)) + math.log(4.0 * math.pi)) / (2.0 * a)
    return NormConstants(a_n=a, b_n=b)


def sigma_star() -> float:
    """Asymptotic standard deviation of the IQR statistic: 1 / (2 phi(Phi^-1(3/4)))."""
    x = float(ndtri(0.75))
    density = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return 1.0 / (2.0 * density)


class Contrast(NamedTuple):
    """a (Y_(upper) - Y_(lower)) / sd - 2ab, for the 1-based ranks ``lower`` < ``upper``.

    ``factored`` only picks the rounding: a (delta / sd - 2b) if set, else
    a / sd * delta - 2ab.  The IQR and the quasi-ranges of powers other than 1/2
    take the first; the quasi-ranges of the radii and the null draws the second.
    """

    lower: int
    upper: int
    a: float
    b: float
    factored: bool = False

    def value(self, y_lower, y_upper, sd):
        """The contrast of ``y_lower`` and ``y_upper`` (floats or arrays) on the scale ``sd``."""
        delta = y_upper - y_lower
        if self.factored:
            return self.a * (1.0 / sd * delta - 2.0 * self.b)
        return self.a / sd * delta - 2.0 * self.a * self.b


# Typed, as the band memo is, so n = 10.0 or q = True is refused, not served 10's or 1's entry.
@lru_cache(maxsize=1 << 12, typed=True)
def contrast(n, q, power: float = 0.5) -> Contrast:
    """The quasi-range of order q (the range for q = 1), or the IQR for q None,
    of the powers R^{2 power} of n radii R."""
    c, n = norm_constants(n), _integer(n)  # n is an integer once norm_constants takes it
    if q is None:
        if n < 4:
            raise TooFewSamples(f"the IQR statistic needs n >= 4, got n={n}")
        return Contrast(n // 4, 3 * n // 4, math.sqrt(n), float(ndtri(0.75)), True)
    if (order := _integer(q)) is None or not 1 <= order <= n // 2:
        raise InvalidQuantileOrder(f"q={q!r} is not an integer in [1, {n // 2}] for n={n}")
    return Contrast(order, n - order + 1, c.a_n, c.b_n, power != 0.5)


def statistics(rs: RadialSummary, orders: Sequence[Optional[int]],
               power: float = 0.5) -> Tuple[float, ...]:
    """Each order's contrast (:func:`contrast`) of Y = R^{2 power}, R the radii of ``rs``,
    on Y's scale; ``power`` is an argument so that one estimated per sample can be passed."""
    disp = rs.dispersion
    y = rs.sorted_radii if power == 0.5 else rs.sorted_radii ** (2.0 * power)
    sd = (math.sqrt(disp.delta_hat) / 2.0 if power == 0.5 else
          power * disp.tr_sigma_d ** (power - 1.0) * math.sqrt(2.0 * disp.tr_sigma_sq_hat))
    contrasts = [contrast(rs.n, q, power) for q in orders]
    return tuple(float(c.value(y[c.lower - 1], y[c.upper - 1], sd)) for c in contrasts)


def range_statistic(rs: RadialSummary) -> float:
    """Normalized range of the radii."""
    return statistics(rs, (1,))[0]


def iqr_statistic(rs: RadialSummary) -> float:
    """Normalized interquartile range of the radii."""
    return statistics(rs, (None,))[0]


def squared_radii_statistics(rs: RadialSummary) -> Tuple[float, float]:
    """Range and IQR statistics of the squared radii: a contrast with the
    square-root form, which has visibly better finite-sample size control."""
    return statistics(rs, (1, None), power=1)
