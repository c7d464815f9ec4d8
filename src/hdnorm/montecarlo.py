"""Monte-Carlo null distributions, rejection decisions, and the composite test.

A range-type statistic is compared against an empirical null sample, its
contrast ``teststats.contrast(n, q)`` of S ~ N(0, I_n) at sd = 1,

    U_{n,q} = a_n * (S_(n-q+1) - S_(q)) - 2 a_n b_n,

drawn by simulation (the limiting Gumbel convolution converges far too slowly
to be usable directly).  The IQR-type statistic has an explicit normal limit
with standard deviation sigma_star, so its rejection band is closed form.

Null draws are organized in fixed-size chunks, each tied to its own keyed
substream: draw j is a pure function of (seed, n, q, j), so any batching or
parallel partition reproduces the same sample bitwise.  The last few sorted
null samples are memoised per (n, q, m, seed), so the bands of one sample at
several levels come from one draw; the memo never changes results.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import _cpus, rng
from .errors import _count
from .methods import METHODS, Band, McSettings, Method, Rule
from .moments import DataMatrix, DispersionEstimate
from .radii import RadialSummary, radial_summary
from .rng import ndtri
from .teststats import contrast, sigma_star, statistics

#: Number of null draws generated per keyed substream.  Part of the
#: reproducibility contract: changing it changes which draw lands where.
CHUNK = 4096

# Memory bound for one generation batch (doubles): 512 KB, or one row of n
# when n is larger, so huge n stays feasible.  It does not change the draws.
# It can be this small because a sweep replication allocates no n x d float
# array (its work unit reuses its sample buffers), so how glibc places this
# buffer no longer decides whether each replication's arrays are mapped afresh.
_BATCH_ELEMENTS = 1 << 16


def _null_chunk(n: int, q: int, seed: int, chunk_index: int, out: np.ndarray,
                buffer: np.ndarray) -> None:
    """Fills ``out`` with draws [0, len(out)) of chunk ``chunk_index`` of the U_{n,q} sample.

    Row i is the contrast of row i of ``rng.standard_normal(gen, (len(out), n))``.
    The raw uniforms are drawn, ``len(buffer)`` rows at a time, into ``buffer``
    and the order statistics are picked among them in place, by their bits:
    ``Generator.random`` returns non-negative doubles, whose bit patterns
    order as the values do.  Only the two picked per row are floored
    (``rng.uniform``) and passed through ``ndtri``.  The bit order, the floor
    and ``ndtri`` are all non-decreasing maps, and a non-decreasing map takes
    the k-th smallest of a row to the k-th smallest of its image, so each
    draw is bit for bit that of flooring and transforming the whole row first.
    """
    gen = rng.substream(seed, rng.DOMAIN_NULL_RANGE, n, q, chunk_index)
    c = contrast(n, q)
    for start in range(0, len(out), len(buffer)):
        b = min(len(buffer), len(out) - start)
        bits = gen.random((b, n), out=buffer[:b]).view(np.uint64)
        if c.lower == 1:
            low, high = bits.min(axis=1), bits.max(axis=1)
        else:
            bits.partition((c.lower - 1, c.upper - 1), axis=1)
            low, high = bits[:, c.lower - 1], bits[:, c.upper - 1]
        low, high = (ndtri(np.maximum(v.view(np.float64), rng._U_FLOOR)) for v in (low, high))
        out[start:start + b] = c.value(low, high, 1.0)


def null_quasi_range_draws(n: int, q: int, m: int, seed: int) -> np.ndarray:
    """The first ``m`` draws of the U_{n,q} sample for this seed.

    Each chunk fills its slice of one array.  With T = min(chunks, usable CPUs),
    share t holds chunks t, t + T, ...; the calling thread draws share 0 and a
    helper thread each other one (the random fill and the reductions release
    the interpreter lock), so the result does not depend on the thread count.
    """
    contrast(n, q)  # checks n and q
    m, seed = _count(m, "m", 1), _count(seed, "seed", 0)
    chunks = -(-m // CHUNK)
    shares = min(chunks, _cpus.usable_cpus())
    draws = np.empty(m)
    # One batch buffer per share, allocated in the calling thread: a batch a
    # helper allocated would stay resident in its malloc arena after the draw.
    buffers = [np.empty((min(CHUNK, max(1, _BATCH_ELEMENTS // n)), n)) for _ in range(shares)]
    errors = []

    def draw_share(t: int) -> None:
        try:
            for i in range(t, chunks, shares):
                _null_chunk(n, q, seed, i, draws[i * CHUNK:(i + 1) * CHUNK], buffers[t])
        except Exception as exc:  # raised below, once every helper has ended
            errors.append(exc)

    helpers = [threading.Thread(target=draw_share, args=(t,)) for t in range(1, shares)]
    for thread in helpers:
        thread.start()
    try:
        draw_share(0)
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    return draws


def empirical_quantile(sorted_values: np.ndarray, level: float) -> float:
    """inf{x : F_hat(x) >= level} for the empirical CDF of a sorted sample.

    The order-statistic index is resolved with exact rational arithmetic.
    The float level is first snapped to the nearest small-denominator
    rational, so that a level written as 0.01 means 1/100 rather than the
    slightly larger float it parses to.
    """
    m = len(sorted_values)
    k = -(-Fraction(level).limit_denominator(10 ** 9) * m // 1)  # exact ceil
    k = min(max(int(k), 1), m)
    return float(sorted_values[k - 1])


def mc_quantiles(n: int, q: int, settings: McSettings) -> Band:
    """Empirical (alpha/2, 1 - alpha/2) quantiles of the U_{n,q} null sample."""
    sample = _sorted_null(n, q, settings.replications, settings.seed)
    return (empirical_quantile(sample, settings.alpha / 2.0),
            empirical_quantile(sample, 1.0 - settings.alpha / 2.0))


@lru_cache(maxsize=4, typed=True)
def _sorted_null(n: int, q: int, m: int, seed: int) -> np.ndarray:
    """The sorted, read-only ``null_quasi_range_draws(n, q, m, seed)``, kept for
    the next few bands, so that settings differing only in alpha share a draw;
    typed, so that q = 1.0 or True is refused as the draw refuses it, not served q = 1's."""
    sample = null_quasi_range_draws(n, q, m, seed)
    sample.sort()
    sample.flags.writeable = False
    return sample


def _iqr_band(level: float) -> Band:
    """Closed-form (level/2, 1 - level/2) band of the IQR statistic."""
    s = sigma_star()
    return s * float(ndtri(level / 2.0)), s * float(ndtri(1.0 - level / 2.0))


class TestReport(NamedTuple):
    """One method's outcome on one dataset: its ``Rule``, each sub-test's statistic and verdict."""

    rule: Rule
    d: int
    dispersion: DispersionEstimate
    values: Tuple[float, ...]
    rejects: Tuple[bool, ...]

    @property
    def reject(self) -> bool:
        return any(self.rejects)

    def to_dict(self, input: Optional[str] = None) -> dict:
        """The report-v1 document ``hdnorm test`` writes (``schemas/report-v1.schema.json``),
        naming the CSV ``input`` if given; n, the level and the bands are the rule's."""
        rule, method, settings = self.rule, self.rule.method, self.rule.settings
        subtests = zip(method.keys, method.orders, self.values, rule.bands, self.rejects)
        return {
            "schema_version": 1,
            # A quasi-range method is named "quasi"; its order is in its sub-test.
            "statistics": method.name.split(":")[0],
            **({} if input is None else {"input": input}),
            "n": rule.n,
            "d": self.d,
            "alpha": settings.alpha,
            "mc_replications": settings.replications,
            "seed": settings.seed,
            "squared": method.power == 1,
            **self.dispersion._asdict(),
            # A quasi-range reports its order; the range, its q = 1 case, does not.
            **{key: {"value": value, "level": rule.level, "lower": lower, "upper": upper,
                     "reject": reject, **({"q": q} if key == "quasi_range" else {})}
               for key, q, value, (lower, upper), reject in subtests},
            **({"composite": {"reject": self.reject}} if len(self.rejects) > 1 else {}),
            "reject": self.reject,
        }


def composite_from_summary(rs: RadialSummary, rule: Rule) -> TestReport:
    """Decide ``rule``'s method on a precomputed radial summary: a sub-test rejects when
    its statistic lies outside its closed band; ``ValueError`` if the rule was
    calibrated for another n, or does not hold one band per sub-test."""
    if rs.n != rule.n:
        raise ValueError(f"a rule calibrated for n={rule.n} cannot decide a sample of n={rs.n}")
    values = statistics(rs, rule.method.orders, rule.method.power)
    rejects = tuple(bool(value < lower or value > upper)
                    for value, (lower, upper) in zip(values, rule.bands, strict=True))
    return TestReport(rule, rs.d, rs.dispersion, values, rejects)


def composite_test(X: DataMatrix, settings: McSettings, method: Method = METHODS["composite"],
                   out: Optional[np.ndarray] = None) -> TestReport:
    """Run a decision method on a sample, by default the composite (range + IQR)
    test, centring the sample into ``out`` if given (see ``radial_summary``)."""
    return composite_from_summary(radial_summary(X, out), method.at(X.n, settings))
