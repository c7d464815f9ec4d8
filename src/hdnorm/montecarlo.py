"""Monte-Carlo null distributions, rejection decisions, and the composite test.

The extreme-contrast statistics are compared against an empirical null sample

    U_{n,q} = a_n * (S_(n-q+1) - S_(q)) - 2 a_n b_n,   S ~ N(0, I_n),

drawn by simulation (the limiting Gumbel convolution converges far too slowly
to be usable directly).  The IQR-type statistic has an explicit normal limit
with standard deviation sigma_star, so its rejection band is closed form.

Null draws are organized in fixed-size chunks, each tied to its own keyed
substream: draw j is a pure function of (seed, n, q, j), so any batching or
parallel partition reproduces the same sample bitwise.  Quantile bands are
memoised per (n, q, settings); the memo only short-circuits an identical
recomputation and never changes results.  A process can be handed bands built
elsewhere (``install_bands``), so that sweep workers decide without drawing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Mapping, Optional, Tuple

import numpy as np
from scipy.special import ndtri

from . import rng
from .errors import InvalidQuantileOrder, TooFewSamples
from .moments import DataMatrix, DispersionEstimate
from .radii import RadialSummary, radial_summary
from .teststats import (
    StatKind,
    TestStatistic,
    iqr_statistic,
    norm_constants,
    range_statistic,
    sigma_star,
    squared_radii_statistics,
)

#: Number of null draws generated per keyed substream.  Part of the
#: reproducibility contract: changing it changes which draw lands where.
CHUNK = 4096

# Memory bound for one generation batch (doubles), so huge n stays feasible.
_BATCH_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class McSettings:
    """Monte-Carlo configuration: replication count, stream seed, test level."""

    replications: int = 10000
    seed: int = 0
    alpha: float = 0.05

    def __post_init__(self):
        if self.replications < 100:
            raise ValueError(f"need at least 100 Monte-Carlo replications, got {self.replications}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _null_chunk(n: int, q: int, seed: int, chunk_index: int, count: int) -> np.ndarray:
    """Draws [0, count) of chunk ``chunk_index`` of the U_{n,q} sample.

    Row i is the contrast of row i of ``rng.standard_normal(gen, (count, n))``.
    The order statistics are picked among the uniforms and only they are
    passed through ``ndtri``: the normal quantile function is non-decreasing,
    so it maps the k-th smallest uniform to exactly the k-th smallest normal.
    """
    gen = rng.substream(seed, rng.DOMAIN_NULL_RANGE, n, q, chunk_index)
    c = norm_constants(n)
    out = np.empty(count)
    rows = max(1, _BATCH_ELEMENTS // n)
    filled = 0
    while filled < count:
        b = min(rows, count - filled)
        u = rng.uniform(gen, (b, n))
        if q == 1:
            low, high = u.min(axis=1), u.max(axis=1)
        else:
            part = np.partition(u, (q - 1, n - q), axis=1)
            low, high = part[:, q - 1], part[:, n - q]
        contrast = ndtri(high) - ndtri(low)
        out[filled:filled + b] = c.a_n * contrast - 2.0 * c.a_n * c.b_n
        filled += b
    return out


def _validate_nq(n: int, q: int) -> None:
    if n < 3:
        raise TooFewSamples(f"null range sample needs n >= 3, got n={n}")
    if not 1 <= q <= n // 2:
        raise InvalidQuantileOrder(f"q={q} outside [1, {n // 2}] for n={n}")


def null_quasi_range_draws(n: int, q: int, m: int, seed: int) -> np.ndarray:
    """The first ``m`` draws of the U_{n,q} sample for this seed.

    Chunks are drawn on one thread per usable CPU (the random fill and the
    reductions release the interpreter lock) and joined in chunk order, so
    the result does not depend on the thread count.
    """
    _validate_nq(n, q)
    if m < 1:
        raise ValueError(f"need at least one draw, got m={m}")
    chunks = -(-m // CHUNK)

    def chunk(chunk_index: int) -> np.ndarray:
        return _null_chunk(n, q, seed, chunk_index, min(CHUNK, m - chunk_index * CHUNK))

    threads = min(chunks, usable_cpus())
    if threads == 1:
        return np.concatenate([chunk(i) for i in range(chunks)])
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.concatenate(list(pool.map(chunk, range(chunks))))


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


Band = Tuple[float, float]
BandKey = Tuple[int, int, McSettings]

# Range bands by (n, q, settings), filled by ``mc_quantiles`` and by
# ``install_bands``.  Each entry is a few hundred bytes; the bound only keeps a
# long-lived caller that walks through many seeds from growing without limit.
_BANDS: Dict[BandKey, Band] = {}
_MAX_BANDS = 1 << 16


def mc_quantiles(n: int, q: int, settings: McSettings) -> Band:
    """Empirical (alpha/2, 1 - alpha/2) quantiles of the U_{n,q} null sample.

    Memoised per ``(n, q, settings)``.
    """
    key = (n, q, settings)
    band = _BANDS.get(key)
    if band is None:
        sample = np.sort(null_quasi_range_draws(n, q, settings.replications, settings.seed))
        band = (
            empirical_quantile(sample, settings.alpha / 2.0),
            empirical_quantile(sample, 1.0 - settings.alpha / 2.0),
        )
        if len(_BANDS) >= _MAX_BANDS:
            _BANDS.clear()
        _BANDS[key] = band
    return band


def install_bands(bands: Mapping[BandKey, Band]) -> None:
    """Make ``mc_quantiles`` return these precomputed bands without drawing.

    ``bands`` maps ``(n, q, settings)`` to the ``mc_quantiles`` value built
    elsewhere, for instance by the parent of a worker process.
    """
    _BANDS.update(bands)

@dataclass(frozen=True)
class Decision:
    """One sub-test outcome: the statistic, its band, and the verdict.

    The acceptance region is the closed interval [lower, upper]; a statistic
    landing exactly on a band edge does not reject.
    """

    statistic: TestStatistic
    level: float
    lower: float
    upper: float
    reject: bool


_RANGE_KINDS = (StatKind.RANGE, StatKind.QUASI_RANGE, StatKind.SQUARED_RANGE)
_IQR_KINDS = (StatKind.IQR, StatKind.SQUARED_IQR)


def decide_range(stat: TestStatistic, n: int, settings: McSettings,
                 level: Optional[float] = None) -> Decision:
    """Monte-Carlo band decision for range-type statistics.

    Quasi-range statistics are compared against the matching U_{n,q} sample.
    """
    if stat.kind not in _RANGE_KINDS:
        raise ValueError(f"decide_range cannot handle a {stat.kind.value} statistic")
    if level is None:
        level = settings.alpha
    q = stat.q if stat.q is not None else 1
    lower, upper = mc_quantiles(n, q, replace(settings, alpha=level))
    reject = stat.value < lower or stat.value > upper
    return Decision(statistic=stat, level=level, lower=lower, upper=upper, reject=bool(reject))


@lru_cache(maxsize=64)
def _iqr_band(level: float) -> Band:
    """Closed-form (level/2, 1 - level/2) band of the IQR statistic."""
    s = sigma_star()
    return s * float(ndtri(level / 2.0)), s * float(ndtri(1.0 - level / 2.0))


def decide_iqr(stat: TestStatistic, settings: McSettings,
               level: Optional[float] = None) -> Decision:
    """Closed-form normal band decision for IQR-type statistics."""
    ok = stat.kind in _IQR_KINDS or (
        stat.kind is StatKind.CENTRAL_QUANTILE and stat.percentiles == (0.75,)
    )
    if not ok:
        raise ValueError(f"decide_iqr cannot handle a {stat.kind.value} statistic")
    if level is None:
        level = settings.alpha
    lower, upper = _iqr_band(level)
    reject = stat.value < lower or stat.value > upper
    return Decision(statistic=stat, level=level, lower=lower, upper=upper, reject=bool(reject))


def decision_to_dict(decision: Decision) -> dict:
    out = {
        "value": decision.statistic.value,
        "level": decision.level,
        "lower": decision.lower,
        "upper": decision.upper,
        "reject": decision.reject,
    }
    if decision.statistic.q is not None:
        out["q"] = decision.statistic.q
    return out


@dataclass(frozen=True)
class TestReport:
    """Full outcome of the composite test on one dataset."""

    n: int
    d: int
    alpha: float
    settings: McSettings
    dispersion: DispersionEstimate
    squared: bool
    range_decision: Decision
    iqr_decision: Decision
    composite_reject: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "alpha": self.alpha,
            "mc_replications": self.settings.replications,
            "seed": self.settings.seed,
            "squared": self.squared,
            "delta_hat": self.dispersion.delta_hat,
            "tr_sigma_d": self.dispersion.tr_sigma_d,
            "tr_sigma_sq_hat": self.dispersion.tr_sigma_sq_hat,
            "used_gramian": self.dispersion.used_gramian,
            "range": decision_to_dict(self.range_decision),
            "iqr": decision_to_dict(self.iqr_decision),
            "composite": {"reject": self.composite_reject},
        }


def composite_from_summary(rs: RadialSummary, settings: McSettings,
                           squared: bool = False) -> TestReport:
    """Composite decision from a precomputed radial summary.

    Each sub-test runs at alpha/2 (plain Bonferroni split); the composite
    rejects iff either sub-test rejects.
    """
    half = settings.alpha / 2.0
    if squared:
        t_range, t_iqr = squared_radii_statistics(rs)
    else:
        t_range, t_iqr = range_statistic(rs), iqr_statistic(rs)
    range_decision = decide_range(t_range, rs.n, settings, level=half)
    iqr_decision = decide_iqr(t_iqr, settings, level=half)
    return TestReport(
        n=rs.n,
        d=rs.d,
        alpha=settings.alpha,
        settings=settings,
        dispersion=rs.dispersion,
        squared=squared,
        range_decision=range_decision,
        iqr_decision=iqr_decision,
        composite_reject=range_decision.reject or iqr_decision.reject,
    )


def composite_test(X: DataMatrix, settings: McSettings, squared: bool = False) -> TestReport:
    """Run the composite (range + IQR, Bonferroni) normality test on a sample."""
    return composite_from_summary(radial_summary(X), settings, squared=squared)
