"""Decision methods and their Monte-Carlo settings, on the standard library.

Only ``Method.at`` loads the band code (``montecarlo``), and numpy with it, so ``hdnorm test``
judges its method and settings before numpy loads."""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from numbers import Real
from typing import Dict, NamedTuple, Optional, Tuple

from .errors import _count, _integer

Band = Tuple[float, float]


@dataclass(frozen=True)
class McSettings:
    """Monte-Carlo configuration, kept as plain ints and a float: replications, seed, alpha."""

    replications: int = 10000
    seed: int = 0
    alpha: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "replications",
                           _count(self.replications, "Monte-Carlo replications", 100))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, Real):
            raise ValueError(f"alpha must be a real number, got {self.alpha!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        object.__setattr__(self, "alpha", float(self.alpha))


class Method(NamedTuple):
    """A decision method: one contrast per sub-test, each decided against a band.

    ``name`` is the method's name in ``METHODS`` or ``quasi:q``.  ``keys`` names
    the sub-tests in the report and ``orders`` their contrasts
    (``teststats.contrast``): the quasi-range of order q with its Monte-Carlo
    band, or None for the IQR with its closed-form band, of the powers R^{2 power}
    of the radii R (1/2 the radii, 1 the squared radii).  With k sub-tests each
    runs at alpha/k (Bonferroni) and the method rejects iff any sub-test does.
    """

    name: str
    keys: Tuple[str, ...]
    orders: Tuple[Optional[int], ...]
    power: float = 0.5

    def at(self, n: int, settings: McSettings) -> Rule:
        """This method calibrated for samples of ``n`` rows: each sub-test's band at alpha/k."""
        from .montecarlo import _iqr_band, mc_quantiles
        from .teststats import contrast

        for q in self.orders:
            contrast(n, q, self.power)  # refuses an n (or q) no sub-test is defined at
        n, level = _integer(n), settings.alpha / len(self.orders)
        return Rule(self, n, settings, level, tuple(
            _iqr_band(level) if q is None else mc_quantiles(n, q, replace(settings, alpha=level))
            for q in self.orders))


class Rule(NamedTuple):
    """A ``Method`` calibrated, by ``Method.at``, for samples of ``n`` rows (kept as an int)
    under ``settings``: ``bands`` holds each sub-test's band, drawn at ``level`` (alpha/k)."""

    method: Method
    n: int
    settings: McSettings
    level: float
    bands: Tuple[Band, ...]


#: Every decision method by the name ``--stats`` and a sweep take; ``lookup_method`` adds quasi:q.
METHODS: Dict[str, Method] = {m.name: m for m in (
    Method("composite", ("range", "iqr"), (1, None)),
    Method("squared", ("range", "iqr"), (1, None), power=1),
    Method("range", ("range",), (1,)),
    Method("iqr", ("iqr",), (None,)),
)}
_QUASI = re.compile(r"quasi:([1-9][0-9]*)")


def lookup_method(name) -> Method:
    """The method named ``name``: a key of ``METHODS`` or ``quasi:q``, else ``ValueError``."""
    if isinstance(name, str):
        if name in METHODS:
            return METHODS[name]
        match = _QUASI.fullmatch(name)
        if match:
            return Method(name, ("quasi_range",), (int(match[1]),))
    raise ValueError(f"unknown method {name!r}; choose from {', '.join(METHODS)} or quasi:q")
