"""Simulation experiment runner: empirical size and power over scenario grids.

An experiment is a list of cells, each pairing a scenario with a replication
count and one or more decision methods, named as in the one method table
``hdnorm.methods.METHODS`` ("composite" for the radii test; "squared", "range",
"iqr" or "quasi:q" for its contrasts; all methods of a cell share the same
data draws).  Replication r of cell c draws its data from the substream keyed
by (master seed, c, r), and the Monte-Carlo bands of cell c are keyed by
(master seed, c), so results are independent of how the work is partitioned
across worker processes.  Each object checks its values and keeps a copy of them
when built, so every cell of an ``Experiment`` can run; the spec reader only
builds each object from its keys, the shipped schema's, through one builder.
A cell's failures count the replications whose sample or moments failed
numerically.  Every band a cell's methods need is built once, in the calling
process, before any work unit runs; each unit carries its cell's rules, each
method resolved and calibrated at the cell's n (``Method.at``), so workers
never draw a null sample or look a method up themselves.

With more than one worker, work units run in worker processes, each with BLAS
limited to one thread, so that workers neither contend for the interpreter
lock nor oversubscribe the CPUs with BLAS threads.  The workers are forked
when the calling process runs a single OS thread, as every ``hdnorm`` command
does, and so start with its modules already imported; otherwise they are
started with ``spawn``.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import _cpus, rng
from .errors import HdnormError, TooFewSamples, _count
from .generators import CovSpec, Scenario, sample_scenario
from .methods import McSettings, Rule, lookup_method
from .moments import MIN_N
from .montecarlo import composite_from_summary
from .radii import radial_summary
from .teststats import contrast

_CI_Z = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class CellSpec:
    scenario: Scenario
    replications: int
    methods: Tuple[str, ...] = ("composite",)


@dataclass(frozen=True)
class Experiment:
    name: str = "experiment"
    seed: int = 0
    alpha: float = McSettings.alpha
    mc_replications: int = McSettings.replications
    cells: Tuple[CellSpec, ...] = ()

    def __post_init__(self):
        if not isinstance(self.cells, Iterable):
            raise ValueError(f"cells must be a list of CellSpec, got {self.cells!r}")
        if not isinstance(self.name, str):
            raise ValueError(f"experiment name must be a string, got {self.name!r}")
        # Each cell and setting as it was checked: copies, so what was checked is what runs.
        object.__setattr__(self, "cells", tuple(_check_cell(*c) for c in enumerate(self.cells)))
        s = McSettings(self.mc_replications, self.seed, self.alpha)  # raises on bad settings
        for k, v in (("mc_replications", s.replications), ("seed", s.seed), ("alpha", s.alpha)):
            object.__setattr__(self, k, v)


def _check_cell(ci: int, cell: CellSpec) -> CellSpec:
    """Cell ``ci`` as checked, if it can run (its scenario judged itself when built): an int of
    replications, at least 1, and a tuple of methods, each known, listed once and defined at n."""
    if not isinstance(cell, CellSpec) or not isinstance(cell.scenario, Scenario):
        raise ValueError(f"cell {ci} must be a CellSpec holding a Scenario, got {cell!r}")
    replications = _count(cell.replications, f"cell {ci} replications", 1)
    methods = tuple(cell.methods) if isinstance(cell.methods, list) else cell.methods
    if not isinstance(methods, tuple) or not methods:
        raise ValueError(f"cell {ci} methods must be a non-empty list, got {methods!r}")
    for i, name in enumerate(methods):
        for q in lookup_method(name).orders:
            contrast(cell.scenario.n, q)  # a quasi order too large for n fails here
        if name in methods[:i]:
            raise ValueError(f"cell {ci} lists method {name!r} twice")
    if cell.scenario.n < MIN_N:  # after the methods, so that each names its own bound first
        raise TooFewSamples(f"cell {ci} needs n >= {MIN_N} for the moments, got {cell.scenario.n}")
    return CellSpec(cell.scenario, replications, methods)


class CellResult(NamedTuple):
    cell_index: int
    scenario: Scenario
    method: str
    replications: int
    rejections: int
    failures: int
    rate: float
    ci_low: float
    ci_high: float
    wall_time: float


def binomial_ci(count: int, total: int) -> Tuple[float, float]:
    """Normal-approximation 95% interval with a continuity guard at 0 and 1."""
    if total < 1:
        raise ValueError("need at least one trial")
    p = count / total
    p_var = p if 0 < count < total else (count + 0.5) / (total + 1.0)
    half = _CI_Z * math.sqrt(p_var * (1.0 - p_var) / total)
    return (max(0.0, p - half), min(1.0, p + half))


def _cell_rules(exp: Experiment) -> List[Dict[str, Rule]]:
    """Each cell's ``{name: rule}``: its methods, resolved and calibrated at its n
    under its Monte-Carlo settings, whose seed is keyed by (master seed, cell)."""
    seeds = (rng.derive_seed(exp.seed, rng.DOMAIN_NULL_RANGE, ci) for ci in range(len(exp.cells)))
    return [{m.name: m.at(cell.scenario.n, McSettings(exp.mc_replications, seed, exp.alpha))
             for m in map(lookup_method, cell.methods)} for cell, seed in zip(exp.cells, seeds)]


def _run_unit(exp: Experiment, cell_index: int, lo: int, hi: int, rules: Dict[str, Rule]):
    """Run replications [lo, hi) of one cell against its rules; returns the rejections
    per method and the count of replications whose sample or moments failed."""
    cell = exp.cells[cell_index]
    rejections, failures = dict.fromkeys(rules, 0), 0
    start = time.perf_counter()
    # Every replication draws into these and centres its sample in place.
    buffers = np.empty((2, cell.scenario.n, cell.scenario.d))
    for r in range(lo, hi):
        gen = rng.substream(exp.seed, rng.DOMAIN_DATA, cell_index, r)
        try:
            X = sample_scenario(cell.scenario, gen, buffers)
            rs = radial_summary(X, out=X.values)
        except HdnormError:
            failures += 1
            continue
        for m, rule in rules.items():
            rejections[m] += composite_from_summary(rs, rule).reject
    return cell_index, rejections, failures, time.perf_counter() - start


def run_experiment(exp: Experiment, threads: Optional[int] = None) -> List[CellResult]:
    """Run every cell; deterministic given the experiment seed.

    ``threads`` is the requested worker count, by default the usable CPUs,
    capped by the number of work units and of usable CPUs.  One worker runs in
    this process; more run in worker processes, forked when this process runs
    one OS thread and spawned otherwise (see ``_cpus.process_map``).  On the
    spawn path a script that calls this with more than one worker needs an
    ``if __name__ == "__main__":`` guard.  The cells' rules, with their
    Monte-Carlo bands, are built here first, and each work unit carries its cell's.

    Every cell can run, as its ``Experiment`` checked; a replication whose
    sample or moments fail is tallied as a failure rather than aborting the
    sweep, and the empirical rate is taken over the completed replications.
    """
    cpus = _cpus.usable_cpus()
    if threads is None:
        threads = cpus
    threads = _count(threads, "threads", 1)
    # Units are made as they are run, so memory before the first draw does not
    # grow with the replication counts.
    chunks = [max(1, min(64, -(-cell.replications // (min(threads, cpus) * 4))))
              for cell in exp.cells]
    rules = _cell_rules(exp)
    units = ((ci, lo, min(lo + chunk, cell.replications), rules[ci])
             for ci, (cell, chunk) in enumerate(zip(exp.cells, chunks))
             for lo in range(0, cell.replications, chunk))
    count = sum(-(-cell.replications // chunk) for cell, chunk in zip(exp.cells, chunks))
    workers = _cpus.worker_count(threads, count, cpus)
    if workers == 1:
        outcomes = (_run_unit(exp, *u) for u in units)
    else:
        outcomes = _cpus.process_map(partial(_run_unit, exp), units, workers)

    rejections: Dict[int, Counter] = defaultdict(Counter)
    failures: Dict[int, int] = defaultdict(int)
    elapsed: Dict[int, float] = defaultdict(float)
    for ci, rej, fail, dt in outcomes:
        rejections[ci].update(rej)
        failures[ci] += fail
        elapsed[ci] += dt

    results: List[CellResult] = []
    for ci, cell in enumerate(exp.cells):
        for m in cell.methods:
            done = cell.replications - failures[ci]
            rate = rejections[ci][m] / done if done > 0 else float("nan")
            lo, hi = binomial_ci(rejections[ci][m], done) if done > 0 else (float("nan"),) * 2
            results.append(CellResult(
                cell_index=ci,
                scenario=cell.scenario,
                method=m,
                replications=cell.replications,
                rejections=rejections[ci][m],
                failures=failures[ci],
                rate=rate,
                ci_low=lo,
                ci_high=hi,
                wall_time=elapsed[ci],
            ))
    return results


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def summarize(results: Sequence[CellResult]) -> str:
    """CSV summary keyed by (family, covariance, n, d, method), sorted.

    Wall times are deliberately not included so that reruns with different
    worker counts produce byte-identical files.
    """
    if not results:
        raise ValueError("no results to summarize")
    header = "family,cov,n,d,method,replications,rejections,failures,rate,ci_low,ci_high"
    ordered = sorted(results, key=lambda r: (
        r.scenario.family, r.scenario.cov.kind, r.scenario.n, r.scenario.d, r.method))
    lines = [header]
    for r in ordered:
        lines.append(",".join([
            r.scenario.family,
            r.scenario.cov.kind,
            str(r.scenario.n),
            str(r.scenario.d),
            r.method,
            str(r.replications),
            str(r.rejections),
            str(r.failures),
            _fmt(r.rate),
            _fmt(r.ci_low),
            _fmt(r.ci_high),
        ]))
    return "\n".join(lines) + "\n"


def results_jsonl(results: Sequence[CellResult]) -> str:
    """One JSON object per cell result, including scenario echo and wall time."""
    lines = [json.dumps({**r._asdict(), "scenario": scenario_to_json(r.scenario)}, sort_keys=True)
             for r in results]
    return "\n".join(lines) + "\n"


# --- JSON (de)serialization of experiment specifications -------------------

@lru_cache(maxsize=1)
def _schema_nodes() -> Dict[str, Mapping]:
    """Each spec object's node of the shipped schema, read once: its allowed and required keys."""
    schema = json.loads((Path(__file__).parent / "schemas/experiment-v1.schema.json").read_bytes())
    return {"experiment": schema, "cell": schema["properties"]["cells"]["items"],
            "scenario": schema["$defs"]["scenario"], "cov": schema["$defs"]["cov"]}


def _check_keys(doc, kind: str, what: str) -> None:
    """Refuse a spec object that is not a JSON object, or holds a key its schema
    node does not list, or lacks one the node requires."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    node = _schema_nodes()[kind]
    unknown = sorted(set(doc) - set(node["properties"]))
    if unknown:
        raise ValueError(f"{what} has unknown key {unknown[0]!r}")
    for key in node["required"]:
        if key not in doc:
            raise ValueError(f"{what} is missing {key!r}")


def _read(doc: Mapping, key: str, default=None):
    """``doc[key]``, else ``default``, as ``_build`` reads each value but a nested object:
    a number of no fraction as an int, as the schema's "integer" reads one (40.0 as 40)."""
    value = doc.get(key, default)
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _build(record, doc, kind: str, what: str, **defaults):
    """The ``record`` a spec object's keys build, as its fields: checked against the
    schema node ``kind``, each value read, a nested object by its own reader; ``defaults``
    stand in for missing keys, and the record holds, checks and copies the rest."""
    _check_keys(doc, kind, what)
    nested = {"cov": cov_from_json, "scenario": scenario_from_json}
    values = {k: nested[k](doc[k]) if k in nested else _read(doc, k) for k in doc}
    return record(**{**defaults, **values})


def cov_from_json(doc: Mapping) -> CovSpec:
    return _build(CovSpec, doc, "cov", "covariance spec")


def cov_to_json(spec: CovSpec) -> dict:
    return {k: v for k, v in vars(spec).items() if v is not None and (k != "seed" or v)}


def scenario_from_json(doc: Mapping) -> Scenario:
    return _build(Scenario, doc, "scenario", "scenario")


def scenario_to_json(s: Scenario) -> dict:
    doc = {"family": s.family, "n": s.n, "d": s.d, "cov": cov_to_json(s.cov)}
    if s.params:
        doc["params"] = dict(s.params)  # JSON writes the weights tuple as a list
    return doc


def experiment_from_json(doc: Mapping) -> Experiment:
    _check_keys(doc, "experiment", "experiment")
    cells_doc = doc["cells"]
    if not isinstance(cells_doc, list) or not cells_doc:
        raise ValueError(f"empty grid: cells must be a non-empty list, got {cells_doc!r}")
    # The one bound read here: no object holds the default when every cell sets its own.
    default_reps = _count(_read(doc, "replications", 1000), "replications", 1)
    cells = [_build(CellSpec, cell_doc, "cell", f"cell {ci}", replications=default_reps)
             for ci, cell_doc in enumerate(cells_doc)]
    return Experiment(**{k: _read(doc, k) for k in doc if k not in ("cells", "replications")},
                      cells=cells)
