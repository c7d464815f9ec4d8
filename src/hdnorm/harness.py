"""Simulation experiment runner: empirical size and power over scenario grids.

An experiment is a list of cells, each pairing a scenario with a replication
count and one or more decision methods ("composite" for the radii test,
"squared" for the squared-radii contrast; both methods in one cell share the
same data draws).  Replication r of cell c draws its data from the substream
keyed by (master seed, c, r), and the Monte-Carlo rejection band of cell c is
keyed by (master seed, c), so results are independent of how the work is
partitioned across worker processes.  Every cell's band is built once, in the
calling process, before any worker starts; workers receive the finished band
edges and never draw a null sample themselves.

With more than one worker, work units run in processes started with the
``spawn`` method, each with BLAS limited to one thread, so that workers neither
contend for the interpreter lock nor oversubscribe the CPUs with BLAS threads.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import rng
from ._blas import BLAS_THREAD_VARS
from .errors import HdnormError
from .generators import CovSpec, Scenario, sample_scenario
from .montecarlo import (
    Band,
    BandKey,
    McSettings,
    composite_from_summary,
    install_bands,
    mc_quantiles,
    usable_cpus,
)
from .radii import radial_summary

VALID_METHODS = ("composite", "squared")

_CI_Z = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class CellSpec:
    scenario: Scenario
    replications: int
    methods: Tuple[str, ...] = ("composite",)


@dataclass(frozen=True)
class Experiment:
    name: str
    seed: int
    alpha: float
    mc_replications: int
    cells: Tuple[CellSpec, ...]


@dataclass(frozen=True)
class CellResult:
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


def default_threads() -> int:
    """Worker count: the HDNORM_THREADS environment variable, else cpu count.

    Raises ``ValueError`` when the variable holds anything but a whole number
    of at least 1.
    """
    raw = os.environ.get("HDNORM_THREADS", "").strip()
    if not raw:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"HDNORM_THREADS must be a whole number of at least 1, got {raw!r}")
    return value


def worker_count(threads: int, units: int, cpus: int) -> int:
    """Workers to start: the requested count capped by the work units and CPUs, at least 1."""
    return max(1, min(threads, units, cpus))


def binomial_ci(count: int, total: int) -> Tuple[float, float]:
    """Normal-approximation 95% interval with a continuity guard at 0 and 1."""
    if total < 1:
        raise ValueError("need at least one trial")
    p = count / total
    p_var = p if 0 < count < total else (count + 0.5) / (total + 1.0)
    half = _CI_Z * math.sqrt(p_var * (1.0 - p_var) / total)
    return (max(0.0, p - half), min(1.0, p + half))


def _cell_settings(exp: Experiment, cell_index: int) -> McSettings:
    return McSettings(
        replications=exp.mc_replications,
        seed=rng.derive_seed(exp.seed, rng.DOMAIN_NULL_RANGE, cell_index),
        alpha=exp.alpha,
    )


def _cell_bands(exp: Experiment) -> Dict[BandKey, Band]:
    """Every cell's range band, keyed as ``mc_quantiles`` memoises it.

    All methods of a cell decide their range sub-test against one band: q = 1
    at level alpha/2 (see ``composite_from_summary``).  A cell whose band
    cannot be built is left out, so its replications fail in ``_run_unit``
    like any other decision error.
    """
    bands = {}
    for ci, cell in enumerate(exp.cells):
        settings = _cell_settings(exp, ci)
        key = (cell.scenario.n, 1, replace(settings, alpha=settings.alpha / 2.0))
        try:
            bands[key] = mc_quantiles(*key)
        except HdnormError:
            continue
    return bands


def _run_unit(exp: Experiment, cell_index: int, lo: int, hi: int):
    """Run replications [lo, hi) of one cell; returns per-method tallies."""
    cell = exp.cells[cell_index]
    settings = _cell_settings(exp, cell_index)
    rejections = {m: 0 for m in cell.methods}
    failures = {m: 0 for m in cell.methods}
    start = time.perf_counter()
    for r in range(lo, hi):
        gen = rng.substream(exp.seed, rng.DOMAIN_DATA, cell_index, r)
        try:
            X = sample_scenario(cell.scenario, gen)
            rs = radial_summary(X)
        except HdnormError:
            for m in cell.methods:
                failures[m] += 1
            continue
        for m in cell.methods:
            try:
                report = composite_from_summary(rs, settings, squared=(m == "squared"))
            except HdnormError:
                failures[m] += 1
                continue
            if report.composite_reject:
                rejections[m] += 1
    return cell_index, rejections, failures, time.perf_counter() - start


@contextmanager
def _one_blas_thread():
    """Set the BLAS thread-count variables to "1" inside the block, then restore them.

    Only processes started inside the block see the change.
    """
    saved = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                del os.environ[k]
            else:
                os.environ[k] = v


def _process_map(fn, args: Sequence[tuple], workers: int,
                 initializer=None, initargs: tuple = ()) -> list:
    """``[fn(*a) for a in args]`` computed in ``workers`` spawned processes.

    ``fn``, ``initializer`` and ``initargs`` must be picklable; each worker
    calls ``initializer(*initargs)`` once before its first task.  Each worker
    runs BLAS on one thread.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context,
                             initializer=initializer, initargs=initargs) as pool:
        with _one_blas_thread():
            # map() submits every task at once; each submit starts a worker
            # until there are ``workers``, so all of them start in the block.
            pending = pool.map(fn, *zip(*args))
        return list(pending)


def run_experiment(exp: Experiment, threads: Optional[int] = None) -> List[CellResult]:
    """Run every cell; deterministic given the experiment seed.

    ``threads`` is the requested worker count, capped by the number of work
    units and of usable CPUs.  One worker runs in this process; more run in
    ``spawn``-started processes, so a script that calls this with more than
    one worker needs an ``if __name__ == "__main__":`` guard.  The cells'
    Monte-Carlo bands are built here first and handed to the workers.

    Per-replication errors are tallied as failures rather than aborting the
    sweep; the empirical rate is taken over the completed replications.
    """
    if threads is None:
        threads = default_threads()
    if threads < 1:
        raise ValueError(f"need at least one worker, got threads={threads}")
    cpus = usable_cpus()
    units = []
    for ci, cell in enumerate(exp.cells):
        if cell.replications < 1:
            raise ValueError(f"cell {ci} has no replications")
        chunk = max(1, min(64, -(-cell.replications // (min(threads, cpus) * 4))))
        for lo in range(0, cell.replications, chunk):
            units.append((ci, lo, min(lo + chunk, cell.replications)))

    rejections: Dict[int, Dict[str, int]] = {}
    failures: Dict[int, Dict[str, int]] = {}
    elapsed: Dict[int, float] = {}
    bands = _cell_bands(exp)
    workers = worker_count(threads, len(units), cpus)
    if workers == 1:
        outcomes = [_run_unit(exp, *u) for u in units]
    else:
        outcomes = _process_map(partial(_run_unit, exp), units, workers,
                                initializer=install_bands, initargs=(bands,))
    for ci, rej, fail, dt in outcomes:
        cell_rej = rejections.setdefault(ci, {m: 0 for m in exp.cells[ci].methods})
        cell_fail = failures.setdefault(ci, {m: 0 for m in exp.cells[ci].methods})
        for m, v in rej.items():
            cell_rej[m] += v
        for m, v in fail.items():
            cell_fail[m] += v
        elapsed[ci] = elapsed.get(ci, 0.0) + dt

    results: List[CellResult] = []
    for ci, cell in enumerate(exp.cells):
        for m in cell.methods:
            done = cell.replications - failures[ci][m]
            rate = rejections[ci][m] / done if done > 0 else float("nan")
            lo, hi = binomial_ci(rejections[ci][m], done) if done > 0 else (float("nan"),) * 2
            results.append(CellResult(
                cell_index=ci,
                scenario=cell.scenario,
                method=m,
                replications=cell.replications,
                rejections=rejections[ci][m],
                failures=failures[ci][m],
                rate=rate,
                ci_low=lo,
                ci_high=hi,
                wall_time=elapsed[ci],
            ))
    return results


def _fmt(x: float) -> str:
    return format(x, ".17g")


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
    lines = []
    for r in results:
        lines.append(json.dumps({
            "cell_index": r.cell_index,
            "scenario": scenario_to_json(r.scenario),
            "method": r.method,
            "replications": r.replications,
            "rejections": r.rejections,
            "failures": r.failures,
            "rate": r.rate,
            "ci_low": r.ci_low,
            "ci_high": r.ci_high,
            "wall_time": r.wall_time,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


# --- JSON (de)serialization of experiment specifications -------------------

def cov_from_json(doc: Mapping) -> CovSpec:
    kind = doc.get("kind")
    d = doc.get("d")
    if not isinstance(kind, str) or not isinstance(d, int):
        raise ValueError(f"covariance spec needs a string 'kind' and integer 'd': {doc}")
    kwargs = {}
    for key in ("rho", "density", "jitter", "rate"):
        if key in doc:
            kwargs[key] = float(doc[key])
    if "seed" in doc:
        kwargs["seed"] = int(doc["seed"])
    if kind == "sparse_random":
        kwargs.setdefault("density", 0.02)
        kwargs.setdefault("jitter", 0.05)
    if kind == "geom_decay":
        kwargs.setdefault("rate", 0.93)
    return CovSpec(kind=kind, d=d, **kwargs)


def cov_to_json(spec: CovSpec) -> dict:
    doc = {"kind": spec.kind, "d": spec.d}
    for key in ("rho", "density", "jitter", "rate"):
        value = getattr(spec, key)
        if value is not None:
            doc[key] = value
    if spec.seed:
        doc["seed"] = spec.seed
    return doc


def scenario_from_json(doc: Mapping) -> Scenario:
    for key in ("family", "n", "d", "cov"):
        if key not in doc:
            raise ValueError(f"scenario is missing {key!r}: {doc}")
    params = doc.get("params", {})
    if not isinstance(params, Mapping):
        raise ValueError(f"scenario params must be an object, got {params!r}")
    params = dict(params)
    if "weights" in params:
        params["weights"] = tuple(float(w) for w in params["weights"])
    return Scenario(
        family=str(doc["family"]),
        n=int(doc["n"]),
        d=int(doc["d"]),
        cov=cov_from_json(doc["cov"]),
        params=params,
    )


def scenario_to_json(s: Scenario) -> dict:
    doc = {"family": s.family, "n": s.n, "d": s.d, "cov": cov_to_json(s.cov)}
    if s.params:
        params = dict(s.params)
        if "weights" in params:
            params["weights"] = list(params["weights"])
        doc["params"] = params
    return doc


def experiment_from_json(doc: Mapping) -> Experiment:
    cells_doc = doc.get("cells")
    if not cells_doc:
        raise ValueError("empty grid: experiment needs at least one cell")
    default_reps = int(doc.get("replications", 1000))
    cells = []
    for cell_doc in cells_doc:
        methods = tuple(cell_doc.get("methods", ("composite",)))
        for m in methods:
            if m not in VALID_METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {VALID_METHODS}")
        cells.append(CellSpec(
            scenario=scenario_from_json(cell_doc["scenario"]),
            replications=int(cell_doc.get("replications", default_reps)),
            methods=methods,
        ))
    return Experiment(
        name=str(doc.get("name", "experiment")),
        seed=int(doc.get("seed", 0)),
        alpha=float(doc.get("alpha", 0.05)),
        mc_replications=int(doc.get("mc_replications", 10000)),
        cells=tuple(cells),
    )
