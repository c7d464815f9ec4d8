"""Sweep workloads: ``hdnorm simulate`` on a fixed cell grid at N and 1 workers.

Each workload is an experiment spec in ``specs/`` whose cells are copied from
the bundled ``tables/`` specs, with replication counts sized for a run of
``BASE_SECONDS``.  The workload seed replaces the spec's master seed.  One run
simulates the grid once at the default worker count and twice with
``--threads 1``; every ``summary.csv`` must be byte-identical, and its sha256
must equal the digest recorded for the seed when there is one.
"""

from __future__ import annotations

import hashlib
import json
from typing import List

from launch import EXPECTED, HERE, TRACER, Outcome, Program, tail

SPEC_DIR = HERE / "specs"

WORKLOADS = ("sweep_null_grid", "sweep_highdim", "sweep_alternatives")

# The replication counts in specs/*.json are those of a run this long: the
# default-worker and both 1-worker processes together take about this many
# seconds at the baseline's measured rates (baseline.json).
BASE_SECONDS = 20

# The seeds whose summary.csv digests expected.json records, at BASE_SECONDS.
RECORDED_SEEDS = range(20)

# One-worker processes per run.  At one worker the rate follows single-thread
# speed, which on a shared host varies most from run to run, so the 1-worker
# rate pools two processes.
SINGLE_WORKER_PROCESSES = 2


def spec_for(workload: str, seed: int, seconds: int) -> dict:
    """The workload's experiment spec for this seed, scaled to ``seconds``."""
    doc = json.loads((SPEC_DIR / f"{workload}.json").read_text(encoding="utf-8"))
    for cell in doc["cells"]:
        cell["replications"] = max(2, round(cell["replications"] * seconds / BASE_SECONDS))
    doc["seed"] = seed
    return doc


def attempted(doc: dict) -> int:
    """Replications times decision methods over all cells."""
    return sum(c["replications"] * len(c.get("methods", ("composite",))) for c in doc["cells"])


def failures(summary: str) -> int:
    """Sum of the ``failures`` column of a summary.csv."""
    header, *rows = summary.splitlines()
    col = header.split(",").index("failures")
    return sum(int(row.split(",")[col]) for row in rows)


def digest(summary: bytes) -> str:
    return hashlib.sha256(summary).hexdigest()


def recorded_digest(workload: str, seed: int, seconds: int):
    """The sha256 recorded for this run, or None if none was recorded."""
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))["sweeps"]
    if seconds != table["seconds"]:
        return None
    return table[workload].get(str(seed))


def gate(summary: bytes, summaries_1w: List[bytes], doc: dict, expected) -> List[str]:
    """Problems with the run's summary.csv files; an empty list when they are correct.

    Every 1-worker file must be byte-identical to the default-worker one, which
    must hold one row per cell and method with the spec's replication counts
    and whose sha256 must equal ``expected`` unless that is None.  The file
    holds per-cell rejection and failure counts, so these gates check counts,
    not the statistics behind them.
    """
    problems = []
    if any(other != summary for other in summaries_1w):
        problems.append("summary.csv differs between the default worker count and 1 worker")
    header, *rows = summary.decode("utf-8").splitlines()
    if len(rows) != sum(len(c.get("methods", ("composite",))) for c in doc["cells"]):
        problems.append(f"summary.csv has {len(rows)} rows for {len(doc['cells'])} cells")
    col = header.split(",").index("replications")
    total = sum(int(r.split(",")[col]) for r in rows)
    if total != attempted(doc):
        problems.append(f"summary.csv counts {total} replications, expected {attempted(doc)}")
    if expected is not None and digest(summary) != expected:
        problems.append(f"summary.csv sha256 {digest(summary)} != recorded {expected}")
    return problems


def run(program: Program, workload: str, seed: int, seconds: int, trace: bool) -> Outcome:
    """Simulate the grid at the default worker count and at 1 worker, then check the outputs."""
    doc = spec_for(workload, seed, seconds)
    spec = program.workdir / "spec.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    out_n, out_1 = program.workdir / "out_n", program.workdir / "out_1"
    default = program.cli(["simulate", str(spec), "--out", str(out_n)])
    singles = []
    for i in range(SINGLE_WORKER_PROCESSES):
        singles.append(program.cli(["simulate", str(spec), "--out", str(out_1 / str(i)),
                                    "--threads", "1"]))
    runs = [default, *singles]

    outcome = Outcome(attempted=len(runs) * attempted(doc))
    for done in runs:
        if done.code != 0:
            outcome.errors.append(f"simulate exited {done.code}: {done.stderr[-500:]}")
    if outcome.errors:
        outcome.failed = outcome.attempted
        return outcome

    try:
        summary = (out_n / "summary.csv").read_bytes()
        summaries_1w = [(out_1 / str(i) / "summary.csv").read_bytes() for i in range(len(singles))]
    except OSError as exc:
        outcome.errors.append(f"no summary.csv: {exc}")
        return outcome
    expected = recorded_digest(workload, seed, seconds)
    outcome.errors += gate(summary, summaries_1w, doc, expected)
    checked = "checked against the recorded digest" if expected else "no digest recorded"
    outcome.notes.append(f"summary.csv sha256 {digest(summary)} ({checked} for seed {seed})")
    failed = failures(summary.decode("utf-8"))
    outcome.failed = len(runs) * failed

    reps = sum(c["replications"] for c in doc["cells"])
    single_wall = sum(done.wall_s for done in singles)
    tail_wall = tail([default.wall_s])
    outcome.metrics = {
        "reps_per_s": (reps / default.wall_s, "1/s"),
        "reps_per_s_1w": (reps * len(singles) / single_wall, "1/s"),
        "cpu_s_per_rep": (default.cpu_s / reps, "s"),
        "latency_p50_s": (default.wall_s, "s"),
        "latency_tail_s": (tail_wall["value"], "s"),
        "peak_rss_mb": (max(done.rss_mb for done in runs), "MB"),
    }
    outcome.notes.append(f"{reps} replications per simulate process, {len(singles)} at 1 worker; "
                         f"latency is the wall time of 1 simulate process at the default worker "
                         f"count (tail: p{tail_wall['percentile']:g} of {tail_wall['samples']})")
    outcome.layers = {
        "harness.failures": failed,
        "harness.cpu_per_wall": default.cpu_s / default.wall_s,
        "harness.cpu_per_wall_1w": sum(done.cpu_s for done in singles) / single_wall,
    }
    if trace:
        traced_summary = program.workdir / "traced_summary.csv"
        spans = program.workdir / "trace.json"
        done = program.run([str(TRACER), "sweep", str(spec), str(traced_summary), str(spans)])
        if done.code != 0:
            outcome.errors.append(f"traced run exited {done.code}: {done.stderr[-500:]}")
            return outcome
        if traced_summary.read_bytes() != summary:
            outcome.errors.append("the traced run's summary.csv differs from the untraced one")
        traced = json.loads(spans.read_text(encoding="utf-8"))
        if traced["missing"]:
            outcome.notes.append(f"not traced (absent): {', '.join(traced['missing'])}")
        outcome.trace = traced["layers"]
        outcome.layers["trace.overhead_s"] = done.wall_s - single_wall / len(singles)
    return outcome
