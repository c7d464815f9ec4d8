"""The hdnorm benchmark: end-to-end runs of the program and a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

  sweep_null_grid     ``hdnorm simulate`` on the 12 null-Gaussian cells of table 1
  sweep_highdim       ``hdnorm simulate`` on the d = 2000 cells
  sweep_alternatives  ``hdnorm simulate`` on the power and squared-radii cells
  cli_test            a closed loop of ``hdnorm test <csv>`` requests

The program is run from ``src/`` of the checkout this script sits in, one
process at a time, with the worker and BLAS thread-count variables cleared.
With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` the run also traces the workload in process on one worker and
the result line carries the per-layer metrics instead.  The last line of
standard output is the JSON result; the lines before it say the same for a
reader, with provenance.  The exit code is 0 when every output was correct,
1 when a correctness gate failed and 2 when the program is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

import clitest
import sweeps
from launch import HERE, Outcome, Program

ROOT = HERE.parent
WORKLOADS = (*sweeps.WORKLOADS, "cli_test")
SETUP_REPEATS = 3

# Measures interpreter start, `import hdnorm` and, for sweeps, parsing the spec.
SETUP_IMPORT = "import hdnorm"
SETUP_SPEC = ("import json, sys; import hdnorm; "
              "hdnorm.experiment_from_json(json.load(open(sys.argv[1])))")

_EMPTY = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0.0, "gramian": 0.0}


def layer_metrics(outcome: Outcome) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the traced run's aggregates and the untraced runs."""
    trace = outcome.trace or {}

    def row(name):
        return trace.get(name, _EMPTY)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    sub, normal, chi = row("rng.substream"), row("rng.standard_normal"), row("rng.chi_square")
    sample, cov = row("generators.sample_scenario"), row("generators.build_covariance")
    moments, bands = row("radii.radial_summary"), row("montecarlo.null_quasi_range_draws")
    decide, load = row("montecarlo.composite_from_summary"), row("cli.load_csv")
    layers = outcome.layers
    return {
        "rng.substream.calls": (sub["calls"], "count"),
        "rng.substream.busy_s": (sub["busy_s"], "s"),
        "rng.standard_normal.variates": (normal["work"], "count"),
        "rng.standard_normal.ns_per_variate": (ratio(normal["busy_s"], normal["work"], 1e9), "ns"),
        "rng.chi_square.variates": (chi["work"], "count"),
        "rng.chi_square.ns_per_variate": (ratio(chi["busy_s"], chi["work"], 1e9), "ns"),
        "generators.sample_scenario.calls": (sample["calls"], "count"),
        "generators.sample_scenario.self_s": (sample["self_s"], "s"),
        "generators.build_covariance.calls": (cov["calls"], "count"),
        "generators.build_covariance.busy_s": (cov["busy_s"], "s"),
        "radii.radial_summary.calls": (moments["calls"], "count"),
        "radii.radial_summary.busy_s": (moments["busy_s"], "s"),
        "radii.radial_summary.gramian_share":
            (ratio(moments["gramian"], moments["calls"]), "ratio"),
        "radii.radial_summary.gflop_computed": (moments["work"] / 1e9, "GFLOP"),
        "radii.radial_summary.gflops": (ratio(moments["work"], moments["busy_s"], 1e-9), "GFLOP/s"),
        "teststats.busy_s": (row("teststats")["busy_s"], "s"),
        "montecarlo.null_quasi_range_draws.calls": (bands["calls"], "count"),
        "montecarlo.null_quasi_range_draws.draws": (bands["work"], "count"),
        "montecarlo.null_quasi_range_draws.ns_per_draw":
            (ratio(bands["busy_s"], bands["work"], 1e9), "ns"),
        "montecarlo.composite_from_summary.calls": (decide["calls"], "count"),
        "montecarlo.composite_from_summary.self_s": (decide["self_s"], "s"),
        "montecarlo.decisions_per_band": (ratio(decide["calls"], bands["calls"]), "ratio"),
        "harness.self_s": (row("harness.run_experiment")["self_s"], "s"),
        "harness.failures": (layers.get("harness.failures", 0), "count"),
        "harness.cpu_per_wall": (layers.get("harness.cpu_per_wall", 0.0), "ratio"),
        "harness.cpu_per_wall_1w": (layers.get("harness.cpu_per_wall_1w", 0.0), "ratio"),
        "cli.load_csv.busy_s": (load["busy_s"], "s"),
        "cli.load_csv.mb_per_s": (ratio(load["work"], load["busy_s"], 1e-6), "MB/s"),
        "cli.composite_test.busy_s": (row("cli.composite_test")["busy_s"], "s"),
        "trace.overhead_s": (layers.get("trace.overhead_s", 0.0), "s"),
    }


def provenance(program: Program) -> dict:
    """Where the numbers came from: machine, versions, BLAS and the caller's settings."""
    probe = program.run([str(HERE / "probe.py")])
    if probe.code != 0:
        raise RuntimeError(f"provenance probe failed: {probe.stderr[-500:]}")
    sha = None  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "caller_thread_vars": program.caller_thread_vars,
        **json.loads(probe.stdout),
    }


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: Path):
    program = Program(ROOT, workdir, seconds)
    # The probe imports hdnorm first, so the interpreter's bytecode cache is
    # written before set-up is timed; users pay that only on first use.
    info = provenance(program)
    setup = []
    if not trace:
        if workload == "cli_test":
            setup = program.setup_seconds(SETUP_IMPORT, [], repeats=SETUP_REPEATS)
        else:
            spec = workdir / "setup_spec.json"
            spec.write_text(json.dumps(sweeps.spec_for(workload, seed, seconds)), encoding="utf-8")
            setup = program.setup_seconds(SETUP_SPEC, [str(spec)], repeats=SETUP_REPEATS)
    if workload == "cli_test":
        outcome = clitest.run(program, seed, seconds, trace)
    else:
        outcome = sweeps.run(program, workload, seed, seconds, trace)
    if setup:
        outcome.metrics["setup_s"] = (statistics.median(setup), "s")
        outcome.notes.append(f"setup_s is the median of {len(setup)} processes")
    return info, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=sweeps.BASE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "hdnorm" / "__init__.py").is_file():
        print(f"error: no hdnorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = HERE / ".work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        info, outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = layer_metrics(outcome) if args.trace else outcome.metrics
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for note in outcome.notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    ratio = outcome.failed / outcome.attempted
    print(f"  fail_ratio {ratio:.6g} ratio ({outcome.failed} of {outcome.attempted})")
    for error in outcome.errors:
        print(f"  FAILED: {error}")
    print("provenance " + json.dumps(info, sort_keys=True))
    correct = not outcome.errors
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
