"""Record the expected outputs that the benchmark's correctness gates compare to.

    python3 perfbench/record.py

Writes ``expected.json``: the sha256 of each sweep's ``summary.csv`` for the
seeds in ``sweeps.RECORDED_SEEDS`` at the base run length, and for
``cli_test`` the band edges of every (n, --mc) it requests plus every report
at the default seed.
Run it only at a commit whose outputs are known to be right; the gates exist
to show when a later change moves them.
"""

from __future__ import annotations

import json
import shutil
import sys

import clitest
import sweeps
from launch import Program
from run import HERE, ROOT


def record_sweeps(program: Program) -> dict:
    table = {"seconds": sweeps.BASE_SECONDS}
    spec = program.workdir / "spec.json"
    for workload in sweeps.WORKLOADS:
        table[workload] = {}
        for seed in sweeps.RECORDED_SEEDS:
            doc = sweeps.spec_for(workload, seed, sweeps.BASE_SECONDS)
            spec.write_text(json.dumps(doc), encoding="utf-8")
            out = program.workdir / "out"
            done = program.cli(["simulate", str(spec), "--out", str(out), "--threads", "1"])
            if done.code != 0:
                raise RuntimeError(f"{workload} seed {seed}: simulate exited {done.code}")
            summary = (out / "summary.csv").read_bytes()
            if sweeps.failures(summary.decode("utf-8")):
                raise RuntimeError(f"{workload} seed {seed}: replications failed")
            table[workload][str(seed)] = sweeps.digest(summary)
            print(workload, seed, table[workload][str(seed)], flush=True)
    return table


def record_cli(program: Program) -> dict:
    pool = clitest.prepare(program.workdir, clitest.DEFAULT_SEED)
    report_path = program.workdir / "report.json"
    bands, reports = {}, {}
    for name, mc in dict.fromkeys(clitest.ROUND + clitest.CHECKS):
        path, _ = pool[name]
        done = program.cli(["test", str(path), "--mc", str(mc), "--out", str(report_path)])
        if done.code not in (0, 3):
            raise RuntimeError(f"{name} --mc {mc}: test exited {done.code}")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        keep = {key: report[key] for key in ("range", "iqr", "composite")}
        reports[f"{name},{mc}"] = keep
        bands[f"{clitest.FILES[name][0]},{mc}"] = [
            keep["range"]["lower"], keep["range"]["upper"],
            keep["iqr"]["lower"], keep["iqr"]["upper"]]
        print(name, mc, json.dumps(keep), flush=True)
    return {"seed": clitest.DEFAULT_SEED, "bands": bands, "requests": reports}


def main() -> int:
    workdir = HERE / ".work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        program = Program(ROOT, workdir, sweeps.BASE_SECONDS)
        expected = {"cli_test": record_cli(program), "sweeps": record_sweeps(program)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
