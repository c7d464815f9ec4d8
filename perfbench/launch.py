"""Launching the program under test: one child process at a time, measured.

Every program process is started from a copy of the caller's environment with
the thread-count variables removed, so it runs with the worker and BLAS thread
counts users get by default.  The process is reaped with ``wait4`` so its own
CPU time and peak RSS are read from the kernel, not estimated.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
TRACER = HERE / "tracer.py"

# Variables that set worker or BLAS thread counts; cleared from every child.
THREAD_VARS = ("HDNORM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# The installed `hdnorm` console script does exactly this.
CLI = ("-c", "import sys; from hdnorm.cli import main; sys.exit(main())")


@dataclass(frozen=True)
class Exit:
    """Outcome of one child process: wall, CPU and peak RSS as the kernel saw them."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were correct.

    ``metrics`` maps an end-to-end metric name to (value, unit); ``layers``
    holds per-layer figures taken from the untraced runs, and ``trace`` the
    per-layer aggregates of the traced run when there was one.
    """

    attempted: int
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    trace: Optional[Dict[str, Dict[str, float]]] = None


class Program:
    """The program in a checkout: runs its CLI and helper scripts in fresh processes.

    ``seconds`` is the run length; a child that outlives a generous multiple
    of it is taken to hang and is killed.
    """

    def __init__(self, root: Path, workdir: Path, seconds: float):
        self.workdir = workdir
        self.timeout = 60.0 + 4.0 * seconds
        env = dict(os.environ)
        self.caller_thread_vars = {k: env.pop(k) for k in THREAD_VARS if k in env}
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def run(self, args: Sequence[str]) -> Exit:
        """Run ``python3 <args>`` to completion and measure it."""
        argv = [sys.executable, *args]
        with tempfile.TemporaryFile(dir=self.workdir) as out, \
                tempfile.TemporaryFile(dir=self.workdir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            status, usage = _wait(proc, self.timeout)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Exit(
                code=proc.returncode,
                wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0,
                stdout=out.read().decode("utf-8", "replace"),
                stderr=err.read().decode("utf-8", "replace"),
            )

    def cli(self, args: Sequence[str]) -> Exit:
        """Run ``hdnorm <args>``."""
        return self.run([*CLI, *args])

    def setup_seconds(self, code: str, args: Sequence[str], repeats: int) -> List[float]:
        """Wall times of ``repeats`` fresh processes running ``code``."""
        walls = []
        for _ in range(repeats):
            done = self.run(["-c", code, *args])
            if done.code != 0:
                raise RuntimeError(f"set-up probe failed ({done.code}): {done.stderr.strip()}")
            walls.append(done.wall_s)
        return walls


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with wait4, killing it if it outlives ``timeout``."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    return status, usage


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least 10 samples above it.

    With fewer than 11 samples no percentile qualifies and the maximum is
    reported as the 100th percentile.
    """
    ordered = sorted(values)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / len(ordered),
            "samples": len(ordered)}
