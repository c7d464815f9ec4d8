"""Per-layer tracing of hdnorm from outside the package.

The tracer wraps the public calls into each module of the package (and the
CLI's CSV loader) with spans, runs one workload in this process on a single
worker, and writes its spans and per-layer aggregates at exit.  A span records its name,
start, end, parent span and the replication or request it belongs to; spans
are kept in memory until the run ends.  A layer's self time is its span time
minus the time its child spans cover.

Every wrapper replaces the original function object in each hdnorm module
that holds it (``from .x import f`` makes copies of the binding), and
``traced`` puts every original back on exit.

Run as a script:

    python3 perfbench/tracer.py sweep SPEC.json SUMMARY.csv OUT.json
    python3 perfbench/tracer.py test DATA.csv MC REPORT.json OUT.json
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, function, span name, work counter).  A counter maps the call's
# positional arguments and its return value to the amount of work it did.
TARGETS = (
    ("hdnorm.rng", "substream", "rng.substream", None),
    ("hdnorm.rng", "standard_normal", "rng.standard_normal", lambda a, r: _size(a[1])),
    ("hdnorm.rng", "chi_square", "rng.chi_square", lambda a, r: _size(a[2])),
    ("hdnorm.generators", "sample_scenario", "generators.sample_scenario", None),
    ("hdnorm.generators", "build_covariance", "generators.build_covariance", None),
    ("hdnorm.radii", "radial_summary", "radii.radial_summary",
     lambda a, r: _moments_work(r.n, r.d, r.dispersion.used_gramian)),
    ("hdnorm.teststats", "range_statistic", "teststats", None),
    ("hdnorm.teststats", "iqr_statistic", "teststats", None),
    ("hdnorm.teststats", "squared_radii_statistics", "teststats", None),
    ("hdnorm.montecarlo", "null_quasi_range_draws", "montecarlo.null_quasi_range_draws",
     lambda a, r: a[2]),
    ("hdnorm.montecarlo", "composite_from_summary", "montecarlo.composite_from_summary", None),
    ("hdnorm.harness", "run_experiment", "harness.run_experiment", None),
    ("hdnorm.cli", "_load_matrix", "cli.load_csv", lambda a, r: os.path.getsize(a[0])),
    ("hdnorm.cli", "composite_test", "cli.composite_test", None),
)


def _size(shape) -> int:
    return math.prod(shape) if isinstance(shape, tuple) else int(shape)


class Tracer:
    """Spans recorded by the wrappers, in call order."""

    def __init__(self):
        # Each span: [name, start, end, parent index, request id, work].
        self.spans: List[list] = []
        # The replication or request the current spans belong to.  Sweeps set
        # it from the (cell, replication) path of each data substream.
        self.request = None
        self.data_domain = None
        self._open: List[int] = []

    def wrap(self, name: str, fn: Callable, work: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._open

        def wrapper(*args, **kwargs):
            if name == "rng.substream" and len(args) >= 4 and args[1] == self.data_domain:
                self.request = (int(args[2]), int(args[3]))
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if work is not None:
                spans[index][5] = work(args, result)
            return result

        return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install a wrapper for every target; restore all originals on exit.

    Yields the list of targets that do not exist in this version of the
    package, so that their metrics can be reported as missing.
    """
    for module in {t[0] for t in TARGETS}:
        importlib.import_module(module)
    tracer.data_domain = getattr(sys.modules["hdnorm.rng"], "DOMAIN_DATA", None)
    modules = [m for name, m in list(sys.modules.items())
               if name == "hdnorm" or name.startswith("hdnorm.")]
    patched, missing = [], []
    try:
        for module, attr, name, work in TARGETS:
            original = getattr(sys.modules[module], attr, None)
            if original is None:
                missing.append(f"{module}.{attr}")
                continue
            wrapper = tracer.wrap(name, original, work)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    setattr(m, attr, wrapper)
                    patched.append((m, attr, original))
        yield missing
    finally:
        for m, attr, original in reversed(patched):
            setattr(m, attr, original)


def _moments_work(n: int, d: int, gramian: bool) -> Tuple[float, bool]:
    """Computed FLOPs of one moments pass over an n x d sample, and its path.

    Centering and the row norms cost 4nd.  The Gramian path forms an n x n
    product, 2 n^2 d as a general matrix product, and the covariance path a
    d x d one, 2 n d^2; either is followed by the squared Frobenius norm of
    the product.  The path is the one the call reports it took.
    """
    k = n if gramian else d
    return 4.0 * n * d + 2.0 * n * d * k + 2.0 * k * k, gramian


def aggregate(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, busy seconds, self seconds and summed work."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, _, _, work) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0.0,
                                    "gramian": 0.0})
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += end - start - covered[i]
        if isinstance(work, tuple):
            row["work"] += work[0]
            row["gramian"] += work[1]
        elif work is not None:
            row["work"] += work
    return out


def main(argv: List[str]) -> int:
    mode, *rest = argv
    tracer = Tracer()
    with traced(tracer) as missing:
        if mode == "sweep":
            spec, summary_path, out = rest
            from hdnorm.harness import experiment_from_json, run_experiment, summarize
            with open(spec, encoding="utf-8") as f:
                exp = experiment_from_json(json.load(f))
            results = run_experiment(exp, threads=1)
            with open(summary_path, "w", encoding="utf-8") as f:
                f.write(summarize(results))
            code = 0
        elif mode == "test":
            csv, mc, report, out = rest
            from hdnorm.cli import main as cli_main
            tracer.request = csv
            code = cli_main(["test", csv, "--mc", mc, "--out", report])
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    result = {"code": code, "missing": missing, "layers": aggregate(tracer.spans),
              "spans": tracer.spans}
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
