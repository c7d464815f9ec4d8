"""The ``cli_test`` workload: a closed loop of ``hdnorm test <csv>`` requests.

One client sends the next request only after the previous process has exited.
The CSVs are made before the timed loop from the workload seed with plain
numpy, so the inputs never depend on the code under test, and are deleted
after the run.  Every run sends the same multiset of requests; the seed
changes the data and the order.

Each report is checked against statistics computed here from the generated
matrix with numpy alone, against the band edges recorded for its (n, --mc),
and, at the default seed, against the recorded report itself.  The exit code
must be 0 or 3 and agree with the report's verdict.  The timed files all have
n <= d, so the program takes its Gramian moment path on them; one untimed
request on an n > d file checks the covariance path the same way.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from launch import EXPECTED, TRACER, Outcome, Program, tail

DEFAULT_SEED = 0

# name -> (n, d, rows).  Gaussian rows have a diagonal covariance; heavy rows
# are multivariate t with 4 degrees of freedom, which the test rejects.
FILES = {
    "small_gauss": (100, 5000, "gauss"),
    "small_heavy": (100, 5000, "heavy"),
    "wide_heavy": (60, 50000, "heavy"),
    "tall_gauss": (200, 20000, "gauss"),
    "narrow_gauss": (300, 60, "gauss"),
}

# One round of requests as (file, --mc).  Most use the default --mc 10000.
ROUND = (
    ("small_gauss", 10000),
    ("small_heavy", 10000),
    ("small_gauss", 10000),
    ("small_heavy", 10000),
    ("wide_heavy", 10000),
    ("tall_gauss", 10000),
    ("small_heavy", 100000),
    ("small_gauss", 100000),
)

# Untimed requests, sent before the timed loop only to check their reports.
CHECKS = (("narrow_gauss", 10000),)

# Whole rounds per 20 seconds of --seconds.  Three rounds, 24 requests, are
# the fewest whole rounds that put the latency tail (the highest percentile
# with 10 samples beyond it) above the median.  At the baseline's measured
# 0.6 requests per second (baseline.json) they take about 40 s, so this
# workload's request loop runs longer than --seconds.
ROUNDS_PER_20_SECONDS = 3


def matrix(seed: int, name: str) -> np.ndarray:
    n, d, rows = FILES[name]
    gen = np.random.default_rng([seed, list(FILES).index(name)])
    X = gen.standard_normal((n, d)) * np.linspace(0.5, 1.5, d)
    if rows == "heavy":
        X *= np.sqrt(4.0 / gen.chisquare(4.0, n))[:, None]
    return X


def write_csv(path: Path, X: np.ndarray) -> None:
    """Write with repr() so that parsing gives back exactly these doubles."""
    with open(path, "w", encoding="utf-8") as f:
        for row in X.tolist():
            f.write(",".join(map(repr, row)))
            f.write("\n")


_Q75 = statistics.NormalDist().inv_cdf(0.75)


def reference_statistics(X: np.ndarray) -> Tuple[float, float]:
    """The range and IQR statistics of the paper, straight from the formulas.

    The dispersion index 2 tr(Sigma^2)/tr(Sigma) uses the unbiased
    U-statistic estimate of tr(Sigma^2) from the centered Gramian.
    """
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    r2 = np.einsum("ij,ij->i", Xc, Xc)
    G = Xc @ Xc.T
    tr1 = r2.sum() / (n - 1)
    tr2 = np.sum(G * G) / (n - 1) ** 2
    r4 = np.sum(r2 * r2)
    tr_sq = (n - 1) / (n * (n - 2) * (n - 3)) * ((n - 1) * (n - 2) * tr2 + tr1 * tr1
                                                 - n / (n - 1) * r4)
    delta = 2.0 * tr_sq / tr1
    r = np.sort(np.sqrt(r2))
    a = math.sqrt(2.0 * math.log(n))
    b = a - (math.log(math.log(n)) + math.log(4.0 * math.pi)) / (2.0 * a)
    t_range = 2.0 * a / math.sqrt(delta) * (r[-1] - r[0]) - 2.0 * a * b
    spread = r[math.floor(0.75 * n) - 1] - r[math.floor(0.25 * n) - 1]
    t_iqr = 2.0 * math.sqrt(n) * (spread / math.sqrt(delta) - _Q75)
    return float(t_range), float(t_iqr)


def requests(seed: int, seconds: int) -> List[Tuple[str, int]]:
    """Whole rounds for a run of ``seconds``, each shuffled by the seed.

    Whole rounds, so that every run sends the same multiset; a run too short
    for one round sends part of one, at least 2 requests.
    """
    rounds = round(ROUNDS_PER_20_SECONDS * seconds / 20)
    count = len(ROUND) * ROUNDS_PER_20_SECONDS * seconds / 20
    gen = np.random.default_rng([seed, len(FILES)])
    out: List[Tuple[str, int]] = []
    for _ in range(max(1, rounds)):
        out += [ROUND[i] for i in gen.permutation(len(ROUND))]
    return out if rounds else out[:max(2, round(count))]


def check_report(report: dict, code: int, ref: Tuple[float, float], n: int, mc: int,
                 expected: dict, recorded) -> List[str]:
    """Problems with one report; an empty list when it is correct."""
    problems = []
    reject = report["composite"]["reject"]
    if code != (3 if reject else 0):
        problems.append(f"exit code {code} does not match verdict reject={reject}")
    for key, value in zip(("range", "iqr"), ref):
        sub = report[key]
        if not math.isclose(sub["value"], value, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{key} statistic {sub['value']!r} != reference {value!r}")
        if sub["reject"] != (not sub["lower"] <= sub["value"] <= sub["upper"]):
            problems.append(f"{key} verdict disagrees with its statistic and band")
    if reject != (report["range"]["reject"] or report["iqr"]["reject"]):
        problems.append("composite verdict is not range-or-iqr")
    band = expected["bands"].get(f"{n},{mc}")
    edges = [report["range"]["lower"], report["range"]["upper"],
             report["iqr"]["lower"], report["iqr"]["upper"]]
    if band is not None and edges != band:
        problems.append(f"band edges {edges} != recorded {band} for n={n}, mc={mc}")
    if recorded is not None:
        for key in ("range", "iqr"):
            for field in ("value", "lower", "upper", "reject"):
                if report[key][field] != recorded[key][field]:
                    problems.append(f"{key}.{field} {report[key][field]!r} "
                                    f"!= recorded {recorded[key][field]!r}")
        if reject != recorded["composite"]["reject"]:
            problems.append("composite verdict differs from the recorded one")
    return problems


def checked_report(path: Path, code: int, ref, n: int, mc: int, expected: dict,
                   recorded) -> List[str]:
    """Read a report and check it; a missing or malformed report is a problem too."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        return check_report(report, code, ref, n, mc, expected, recorded)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]


def prepare(workdir: Path, seed: int) -> Dict[str, Tuple[Path, Tuple[float, float]]]:
    """Write the CSV pool; returns each file's path and reference statistics."""
    pool = {}
    for name in FILES:
        X = matrix(seed, name)
        path = workdir / f"{name}.csv"
        write_csv(path, X)
        pool[name] = (path, reference_statistics(X))
    return pool


def run(program: Program, seed: int, seconds: int, trace: bool) -> Outcome:
    """Send the request stream; time each request from launch to exit."""
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["cli_test"]
    pool = prepare(program.workdir, seed)
    sizes = {name: path.stat().st_size for name, (path, _) in pool.items()}
    stream = requests(seed, seconds)
    report_path = program.workdir / "report.json"
    outcome = Outcome(attempted=len(CHECKS) + len(stream))
    outcome.notes.append("CSV pool: " + ", ".join(
        f"{name} {FILES[name][0]}x{FILES[name][1]} {sizes[name]} bytes" for name in FILES))
    recorded = expected["requests"] if seed == expected["seed"] else None

    def send(label: str, name: str, mc: int):
        """One request, checked; its Exit, or None when it did not exit 0 or 3."""
        path, ref = pool[name]
        report_path.unlink(missing_ok=True)
        done = program.cli(["test", str(path), "--mc", str(mc), "--out", str(report_path)])
        if done.code not in (0, 3):
            outcome.failed += 1
            outcome.errors.append(f"{label} ({name}, --mc {mc}) exited {done.code}: "
                                  f"{done.stderr[-300:]}")
            return None
        want = recorded.get(f"{name},{mc}") if recorded is not None else None
        if recorded is not None and want is None:
            outcome.errors.append(f"no recorded report for {name}, --mc {mc}")
        problems = checked_report(report_path, done.code, ref, FILES[name][0], mc, expected, want)
        outcome.errors += [f"{label} ({name}, --mc {mc}): {p}" for p in problems]
        return done

    for name, mc in CHECKS:
        send("untimed request", name, mc)
    walls, cpus, rss, verdicts = [], [], [], []
    by_kind: Dict[Tuple[str, int], List[float]] = {}
    for i, (name, mc) in enumerate(stream):
        done = send(f"request {i}", name, mc)
        if done is None:
            continue
        walls.append(done.wall_s)
        cpus.append(done.cpu_s)
        rss.append(done.rss_mb)
        by_kind.setdefault((name, mc), []).append(done.wall_s)
        verdicts.append(done.code == 3)
    if not walls:
        return outcome

    rate = len(walls) / sum(walls)
    tail_wall = tail(walls)
    outcome.metrics = {
        "reps_per_s": (rate, "1/s"),
        # `hdnorm test` has one worker, so its 1-worker rate is the same figure.
        "reps_per_s_1w": (rate, "1/s"),
        "cpu_s_per_rep": (sum(cpus) / len(cpus), "s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_tail_s": (tail_wall["value"], "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    outcome.notes.append(f"{len(walls)} requests, {sum(verdicts)} rejected; latency tail is "
                         f"p{tail_wall['percentile']:.1f} of {tail_wall['samples']} samples")

    if trace:
        trace_requests(program, pool, stream[:len(ROUND)], by_kind, expected, outcome)
    for path, _ in pool.values():
        path.unlink()
    return outcome


def trace_requests(program: Program, pool, stream, by_kind, expected: dict,
                   outcome: Outcome) -> None:
    """Trace the first round of requests, each in its own process as users run it."""
    spans = program.workdir / "trace.json"
    report_path = program.workdir / "traced_report.json"
    totals: Dict[str, Dict[str, float]] = {}
    overhead, missing = [], set()
    for name, mc in stream:
        path, ref = pool[name]
        report_path.unlink(missing_ok=True)
        done = program.run([str(TRACER), "test", str(path), str(mc), str(report_path), str(spans)])
        traced = json.loads(spans.read_text(encoding="utf-8")) if done.code == 0 else None
        if traced is None or traced["code"] not in (0, 3):
            outcome.errors.append(f"traced request ({name}, --mc {mc}) failed: "
                                  f"{done.stderr[-300:]}")
            continue
        outcome.errors += [f"traced request ({name}, --mc {mc}): {p}" for p in checked_report(
            report_path, traced["code"], ref, FILES[name][0], mc, expected, None)]
        missing.update(traced["missing"])
        for layer, row in traced["layers"].items():
            total = totals.setdefault(layer, dict.fromkeys(row, 0.0))
            for key, value in row.items():
                total[key] += value
        overhead.append(done.wall_s - statistics.median(by_kind[(name, mc)]))
    if missing:
        outcome.notes.append(f"not traced (absent): {', '.join(sorted(missing))}")
    outcome.trace = totals
    outcome.layers["trace.overhead_s"] = statistics.mean(overhead) if overhead else 0.0
