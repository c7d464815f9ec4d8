"""Command-line interface: test a dataset, emit diagnostics, run experiments.

Exit codes: 0 the null hypothesis is not rejected, 3 it is rejected,
1 any error, 2 command-line usage problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._blas import default_to_one_blas_thread

# Before numpy loads: BLAS reads its thread count only then.
default_to_one_blas_thread()

import numpy as np  # noqa: E402
from scipy.special import ndtri

from . import rng
from .errors import HdnormError
from .harness import experiment_from_json, results_jsonl, run_experiment, summarize
from .moments import DataMatrix
from .montecarlo import (
    McSettings,
    composite_test,
    decide_iqr,
    decide_range,
    decision_to_dict,
)
from .radii import radial_summary, radii as compute_radii
from .teststats import iqr_statistic, quasi_range_statistic, range_statistic

SCHEMA_VERSION = 1
DEFAULT_MAX_PAIRS = 1_000_000


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_matrix(path: str, header: bool) -> DataMatrix:
    try:
        values = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise SystemExit2(f"cannot parse {path} as a numeric CSV: {exc}")
    if values.size == 0:
        raise SystemExit2(f"{path} contains no data rows")
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        line = int(r) + 1 + (1 if header else 0)
        raise SystemExit2(
            f"non-finite value in {path} at data row {int(r) + 1}, column {int(c) + 1}"
            f" (file line {line})"
        )
    return DataMatrix.from_array(values)


class SystemExit2(Exception):
    """Internal error carrier; converted to exit status 1 with a message."""


def _parse_stats(raw: str):
    if raw in ("composite", "range", "iqr", "squared"):
        return raw, None
    if raw.startswith("quasi:"):
        try:
            q = int(raw.split(":", 1)[1])
        except ValueError:
            raise SystemExit2(f"bad quasi-range order in --stats {raw!r}")
        return "quasi", q
    raise SystemExit2(f"unknown --stats value {raw!r}")


def cmd_test(args) -> int:
    X = _load_matrix(args.file, args.header)
    settings = McSettings(replications=args.mc, seed=args.seed, alpha=args.alpha)
    stats, q = _parse_stats(args.stats)

    if stats in ("composite", "squared"):
        report = composite_test(X, settings, squared=(stats == "squared"))
        doc = report.to_dict()
        reject = report.composite_reject
        detail = (
            f"range {'reject' if report.range_decision.reject else 'accept'}, "
            f"iqr {'reject' if report.iqr_decision.reject else 'accept'}"
        )
    else:
        rs = radial_summary(X)
        if stats == "range":
            decision = decide_range(range_statistic(rs), X.n, settings)
            key = "range"
        elif stats == "iqr":
            decision = decide_iqr(iqr_statistic(rs), settings)
            key = "iqr"
        else:
            decision = decide_range(quasi_range_statistic(rs, q), X.n, settings)
            key = "quasi_range"
        doc = {
            "n": X.n,
            "d": X.d,
            "alpha": settings.alpha,
            "mc_replications": settings.replications,
            "seed": settings.seed,
            "squared": False,
            "delta_hat": rs.dispersion.delta_hat,
            "tr_sigma_d": rs.dispersion.tr_sigma_d,
            "tr_sigma_sq_hat": rs.dispersion.tr_sigma_sq_hat,
            "used_gramian": rs.dispersion.used_gramian,
            key: decision_to_dict(decision),
        }
        reject = decision.reject
        detail = f"{key} statistic {decision.statistic.value:.4f}"

    doc = {"schema_version": SCHEMA_VERSION, "statistics": stats, "input": str(args.file),
           **doc, "reject": reject}
    out = Path(args.out)
    out.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    verdict = "rejected" if reject else "not rejected"
    print(f"H0 {verdict} at alpha={settings.alpha:g} ({detail}); report: {out}")
    return 3 if reject else 0


def _pair_indices(n: int, k: int, gen) -> np.ndarray:
    """Uniform k-subset of the n(n-1)/2 pair indices (Floyd's algorithm)."""
    total = n * (n - 1) // 2
    chosen = set()
    for t in range(total - k, total):
        j = int(gen.integers(0, t + 1))
        chosen.add(t if j in chosen else j)
    return np.sort(np.fromiter(chosen, dtype=np.int64, count=k))


def _interpoint_distances(values: np.ndarray, max_pairs: int, seed: int) -> np.ndarray:
    # Imported here: ``hdnorm test`` never needs scipy.spatial.
    from scipy.spatial.distance import pdist

    n = values.shape[0]
    total = n * (n - 1) // 2
    if total <= max_pairs:
        return pdist(values) if total > 0 else np.empty(0)
    gen = rng.substream(seed, rng.DOMAIN_RESERVOIR)
    linear = _pair_indices(n, max_pairs, gen)
    first = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    i = np.searchsorted(first, linear, side="right") - 1
    j = i + 1 + (linear - first[i])
    out = np.empty(max_pairs)
    step = max(1, (1 << 22) // max(1, values.shape[1]))
    for lo in range(0, max_pairs, step):
        hi = min(lo + step, max_pairs)
        diff = values[i[lo:hi]] - values[j[lo:hi]]
        out[lo:hi] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return out


def _write_csv(path: Path, header: str, columns) -> None:
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_diagnose(args) -> int:
    X = _load_matrix(args.file, args.header)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    r = np.sort(compute_radii(X))
    _write_csv(outdir / "radii.csv", "radius", [r])

    wrote_qq = False
    try:
        rs = radial_summary(X)
    except HdnormError as exc:
        print(f"skipping QQ data: {exc}", file=sys.stderr)
    else:
        positions = ndtri((np.arange(1, X.n + 1) - 0.5) / X.n)
        _write_csv(outdir / "qq.csv", "position,standardized_radius",
                   [positions, np.sort(rs.standardized)])
        wrote_qq = True

    distances = _interpoint_distances(X.values, args.max_pairs, args.seed)
    _write_csv(outdir / "interpoint.csv", "distance", [distances])

    written = ["radii.csv", "interpoint.csv"] + (["qq.csv"] if wrote_qq else [])
    print(f"wrote {', '.join(sorted(written))} to {outdir}")
    return 0


def cmd_simulate(args) -> int:
    try:
        doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SystemExit2(f"cannot read {args.spec}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit2(f"{args.spec} is not valid JSON: {exc}")
    try:
        exp = experiment_from_json(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit2(f"bad experiment spec: {exc}")

    results = run_experiment(exp, threads=args.threads)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "summary.csv").write_text(summarize(results), encoding="utf-8")
    (outdir / "results.jsonl").write_text(results_jsonl(results), encoding="utf-8")
    print(f"{exp.name}: {len(results)} result rows -> {outdir}/summary.csv")
    return 0


def _worker_count(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"need a whole number of at least 1, got {raw!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdnorm",
        description="High-dimensional multivariate normality test from radial concentration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test a CSV dataset (rows = observations)")
    p_test.add_argument("file")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--mc", type=int, default=10000, help="Monte-Carlo replications")
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--header", action="store_true", help="skip one header line")
    p_test.add_argument("--out", default="report.json")
    p_test.add_argument("--stats", default="composite",
                        help="composite|range|iqr|quasi:q|squared")
    p_test.set_defaults(func=cmd_test)

    p_diag = sub.add_parser("diagnose", help="emit radii / QQ / interpoint-distance data")
    p_diag.add_argument("file")
    p_diag.add_argument("--header", action="store_true")
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--max-pairs", type=int, default=DEFAULT_MAX_PAIRS)
    p_diag.add_argument("--out", default="diagnostics")
    p_diag.set_defaults(func=cmd_diagnose)

    p_sim = sub.add_parser("simulate", help="run a simulation experiment spec")
    p_sim.add_argument("spec")
    p_sim.add_argument("--out", default="results")
    p_sim.add_argument("--threads", type=_worker_count, default=None,
                       help="worker processes, at most one per usable CPU "
                            "(default: HDNORM_THREADS or cpu count); hdnorm runs "
                            "BLAS on one thread unless OPENBLAS_NUM_THREADS, "
                            "OMP_NUM_THREADS or MKL_NUM_THREADS is set, so its "
                            "parallelism comes only from these workers and the "
                            "band threads")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SystemExit2, HdnormError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
