"""Command-line interface: test a dataset, emit diagnostics, run experiments.

Exit codes: 0 the null hypothesis is not rejected, 3 it is rejected,
1 any error, 2 command-line usage problems.

This module owns the ``hdnorm`` process.  At import it loads only the
standard library, so ``hdnorm --help`` and a usage error load no numpy.
``main`` checks ``--out`` and ``--seed``, then for ``test`` and ``diagnose``
forks the CSV parser's readers (``_csvparse.EarlyReaders``), which parse the
end of the file on the other CPUs while this process judges ``test``'s method
and settings (``hdnorm.methods``, which loads no numpy), imports numpy, scipy's
ufuncs and the rest of hdnorm, and then claims pieces too.  Only ``main``
forks them, whether or not numpy was loaded before it.

This module is the only one that calls ``gc.freeze``, once per process, in
the first ``main`` call (or the first read of a name the commands import):
once the imports are done, the objects they made, most of them numpy's and
scipy's and all of them alive to the end, go to the collector's permanent
generation.  Every later collection, the one at interpreter exit included,
would walk them again, about 10 ms of each command, and a forked sweep worker
or CSV reader would copy the pages it walks.  Nor does any collection run
while the imports build that heap: the collector is off from the first of
them to the freeze, then back on, if the caller had it on, for what a
command allocates.  ``import hdnorm`` or any library module freezes nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import islice
from pathlib import Path
from typing import Optional

from . import _cpus
from ._csvparse import EarlyReaders, load_csv, open_text
from .errors import HdnormError, NonFiniteData

# Before numpy loads, here or in a module imported before ``main`` runs: BLAS
# reads its thread count only then.
_cpus.default_to_one_blas_thread()


def _import_numeric_stack() -> None:
    """Import what the commands compute with, once per process, and freeze
    the heap the imports made (see the module docstring)."""
    global np, rng, ndtri, DataMatrix, _moments, composite_test, RadialSummary
    if "rng" in globals():
        return
    collecting = gc.isenabled()
    gc.disable()
    try:
        # rng imports numpy first, with a stand-in for secrets, so OpenSSL never loads.
        from . import rng
        import numpy as np
        from .moments import DataMatrix, _moments
        from .montecarlo import composite_test
        from .radii import RadialSummary
        from .rng import ndtri

        gc.freeze()
    finally:
        if collecting:
            gc.enable()
    # Walks nothing, all being frozen, but as a full collection it empties the
    # interpreter's free lists; without it a sweep's peak RSS read about 0.2 MB
    # higher than with no freeze at all, and with it 0.15 MB lower.
    gc.collect()


def __getattr__(name: str):
    # A name the commands import, read before ``main`` has imported it (as a
    # tracer that wraps ``composite_test`` does).
    if not name.startswith("__"):
        _import_numeric_stack()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


DEFAULT_MAX_PAIRS = 1_000_000


def _load_matrix(path: str, header: bool, early: Optional[EarlyReaders]) -> DataMatrix:
    skip = 1 if header else 0
    try:
        values = load_csv(path, skip, early)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise ValueError(f"cannot parse {path} as a numeric CSV: {_bad_line(path, skip) or exc}")
    if values.size == 0:
        raise ValueError(f"{path} contains no data rows")
    try:
        return DataMatrix.from_array(values)
    except NonFiniteData as exc:
        raise ValueError(
            f"non-finite value in {path} at data row {exc.row}, column {exc.column}"
            f" (file line {_file_line(path, skip, exc.row)})"
        )


def _data_lines(path: str, skip: int):
    """(file line, text before any ``#``) of each line np.loadtxt reads as a row:
    it skips the first ``skip`` lines, then every line empty but for a comment."""
    with open_text(path) as f:
        for number, line in enumerate(f, 1):
            text = line.split("#", 1)[0].rstrip("\n")
            if number > skip and text:
                yield number, text


def _file_line(path: str, skip: int, row: int) -> int:
    """The file line of data row ``row`` (1-based)."""
    return next(islice(_data_lines(path, skip), row - 1, None))[0]


def _bad_line(path: str, skip: int):
    """What is wrong with the first data line that holds a field np.loadtxt
    rejects, or whose field count differs from the first data line's, naming
    its file line; None if there is no such line."""
    width = None
    for number, text in _data_lines(path, skip):
        fields = text.split(",")
        if not _parses(text):
            bad = next((field for field in fields if not _parses(field)), text)
            return f"file line {number}: could not convert string to float: {bad!r}"
        width = width or len(fields)
        if len(fields) != width:
            return f"file line {number} has {len(fields)} fields, the first data line {width}"
    return None


def _parses(text: str) -> bool:
    """Whether np.loadtxt reads ``text`` as a row of floats.

    numpy's parser, not ``float()``, is the reference: ``float()`` also takes
    digit separators such as ``1_000`` and non-ASCII digits.
    """
    try:
        np.loadtxt([text], delimiter=",")
    except ValueError:
        return False
    return True


def _writable(path: Path, folder: bool) -> Path:
    """``path`` if it is a file (a directory with ``folder``) or absent, in a
    writable directory that exists (or, with ``folder``, that ``mkdir -p``
    makes); else ``ValueError``, so a bad --out fails before any work."""
    base = next(p for p in (path, *path.parents) if p.exists()) if folder else path.parent
    writable = base.is_dir() and os.access(base, os.W_OK)
    if not writable or path.exists() and path.is_dir() != folder:
        raise ValueError(f"cannot write {path}")
    return path


def cmd_test(args) -> int:
    # ``methods`` loads no numpy: a bad method or setting fails before numpy loads.
    from .methods import McSettings, lookup_method

    method = lookup_method(args.stats)
    # McSettings holds the defaults of the options left out.
    given = {"replications": args.mc, "seed": args.seed, "alpha": args.alpha}
    settings = McSettings(**{key: value for key, value in given.items() if value is not None})
    _import_numeric_stack()
    X = _load_matrix(args.file, args.header, args.early)
    report = composite_test(X, settings, method, out=X.values)  # centres X in place

    doc = report.to_dict(str(args.file))
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    verdict = "rejected" if report.reject else "not rejected"
    detail = ", ".join(f"{key} {'reject' if reject else 'accept'}"
                       for key, reject in zip(method.keys, report.rejects))
    print(f"H0 {verdict} at alpha={settings.alpha:g} ({detail}); report: {args.out}")
    return 3 if report.reject else 0


def _pair_indices(n: int, k: int, gen) -> np.ndarray:
    """Uniform k-subset of the n(n-1)/2 pair indices (Floyd's algorithm)."""
    total = n * (n - 1) // 2
    chosen = set()
    draws = gen.integers(0, np.arange(total - k, total) + 1)
    for t, j in zip(range(total - k, total), draws.tolist()):
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
    # "%.17g" writes each number as summary.csv does.
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",", header=header,
               comments="")


def cmd_diagnose(args) -> int:
    _import_numeric_stack()
    X = _load_matrix(args.file, args.header, args.early)
    args.out.mkdir(parents=True, exist_ok=True)

    # One moments pass: the radii need no dispersion estimate, nor n >= 4.
    moments = _moments(X)
    sorted_radii = np.sort(np.sqrt(moments.sq_radii))
    written = ["radii.csv", "interpoint.csv"]
    try:
        rs = RadialSummary(sorted_radii, moments.dispersion(), X.n, X.d)
    except HdnormError as exc:
        print(f"skipping QQ data: {exc}", file=sys.stderr)
    else:
        positions = ndtri((np.arange(1, X.n + 1) - 0.5) / X.n)
        _write_csv(args.out / "qq.csv", "position,standardized_radius",
                   [positions, rs.standardized])
        written.append("qq.csv")
    _write_csv(args.out / "radii.csv", "radius", [sorted_radii])

    distances = _interpoint_distances(X.values, args.max_pairs, args.seed)
    _write_csv(args.out / "interpoint.csv", "distance", [distances])

    print(f"wrote {', '.join(sorted(written))} to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    _import_numeric_stack()
    # Imported here: ``hdnorm test`` loads no simulation code.
    from .harness import experiment_from_json, results_jsonl, run_experiment, summarize

    try:
        doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read {args.spec}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.spec} is not valid JSON: {exc}")
    try:
        exp = experiment_from_json(doc)
    except (ValueError, HdnormError) as exc:
        raise ValueError(f"bad experiment spec: {exc}")

    args.out.mkdir(parents=True, exist_ok=True)
    results = run_experiment(exp, threads=args.threads)
    (args.out / "summary.csv").write_text(summarize(results), encoding="utf-8")
    (args.out / "results.jsonl").write_text(results_jsonl(results), encoding="utf-8")
    print(f"{exp.name}: {len(results)} result rows -> {args.out}/summary.csv")
    return 0


def _whole_number_arg(raw: str) -> int:
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
    p_test.add_argument("--alpha", type=float)
    p_test.add_argument("--mc", type=int, help="Monte-Carlo replications")
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--header", action="store_true", help="skip one header line")
    p_test.add_argument("--out", default="report.json")
    p_test.add_argument("--stats", default="composite",
                        help="decision method: composite|squared|range|iqr|quasi:q")
    p_test.set_defaults(func=cmd_test)

    p_diag = sub.add_parser("diagnose", help="emit radii / QQ / interpoint-distance data")
    p_diag.add_argument("file")
    p_diag.add_argument("--header", action="store_true")
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--max-pairs", type=_whole_number_arg, default=DEFAULT_MAX_PAIRS)
    p_diag.add_argument("--out", default="diagnostics")
    p_diag.set_defaults(func=cmd_diagnose)

    p_sim = sub.add_parser("simulate", help="run a simulation experiment spec")
    p_sim.add_argument("spec")
    p_sim.add_argument("--out", default="results")
    p_sim.add_argument("--threads", type=_whole_number_arg, default=None,
                       help="worker processes, at most one per usable CPU "
                            "(default: the usable CPUs), forked from "
                            "this process when it runs one OS thread and spawned "
                            "otherwise; hdnorm runs "
                            "BLAS on one thread unless OPENBLAS_NUM_THREADS, "
                            "OMP_NUM_THREADS or MKL_NUM_THREADS is set, so its "
                            "parallelism comes only from these workers and the "
                            "band threads")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.early = None
    try:
        # A bad --out or --seed fails before any reader or work starts.
        args.out = _writable(Path(args.out), folder=args.command != "test")
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"seed must be non-negative, got {args.seed}")
        # Before the imports, if any are left, so the other CPUs parse meanwhile.
        if "file" in args:
            args.early = EarlyReaders.start(args.file)
        return args.func(args)  # each command imports the numeric stack itself
    except (HdnormError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.early:
            args.early.kill()


if __name__ == "__main__":
    sys.exit(main())
