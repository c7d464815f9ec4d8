import dataclasses
import hashlib
import json
import locale
import math
import os
import textwrap
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import REPORT_SCHEMA, SCHEMA_DIR, fresh_process, fresh_python, gaussian_data
from oracles import pair_indices_oracle
from hdnorm import generators
from hdnorm import rng as hrng
from hdnorm import cli, harness, moments, radii
from hdnorm._cpus import BLAS_THREAD_VARS, default_to_one_blas_thread
from hdnorm.cli import main
from hdnorm.harness import experiment_from_json
from hdnorm.methods import METHODS, McSettings, lookup_method
from hdnorm.montecarlo import composite_test

EXPERIMENT_SCHEMA = json.loads((SCHEMA_DIR / "experiment-v1.schema.json").read_text())
# A spec change that deletes its key rather than setting it.
DELETE = object()

# (n, d) of the pinned reports' samples: the Gramian path and the covariance path.
REPORT_SHAPES = {"wide": (40, 60), "tall": (120, 15)}
# sha256 of report.json from `hdnorm test --mc 1000 --stats ...`, recorded
# before the moment estimators were merged into one pass.
REPORT_SHA256 = {
    ("wide", "composite"): "e8984f740c6c3dc0e019b1866ca8262bf0227aa0945ec15ecbfcd87414a42129",
    ("wide", "range"): "615873944d3f641a4bb089ab0448803101b16041e597e1348faf1a210f0c015c",
    ("wide", "iqr"): "4957dea7796558a23d84aba6f1cf93c8ef3f45b51ef6df47260245f016df6d53",
    ("wide", "quasi:2"): "5592a947b10b722c5ccb37a18e5ed6b4ccefa193ba081dbab688ba51a4827c94",
    ("wide", "squared"): "0442b6bad369159323f02ce8b057f0302237e49ea6d723648c39fad171bc30f5",
    ("tall", "composite"): "9cee8fc6ad2e72c40b879eea4fdfffd649773abe19809379e3d730f2f3958cd4",
    ("tall", "range"): "7cda8bece4a0939852b58263999ab7ab9523feef8768bf01b1f0085e52b95d41",
    ("tall", "iqr"): "2422579957239f3f78bbb9b8a3f4210212a19e4d500478c619944f80a7ab13b1",
    ("tall", "quasi:2"): "60fcbca0ba6eb43e5d5801577b7f8c88f8f4be2270081dbd9cb17e9676eb82a4",
    ("tall", "squared"): "967aeea1674975d0385a4542cce603fe0ea67c7360b26faf1cbbd2726f8c5794",
}

# sha256 of each file `hdnorm diagnose` writes for gaussian_data(21, n, d):
# "sampled" keeps 500 of the 1770 pairs at n = 60 (--seed 5), and "n3" is too
# small for the QQ data, so it writes no qq.csv.  Recorded when the numbers
# were written by the harness's formatter.
DIAGNOSE_CASES = {"sampled": ((60, 8), ["--max-pairs", "500", "--seed", "5"]), "n3": ((3, 4), [])}
DIAGNOSE_SHA256 = {
    "sampled": {
        "interpoint.csv": "1a362cc9b6edc989d456b5635035423820bc67d6186f1a87074cb0a52e752e53",
        "qq.csv": "a092c87740e1d1ddda289f34d7a65c291d39ee5c903ee100f0406695dc6f4995",
        "radii.csv": "e44599f614869a3b74c186bd00b7a9f82e6606003e8bff17bb3d15c2ed662e85",
    },
    "n3": {
        "interpoint.csv": "481b4bb76dfc7fd3e1c6771dc23cb2118045b59b8bba11ffe552607fab93f6dc",
        "radii.csv": "1005244a528e000a7af0531ab0c2855f48805147547304b6b9bc45ea21966e43",
    },
}


def write_csv(path: Path, values: np.ndarray, header: bool = False) -> Path:
    lines = []
    if header:
        lines.append(",".join(f"col{i}" for i in range(values.shape[1])))
    for row in values:
        lines.append(",".join(format(v, ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def null_csv(tmp_path_factory):
    X = gaussian_data(314, 150, 300)
    return write_csv(tmp_path_factory.mktemp("data") / "null.csv", X.values)


class TestCmdTest:
    def test_report_schema_and_exit_code(self, null_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main(["test", str(null_csv), "--mc", "2000", "--seed", "3",
                     "--out", str(out)])
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert {"composite", "range", "iqr", "delta_hat"} <= doc.keys()
        assert doc["n"] == 150 and doc["d"] == 300
        assert code == (3 if doc["reject"] else 0)
        assert code == 0  # null data with this seed is accepted

    @pytest.mark.parametrize("stats", ["range", "iqr", "quasi:2", "squared"])
    def test_stat_selection_reports_validate(self, null_csv, tmp_path, stats):
        out = tmp_path / f"report_{stats.replace(':', '_')}.json"
        code = main(["test", str(null_csv), "--mc", "1000", "--stats", stats,
                     "--out", str(out)])
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert code in (0, 3)
        if stats == "quasi:2":
            assert doc["quasi_range"]["q"] == 2

    def test_single_statistic_report_has_the_composite_shape(self, null_csv, tmp_path):
        docs = {}
        for stats in ("composite", "range"):
            out = tmp_path / f"{stats}.json"
            main(["test", str(null_csv), "--mc", "1000", "--stats", stats, "--out", str(out)])
            docs[stats] = json.loads(out.read_text())
        single, composite = docs["range"], docs["composite"]
        head = list(single)[:list(single).index("range")]
        assert head == list(composite)[:len(head)]
        assert all(single[k] == composite[k] for k in head if k != "statistics")

    def test_header_flag(self, tmp_path):
        X = gaussian_data(11, 30, 8)
        path = write_csv(tmp_path / "with_header.csv", X.values, header=True)
        out = tmp_path / "r.json"
        assert main(["test", str(path), "--header", "--mc", "500",
                     "--out", str(out)]) in (0, 3)
        assert json.loads(out.read_text())["n"] == 30

    @pytest.mark.parametrize("header", [False, True], ids=["no_header", "header"])
    @pytest.mark.parametrize("command", ["test", "diagnose"])
    def test_nan_after_blank_and_comment_lines_names_its_file_line(
            self, tmp_path, capsys, command, header):
        lines = ["1,2", "", "# c", "3,4", "5,nan"]
        path = tmp_path / "gaps.csv"
        path.write_text("\n".join(["a,b"] * header + lines) + "\n")
        args = [command, str(path), "--out", str(tmp_path / "out")] + ["--header"] * header
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"data row 3, column 2 (file line {5 + header})" in err

    @pytest.mark.parametrize("command", ["test", "diagnose"])
    @pytest.mark.parametrize("bad, line", [("3,abc", 4), ("3,4\n5", 5), ("3,1_000", 4)],
                             ids=["token", "short", "separator"])
    def test_parse_error_names_its_file_line(self, tmp_path, capsys, command, bad, line):
        path = tmp_path / "gaps.csv"
        path.write_text(f"1,2\n\n# c\n{bad}\n")
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"cannot parse {path} as a numeric CSV: file line {line}" in err
        assert not (tmp_path / "out").exists()

    def test_non_ascii_token_is_named_as_written(self, tmp_path, capsys):
        # Decoded as np.loadtxt decodes it, in the locale's encoding.
        path = tmp_path / "digits.csv"
        path.write_text("1,2\n3,\u0661\n", encoding=locale.getpreferredencoding(False))
        assert main(["test", str(path), "--out", str(tmp_path / "r.json")]) == 1
        assert (f"cannot parse {path} as a numeric CSV: file line 2:"
                " could not convert string to float: '\u0661'") in capsys.readouterr().err

    @pytest.mark.parametrize("bad, message", [
        ("3,abc", "file line 2: could not convert string to float: 'abc'"),
        ("3,nan", "data row 2, column 2 (file line 2)"),
    ], ids=["token", "nan"])
    def test_compressed_file_errors_name_the_decompressed_line(self, tmp_path, capsys, bad,
                                                                message):
        import gzip

        path = tmp_path / "x.csv.gz"
        with gzip.open(path, "wt") as f:
            f.write(f"1,2\n{bad}\n5,6\n7,8\n")
        assert main(["test", str(path), "--out", str(tmp_path / "r.json")]) == 1
        assert message in capsys.readouterr().err

    def test_unknown_method_exits_one_before_reading(self, tmp_path, capsys):
        assert main(["test", str(tmp_path / "absent.csv"), "--stats", "quasi:0"]) == 1
        err = capsys.readouterr().err
        assert "unknown method 'quasi:0'" in err and "absent.csv" not in err

    @pytest.mark.parametrize("option, value, named", [
        ("--mc", "50", "Monte-Carlo replications must be at least 100"),
        ("--alpha", "1.5", "alpha must lie in (0, 1)"),
        ("--seed", "-1", "seed must be at least 0"),
    ])
    def test_bad_settings_exit_one_before_reading(self, null_csv, tmp_path, capsys,
                                                  monkeypatch, option, value, named):
        assert main(["test", str(tmp_path / "absent.csv"), option, value]) == 1
        err = capsys.readouterr().err
        assert named in err and "absent.csv" not in err

        def no_read(*args):
            raise AssertionError("the data file was read")

        monkeypatch.setattr(cli, "_load_matrix", no_read)
        assert main(["test", str(null_csv), option, value]) == 1
        assert named in capsys.readouterr().err

    def test_nan_cell_names_position(self, tmp_path, capsys):
        X = gaussian_data(12, 10, 5).values.copy()
        X[3, 2] = np.nan
        path = tmp_path / "bad.csv"
        np.savetxt(path, X, delimiter=",")
        assert main(["test", str(path)]) == 1
        err = capsys.readouterr().err
        assert "row 4" in err and "column 3" in err

    def test_too_few_rows(self, tmp_path):
        path = write_csv(tmp_path / "tiny.csv", np.ones((3, 5)))
        assert main(["test", str(path)]) == 1

    def test_missing_file(self):
        assert main(["test", "/nonexistent/x.csv"]) == 1

    @pytest.mark.parametrize("lines, header", [(["# c"], False), (["a,b"], True)],
                             ids=["comment_only", "header_only"])
    @pytest.mark.parametrize("command", ["test", "diagnose"])
    def test_file_without_rows_prints_one_error_line(self, tmp_path, command, lines, header):
        # In a new process, so that a warning numpy prints reaches stderr,
        # here sent to stdout, as it would in a terminal.
        path = tmp_path / "empty.csv"
        path.write_text("\n".join(lines) + "\n")
        code = ("import sys\nfrom hdnorm.cli import main\nsys.stderr = sys.stdout\n"
                "print(main(sys.argv[1:]))")
        args = [command, str(path), "--out", str(tmp_path / "out")] + ["--header"] * header
        assert fresh_python(code, *args).split("\n") == [
            f"error: {path} contains no data rows", "1"]

    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_monte_carlo_count_too_large_to_hold_exits_one(self, null_csv, tmp_path, capsys,
                                                           command):
        # 10**17 draws take 711 PiB, an array no address space holds, so the
        # allocation is refused before any band thread starts.
        huge = 10 ** 17
        if command == "test":
            args = ["test", str(null_csv), "--mc", str(huge), "--out", str(tmp_path / "r.json")]
        else:
            spec = tmp_path / "huge.json"
            spec.write_text(json.dumps({"mc_replications": huge, "cells": [
                {"scenario": {"family": "null_gaussian", "n": 20, "d": 5,
                              "cov": {"kind": "identity", "d": 5}}}]}))
            args = ["simulate", str(spec), "--out", str(tmp_path / "res")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_report_exits_one(self, null_csv, tmp_path, monkeypatch, capsys):
        # The report's directory is checked before the CSV is read.
        read = []
        monkeypatch.setattr(cli, "load_csv", lambda *args: read.append(args))
        for out in (tmp_path / "missing" / "r.json", tmp_path):
            assert main(["test", str(null_csv), "--mc", "500", "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: cannot write {out}\n"
        assert read == [] and not (tmp_path / "missing").exists()

    # The Gramian or covariance product overflows, or at 1e307 the column sums.
    @pytest.mark.parametrize("scale, shape", [(1e155, (30, 50)), (1e155, (50, 30)),
                                              (1e307, (30, 50))],
                             ids=["gramian", "covariance", "column_sums"])
    @pytest.mark.parametrize("command", ["test", "diagnose"])
    def test_data_too_large_prints_one_line_without_warnings(self, tmp_path, command, scale,
                                                             shape):
        # In a new process, so that a warning numpy prints reaches stderr.
        values = scale * np.abs(gaussian_data(3, *shape).values)
        path = write_csv(tmp_path / "huge.csv", values)
        code = "import sys\nfrom hdnorm.cli import main\nsys.exit(main(sys.argv[1:]))"
        done = fresh_process(code, command, str(path), "--out", str(tmp_path / "out"))
        message = "tr of sample covariance is inf; data too large\n"
        if command == "test":
            assert (done.returncode, done.stderr) == (1, f"error: {message}")
        else:
            assert (done.returncode, done.stderr) == (0, f"skipping QQ data: {message}")

    def test_degenerate_data_exits_one(self, tmp_path, capsys):
        path = write_csv(tmp_path / "flat.csv", np.ones((10, 5)))
        assert main(["test", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_overflowing_data_exits_one(self, tmp_path, capsys):
        # Squared radii of data this large overflow; no verdict may follow.
        path = write_csv(tmp_path / "huge.csv", 1e150 * gaussian_data(8, 50, 100).values)
        out = tmp_path / "r.json"
        assert main(["test", str(path), "--mc", "1000", "--out", str(out)]) == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_chisq_marginals_rejected(self, tmp_path):
        # Heavy-tailed iid chi-square coordinates at n=250, d=2000 are far
        # from Gaussian; the composite test must reject.
        gen = hrng.substream(55, hrng.DOMAIN_DATA, 1, 0)
        Y = hrng.chi_square(gen, 6.0, (250, 2000))
        path = write_csv(tmp_path / "chisq.csv", Y)
        out = tmp_path / "r.json"
        assert main(["test", str(path), "--mc", "2000", "--out", str(out)]) == 3

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["test"])  # missing file argument
        assert exc.value.code == 2

    @pytest.mark.parametrize("stats", ["composite", "range", "iqr", "quasi:2", "squared"])
    @pytest.mark.parametrize("shape", ["wide", "tall"])
    def test_report_bytes_are_pinned(self, tmp_path, monkeypatch, shape, stats):
        # The report echoes the input path, so the file is named relative to
        # the working directory.
        n, d = REPORT_SHAPES[shape]
        X = gaussian_data(77, n, d)
        write_csv(tmp_path / "data.csv", X.values)
        monkeypatch.chdir(tmp_path)
        main(["test", "data.csv", "--mc", "1000", "--stats", stats, "--out", "report.json"])
        written = (tmp_path / "report.json").read_bytes()
        assert hashlib.sha256(written).hexdigest() == REPORT_SHA256[shape, stats]
        # The library's report of the same sample is the same document.
        report = composite_test(X, McSettings(replications=1000), lookup_method(stats))
        assert (json.dumps(report.to_dict("data.csv"), indent=2) + "\n").encode() == written


class TestCmdDiagnose:
    def test_unwritable_output_directory_exits_one(self, null_csv, tmp_path, monkeypatch,
                                                   capsys):
        # The output directory is checked before the CSV is read.
        read = []
        monkeypatch.setattr(cli, "load_csv", lambda *args: read.append(args))
        taken = tmp_path / "file"
        taken.write_text("")
        for out in (taken / "sub", taken / "sub" / "deeper", taken):
            assert main(["diagnose", str(null_csv), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: cannot write {out}\n"
        assert read == [] and taken.read_text() == ""

    def test_two_row_input(self, tmp_path, capsys):
        rows = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 1.0]])
        path = write_csv(tmp_path / "two.csv", rows)
        assert main(["diagnose", str(path), "--out", str(tmp_path / "diag")]) == 0
        radii_lines = (tmp_path / "diag" / "radii.csv").read_text().strip().split("\n")
        assert len(radii_lines) == 3
        r1, r2 = float(radii_lines[1]), float(radii_lines[2])
        assert r1 == pytest.approx(np.linalg.norm(rows[0] - rows[1]) / 2, rel=1e-12)
        assert r1 == r2
        assert "skipping QQ" in capsys.readouterr().err

    @pytest.mark.parametrize("pairs", ["-3", "0", "1.5"])
    def test_max_pairs_below_one_is_usage_error(self, null_csv, tmp_path, capsys, pairs):
        with pytest.raises(SystemExit) as exc:
            main(["diagnose", str(null_csv), "--out", str(tmp_path / "d"), "--max-pairs", pairs])
        assert exc.value.code == 2
        assert "--max-pairs" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_qq_rows_and_positions(self, null_csv, tmp_path):
        assert main(["diagnose", str(null_csv), "--out", str(tmp_path / "d")]) == 0
        lines = (tmp_path / "d" / "qq.csv").read_text().strip().split("\n")
        assert len(lines) == 151
        positions = [float(line.split(",")[0]) for line in lines[1:]]
        assert all(b > a for a, b in zip(positions, positions[1:]))

    def test_qq_slope_near_one_under_null(self, tmp_path):
        X = gaussian_data(600, 200, 1000)
        path = write_csv(tmp_path / "null_big.csv", X.values)
        assert main(["diagnose", str(path), "--out", str(tmp_path / "d")]) == 0
        rows = np.loadtxt(tmp_path / "d" / "qq.csv", delimiter=",", skiprows=1)
        slope = np.polyfit(rows[:, 0], rows[:, 1], 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_max_pairs_reservoir(self, tmp_path):
        X = gaussian_data(601, 40, 6)
        path = write_csv(tmp_path / "x.csv", X.values)
        assert main(["diagnose", str(path), "--out", str(tmp_path / "d"),
                     "--max-pairs", "100"]) == 0
        lines = (tmp_path / "d" / "interpoint.csv").read_text().strip().split("\n")
        assert len(lines) == 101
        full = main(["diagnose", str(path), "--out", str(tmp_path / "d2")])
        assert full == 0
        all_lines = (tmp_path / "d2" / "interpoint.csv").read_text().strip().split("\n")
        assert len(all_lines) == 40 * 39 // 2 + 1

    @pytest.mark.parametrize("options", [[], ["--max-pairs", "100"]], ids=["all", "sampled"])
    def test_negative_seed_exits_one_before_any_output(self, tmp_path, capsys, options):
        # Only the sampled path draws with the seed; both refuse it before any file is written.
        path = write_csv(tmp_path / "x.csv", gaussian_data(603, 40, 6).values)
        out = tmp_path / "d"
        assert main(["diagnose", str(path), "--seed", "-1", "--out", str(out), *options]) == 1
        assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
        assert not out.exists()

    def test_reservoir_values_are_true_distances(self, tmp_path):
        X = gaussian_data(602, 25, 4)
        path = write_csv(tmp_path / "y.csv", X.values)
        main(["diagnose", str(path), "--out", str(tmp_path / "d"), "--max-pairs", "50"])
        sampled = np.loadtxt(tmp_path / "d" / "interpoint.csv", skiprows=1)
        from scipy.spatial.distance import pdist
        universe = np.sort(pdist(X.values))
        for value in sampled:
            assert np.min(np.abs(universe - value)) < 1e-9


    def test_radii_without_a_dispersion_estimate_take_one_moments_pass(self, tmp_path,
                                                                         monkeypatch):
        # At n = 3 the radii were once taken from a second centring and Gramian.
        calls = []

        def spy(X, out=None):
            calls.append(X.n)
            return moments._moments(X, out)

        monkeypatch.setattr(cli, "_moments", spy)
        monkeypatch.setattr(radii, "_moments", spy)
        path = write_csv(tmp_path / "n3.csv", gaussian_data(21, 3, 4).values)
        assert main(["diagnose", str(path), "--out", str(tmp_path / "d")]) == 0
        assert calls == [3]
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["interpoint.csv",
                                                                      "radii.csv"]

    @pytest.mark.parametrize("case", sorted(DIAGNOSE_CASES))
    def test_output_bytes_are_pinned(self, tmp_path, case):
        (n, d), options = DIAGNOSE_CASES[case]
        path = write_csv(tmp_path / "data.csv", gaussian_data(21, n, d).values)
        assert main(["diagnose", str(path), "--out", str(tmp_path / "d"), *options]) == 0
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in (tmp_path / "d").iterdir()}
        assert digests == DIAGNOSE_SHA256[case]

    @pytest.mark.parametrize("n, k, seed", [(50, 300, 0), (40, 1, 7), (30, 434, 3),
                                            (200, 19_899, 11), (2000, 5000, 2)])
    def test_reservoir_draws_match_one_draw_per_index(self, n, k, seed):
        # k = 434 and 19 899 are one below the pair counts of n = 30 and 200.
        def gen():
            return hrng.substream(seed, hrng.DOMAIN_RESERVOIR)
        expected = pair_indices_oracle(n, k, gen())
        got = cli._pair_indices(n, k, gen())
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


class TestCmdSimulate:
    def make_spec(self, tmp_path, seed=5) -> Path:
        doc = {
            "name": "mini",
            "seed": seed,
            "alpha": 0.05,
            "mc_replications": 1000,
            "replications": 40,
            "cells": [
                {"scenario": {"family": "null_gaussian", "n": 40, "d": 20,
                              "cov": {"kind": "identity", "d": 20}}},
                {"scenario": {"family": "cov_mixture", "n": 40, "d": 20,
                              "cov": {"kind": "identity", "d": 20},
                              "params": {"gap": 0.8}}},
            ],
        }
        jsonschema.validate(doc, EXPERIMENT_SCHEMA)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return path

    def test_outputs_written(self, tmp_path):
        spec = self.make_spec(tmp_path)
        assert main(["simulate", str(spec), "--out", str(tmp_path / "res")]) == 0
        csv_text = (tmp_path / "res" / "summary.csv").read_text()
        assert csv_text.startswith("family,cov,n,d,method")
        assert len(csv_text.strip().split("\n")) == 3
        jsonl = (tmp_path / "res" / "results.jsonl").read_text().strip().split("\n")
        assert len(jsonl) == 2

    def test_unwritable_output_directory_exits_one_before_any_replication(
            self, tmp_path, monkeypatch, capsys):
        replicated = []
        monkeypatch.setattr(harness, "sample_scenario", lambda *args: replicated.append(args))
        spec, taken = self.make_spec(tmp_path), tmp_path / "file"
        taken.write_text("")
        assert main(["simulate", str(spec), "--threads", "1", "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert replicated == [] and taken.read_text() == ""

    def test_bad_out_is_refused_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        # A file, a path below one, or a directory the process cannot write once
        # ran the whole sweep, or printed an errno message instead of this line.
        ran = []
        monkeypatch.setattr(harness, "run_experiment", lambda *args, **kw: ran.append(args))
        spec, taken, locked = self.make_spec(tmp_path), tmp_path / "x.csv", tmp_path / "locked"
        taken.write_text("")
        locked.mkdir()
        access = os.access  # root may write to any directory, so the check is faked
        monkeypatch.setattr(os, "access", lambda path, mode: Path(path) != locked
                            and access(path, mode))
        for out in (taken, taken / "sub", locked, locked / "sub"):
            assert main(["simulate", str(spec), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: cannot write {out}\n"
        assert ran == [] and taken.read_text() == "" and list(locked.iterdir()) == []

    def test_byte_identical_reruns(self, tmp_path):
        spec = self.make_spec(tmp_path)
        main(["simulate", str(spec), "--out", str(tmp_path / "a"), "--threads", "1"])
        main(["simulate", str(spec), "--out", str(tmp_path / "b"), "--threads", "4"])
        assert (tmp_path / "a" / "summary.csv").read_bytes() == \
               (tmp_path / "b" / "summary.csv").read_bytes()

    # Runs ``main`` with argv after the log path, on two usable CPUs, and prints
    # its exit code, the start methods asked of multiprocessing, the warnings
    # raised and its pid; each work unit appends its process's pid and BLAS
    # variables to the log.
    RECORD_WORKERS = textwrap.dedent("""\
        import json, multiprocessing, os, sys, warnings
        from hdnorm.cli import main
        from hdnorm import _cpus, harness

        log, argv = sys.argv[1], sys.argv[2:]
        methods, get_context, run_unit = [], multiprocessing.get_context, harness._run_unit

        def recording_get_context(method=None):
            methods.append(method)
            return get_context(method)

        def reporting_unit(*args):
            with open(log, "a") as f:
                env = {k: os.environ.get(k) for k in %r}
                f.write(json.dumps([os.getpid(), env]) + "\\n")
            return run_unit(*args)

        multiprocessing.get_context = recording_get_context
        harness._run_unit = reporting_unit
        _cpus.usable_cpus = lambda: 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        print(json.dumps([code, methods, [str(w.message) for w in caught], os.getpid()]))
        """) % (BLAS_THREAD_VARS,)

    def test_cli_forks_its_workers(self, tmp_path):
        spec, log = self.make_spec(tmp_path), tmp_path / "units.jsonl"
        args = [str(log), "simulate", str(spec), "--threads", "2", "--out", str(tmp_path / "b")]
        code, methods, caught, pid = json.loads(
            fresh_python(self.RECORD_WORKERS, *args).splitlines()[-1])
        # Python 3.12 and later warn when a process with other threads forks.
        # Under -W error os.fork drops that warning instead of raising it, so
        # the warnings are recorded.
        assert code == 0 and methods == ["fork"] and caught == []
        units = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(units) == 16 and pid not in {unit_pid for unit_pid, _ in units}
        assert all(env == dict.fromkeys(BLAS_THREAD_VARS, "1") for _, env in units)
        assert main(["simulate", str(spec), "--threads", "1", "--out", str(tmp_path / "a")]) == 0
        assert (tmp_path / "a" / "summary.csv").read_bytes() == \
               (tmp_path / "b" / "summary.csv").read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_worker_count_below_one_is_usage_error(self, tmp_path, threads, capsys):
        spec = self.make_spec(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(spec), "--out", str(tmp_path / "res"), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_empty_grid_errors(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"cells": []}))
        assert main(["simulate", str(path)]) == 1
        assert "empty grid" in capsys.readouterr().err

    def test_invalid_json_errors(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 1

    def test_missing_spec_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["simulate", str(missing), "--out", str(tmp_path / "res")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {missing}: ") and err.count("\n") == 1
        assert not (tmp_path / "res").exists()

    def test_spec_that_is_not_an_object_errors(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        assert main(["simulate", str(path)]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, named", [
        ("family", "loc_mixtur", "'loc_mixtur'"),
        ("cov", {"kind": "identty", "d": 20}, "'identty'"),
        ("params", {"shfit": 5.0}, "'shfit'"),
        # The schema takes quasi:6 at any n; the parser checks it at the cell's n.
        ("n", 10, "q=6 is not an integer in [1, 5] for n=10"),
    ])
    def test_unknown_name_exits_one_before_any_work(self, tmp_path, capsys, field, value,
                                                    named):
        doc = json.loads(self.make_spec(tmp_path).read_text())
        doc["cells"][1]["methods"] = ["composite", "quasi:6"]
        scenario = doc["cells"][1]["scenario"]
        scenario.update(family="loc_mixture", params={})
        scenario[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "res")]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("family, params, named", [
        ("chisq_marginals", {"standardize": "false"}, "standardize must be true or false"),
        ("chisq_marginals", {"dof": True}, "dof must be a number, got True"),
        ("loc_mixture", {"weights": [0.5, "0.5"]}, "weights must be a number, got '0.5'"),
        ("loc_mixture", {"weights": 5}, "loc_mixture weights must be a list of numbers, got 5"),
        ("multivariate_t", {"dof": 10 ** 400}, "multivariate_t dof is too large for a float"),
        ("multivariate_t", {"dof_exponent": 1000}, "dof at d=20 is too large for a float"),
        ("multivariate_t", {"dof_coeff": 1e308}, "multivariate_t dof must be finite, got inf"),
        ("multivariate_t", {"dof": math.inf}, "multivariate_t dof must be finite, got inf"),
        ("null_gaussian", {"cov": {"kind": "geom_decay", "d": 20, "rate": math.inf}},
         "geom_decay rate must be finite, got inf"),
    ])
    def test_param_of_the_wrong_type_exits_one_before_any_work(self, tmp_path, capsys, family,
                                                               params, named):
        # The schema leaves params untyped, so the parser types them.  A "cov"
        # entry replaces the scenario's covariance, whose numbers the same
        # parser types.  JSON writes an infinite number as Infinity.
        doc = json.loads(self.make_spec(tmp_path).read_text())
        params, scenario = dict(params), doc["cells"][1]["scenario"]
        scenario.update(family=family, cov=params.pop("cov", scenario["cov"]), params=params)
        jsonschema.validate(doc, EXPERIMENT_SCHEMA)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "res")]) == 1
        err = capsys.readouterr().err
        assert "bad experiment spec" in err and named in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("key, value", [
        ("params", 5), ("params", None), ("params", "ab"), ("params", [["dof", 5]]),
        ("cov", None),
    ], ids=["int_params", "null_params", "string_params", "pair_list_params", "null_cov"])
    def test_params_or_cov_that_is_not_an_object_is_one_error_line(self, tmp_path, capsys,
                                                                   key, value):
        doc = json.loads(self.make_spec(tmp_path).read_text())
        scenario = doc["cells"][1]["scenario"]
        scenario.update(family="multivariate_t", params={})
        scenario[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "res")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad experiment spec: ") and err.count("\n") == 1
        assert f"must be {'a JSON' if key == 'cov' else 'an'} object, got {value!r}" in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("where, key, value, named", [
        ("cell", "methods", ["composite", "composite"], "'composite' twice"),
        ("cell", "methods", [], "non-empty list"),
        ("cell", "methods", "composite", "non-empty list"),
        ("cell", "methods", ["quasi:0"], "unknown method 'quasi:0'"),
        ("experiment", "seed", -1, "spec: seed must be at least 0, got -1"),
        ("experiment", "mc_replications", 50, "at least 100"),
        ("experiment", "alpha", 1.5, "alpha must lie in (0, 1)"),
        ("experiment", "seed", 1.9, "seed must be an integer, got 1.9"),
        ("experiment", "seed", True, "seed must be an integer, got True"),
        ("experiment", "mc_replications", 500.9, "Monte-Carlo replications must be an integer"),
        ("experiment", "replications", 0, "replications must be at least 1"),
        ("cell", "replications", 3.5, "cell 1 replications must be an integer"),
        ("cell", "replications", 0, "cell 1 replications must be at least 1"),
        ("scenario", "n", 20.7, "spec: n must be an integer, got 20.7"),
        ("scenario", "n", 3, "IQR statistic needs n >= 4, got n=3"),
        ("scenario", "d", "20", "spec: d must be an integer, got '20'"),
        ("cov", "d", 20.5, "spec: covariance d must be an integer, got 20.5"),
        ("cov", "seed", -1, "spec: covariance seed must be at least 0, got -1"),
        ("scenario", "cov", {"kind": "geom_decay", "d": 20, "rate": "0.9"},
         "geom_decay rate must be a number, got '0.9'"),
        ("experiment", "alpha", "0.05", "alpha must be a real number, got '0.05'"),
        ("experiment", "cells", 5, "empty grid: cells must be a non-empty list, got 5"),
        ("cell", "scenario", DELETE, "cell 1 is missing 'scenario'"),
        ("experiment", "name", ["x"], "experiment name must be a string, got ['x']"),
    ], ids=["duplicate", "empty", "string", "quasi0", "seed", "mc", "alpha", "seed_float",
            "seed_bool", "mc_float", "reps_zero", "cell_reps_float", "cell_reps_zero",
            "n_float", "n_small", "d_string", "cov_d_float", "cov_seed", "rate_string",
            "alpha_string", "cells_int", "no_scenario", "name_list"])
    def test_spec_the_schema_forbids_exits_one_before_any_work(self, tmp_path, capsys, where,
                                                               key, value, named):
        doc = json.loads(self.make_spec(tmp_path).read_text())
        scenario = doc["cells"][1]["scenario"]
        target = {"experiment": doc, "cell": doc["cells"][1], "scenario": scenario,
                  "cov": scenario["cov"]}[where]
        if value is DELETE:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, EXPERIMENT_SCHEMA)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "res")]) == 1
        err = capsys.readouterr().err
        assert "bad experiment spec" in err and named in err
        assert not (tmp_path / "res").exists()

    def test_integral_numbers_read_as_integers(self, tmp_path):
        # The schema's "integer" takes 40.0 as well as 40, and so does the parser.
        doc = json.loads(self.make_spec(tmp_path).read_text())
        doc["seed"], doc["cells"][1]["replications"] = 5.0, 40.0
        doc["cells"][1]["scenario"]["n"] = 40.0
        jsonschema.validate(doc, EXPERIMENT_SCHEMA)
        exp = experiment_from_json(doc)
        assert (exp.seed, exp.cells[1].replications, exp.cells[1].scenario.n) == (5, 40, 40)
        assert {type(exp.seed), type(exp.cells[1].replications),
                type(exp.cells[1].scenario.n)} == {int}

    def test_a_cell_runs_every_method_the_cli_tests(self, tmp_path, null_csv):
        # The same names select a cell's methods and a report's statistics.
        doc = json.loads(self.make_spec(tmp_path).read_text())
        doc["cells"] = doc["cells"][:1]
        doc["cells"][0]["methods"] = [*METHODS, "quasi:2"]
        jsonschema.validate(doc, EXPERIMENT_SCHEMA)
        path = tmp_path / "all.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "res")]) == 0
        rows = (tmp_path / "res" / "summary.csv").read_text().strip().split("\n")[1:]
        assert sorted(row.split(",")[4] for row in rows) == sorted(doc["cells"][0]["methods"])
        for name in doc["cells"][0]["methods"]:
            out = tmp_path / "r.json"
            code = main(["test", str(null_csv), "--mc", "500", "--stats", name, "--out", str(out)])
            report = json.loads(out.read_text())
            jsonschema.validate(report, REPORT_SCHEMA)
            assert report["statistics"] == name.split(":")[0]
            assert code == (3 if report["reject"] else 0)

    def test_bundled_specs_validate(self):
        root = Path(__file__).resolve().parents[1]
        specs = sorted(root.glob("tables/*.json")) + sorted(root.glob("perfbench/specs/*.json"))
        assert len(specs) >= 7
        for spec in specs:
            doc = json.loads(spec.read_text())
            jsonschema.validate(doc, EXPERIMENT_SCHEMA)
            experiment_from_json(doc)

    def test_schema_enums_match_the_registry(self, capsys):
        scenario = EXPERIMENT_SCHEMA["$defs"]["scenario"]["properties"]
        cov = EXPERIMENT_SCHEMA["$defs"]["cov"]["properties"]
        assert scenario["family"]["enum"] == list(generators.FAMILIES)
        assert cov["kind"]["enum"] == list(generators.COV_KINDS)
        assert set(cov) >= set(generators.COV_PARAMS)
        # The spec reader passes each object's keys to its record as they stand.
        assert list(cov) == list(generators.CovSpec.__dataclass_fields__)
        assert list(scenario) == [f.name for f in dataclasses.fields(generators.Scenario)
                                  if f.init]
        cell = EXPERIMENT_SCHEMA["properties"]["cells"]["items"]["properties"]
        assert list(cell) == [f.name for f in dataclasses.fields(harness.CellSpec)]
        experiment = EXPERIMENT_SCHEMA["properties"]  # and the cells' default replications
        assert set(experiment) == {f.name for f in dataclasses.fields(harness.Experiment)
                                   } | {"replications"}
        methods = EXPERIMENT_SCHEMA["properties"]["cells"]["items"]["properties"]["methods"]
        names, quasi = methods["items"]["anyOf"]
        assert names["enum"] == list(METHODS)
        assert quasi["pattern"] == "^quasi:[1-9][0-9]*$"
        assert REPORT_SCHEMA["properties"]["statistics"]["enum"] == [*METHODS, "quasi"]
        # So does `hdnorm test --help`, which loads no numpy to write them.
        with pytest.raises(SystemExit):
            main(["test", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "decision method: " + "|".join([*METHODS, "quasi:q"]) in help_text

    @pytest.mark.parametrize("where, key", [
        ("experiment", "mc_replicatons"),
        ("cell", "replicatons"),
        ("scenario", "parms"),
    ])
    def test_unknown_key_exits_one_before_any_work(self, tmp_path, capsys, where, key):
        doc = json.loads(self.make_spec(tmp_path).read_text())
        target = {"experiment": doc, "cell": doc["cells"][1],
                  "scenario": doc["cells"][1]["scenario"]}[where]
        target[key] = 5
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, EXPERIMENT_SCHEMA)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--out", str(tmp_path / "res")]) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()
        for name in (*generators.FAMILIES, *generators.COV_KINDS):
            assert f"``{name}``" in generators.__doc__


def test_cli_import_leaves_out_scipy_linalg_and_spatial(null_csv, tmp_path):
    # Nor the scipy.special package, whose array-API wrappers load numpy.f2py;
    # checked after a test command, which runs the CLI's imports.
    code = ("import sys\nfrom hdnorm.cli import main\ncode = main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.linalg', 'scipy.spatial'))"
            " or m in ('scipy.special', 'scipy._lib._array_api', 'numpy.f2py')))")
    out = fresh_python(code, "test", str(null_csv), "--out", str(tmp_path / "r.json"))
    assert out.splitlines()[-1] == "[]"


class TestUfuncLoader:
    # After ``import hdnorm.rng``: which of PROBES are loaded, the packages
    # whose __init__ hdnorm skips and what those would load; then, after
    # plain imports of numpy.random and scipy.special, whether hdnorm's
    # objects are their exports and the packages work.
    PROBES = ("numpy.random", "numpy.random.mtrand", "scipy.special", "scipy._lib._array_api",
              "scipy.__config__", "scipy._lib._testutils", "subprocess")
    REPORT = ("import hdnorm.rng\n"
              f"loaded = {{m: m in sys.modules for m in {PROBES!r}}}\n"
              "import numpy.random, scipy.special\n"
              "print(json.dumps([loaded, numpy.random.Generator is hdnorm.rng.Generator,\n"
              "                  numpy.random.Philox is hdnorm.rng.Philox,\n"
              "                  numpy.random.SeedSequence is hdnorm.rng.SeedSequence,\n"
              "                  scipy.special.ndtri is hdnorm.rng.ndtri,\n"
              "                  scipy.special.gammaincinv is hdnorm.rng.gammaincinv,\n"
              "                  scipy.special._ufuncs is sys.modules['scipy.special._ufuncs'],\n"
              "                  float(scipy.special.erf(0.0)), float(hdnorm.rng.ndtri(0.5)),\n"
              "                  int(numpy.random.default_rng(0).integers(10 ** 6))]))\n")
    # The heavy module each skipped package's __init__ loads.
    HEAVY = {"numpy.random": "numpy.random.mtrand", "scipy.special": "scipy._lib._array_api"}

    def loaded(self, setup=""):
        got = json.loads(fresh_python("import json, sys\n" + textwrap.dedent(setup)
                                      + self.REPORT))
        assert got[1:] == [True] * 6 + [0.0, 0.0, 850624]
        return got[0]

    def test_alone_it_loads_only_the_ufuncs(self):
        # numpy 1.x imports numpy.random with numpy itself.
        skipped = [m for m in self.PROBES
                   if np.lib.NumpyVersion(np.__version__) >= "2.0.0"
                   or not m.startswith("numpy.random")]
        assert [m for m in skipped if self.loaded()[m]] == []

    @pytest.mark.parametrize("package", ["numpy.random", "scipy.special"])
    @pytest.mark.parametrize("setup", [
        "import {package}\n",
        """\
        import threading
        stop = threading.Event()
        threading.Thread(target=stop.wait, daemon=True).start()
        """,
        """\
        import importlib.util
        find_spec = importlib.util.find_spec
        def missing(name, package=None):
            if name == {package!r}:
                raise ModuleNotFoundError(name)
            return find_spec(name, package)
        importlib.util.find_spec = missing
        """,
        """\
        import importlib.util
        find_spec = importlib.util.find_spec
        importlib.util.find_spec = lambda name, package=None: (
            None if name == {package!r} else find_spec(name, package))
        """,
    ], ids=["package_loaded", "second_thread", "find_spec_raises", "no_spec"])
    def test_otherwise_the_package_is_imported(self, setup, package):
        loaded = self.loaded(setup.format(package=package))
        assert loaded[package] and loaded[self.HEAVY[package]]

    def test_package_binds_its_submodules_as_a_plain_import_does(self):
        # Whether each numpy.random.* and scipy.* module in sys.modules is
        # reachable as an attribute path from its top package, as the import
        # system binds them.
        code = ("import json, sys\n{}import numpy.random, scipy.special\n"
                "def bound(name):\n"
                "    top, *parts = name.split('.')\n"
                "    obj = sys.modules[top]\n"
                "    for part in parts:\n"
                "        obj = getattr(obj, part, None)\n"
                "    return obj is sys.modules[name]\n"
                "print(json.dumps({{m: bound(m) for m in sys.modules\n"
                "                  if m.startswith(('numpy.random.', 'scipy.'))}}))")
        after_rng = json.loads(fresh_python(code.format("import hdnorm.rng\n")))
        plain = json.loads(fresh_python(code.format("")))
        for name in ("numpy.random._pickle", "scipy._lib._ccallback", "scipy.special._gufuncs"):
            assert name in plain
        assert after_rng == plain

    def test_packages_work_after_the_loader(self):
        # Pickling a Generator goes through numpy.random._pickle, so through
        # the package's __init__; scipy.stats runs scipy's and scipy._lib's.
        code = ("import pickle, hdnorm.rng\n"
                "gen = hdnorm.rng.substream(7, 1, 2)\n"
                "copy = pickle.loads(pickle.dumps(gen))\n"
                "import numpy.random, scipy, scipy.stats\n"
                "print(copy.random(4).tolist() == gen.random(4).tolist(),\n"
                "      numpy.random.Generator is hdnorm.rng.Generator,\n"
                "      scipy.__version__ == scipy.version.version,\n"
                "      abs(scipy.stats.norm.ppf(0.975) - hdnorm.rng.ndtri(0.975)) < 1e-12)")
        assert fresh_python(code) == "True True True True"

    def test_diagnose_in_a_fresh_process(self, null_csv, tmp_path):
        # scipy.spatial imports scipy.special in full after the ufuncs loaded.
        code = ("import sys\nfrom hdnorm.cli import main\ncode = main(sys.argv[1:])\n"
                "print(code, 'scipy._lib._array_api' in sys.modules)")
        fresh = fresh_python(code, "diagnose", str(null_csv), "--out", str(tmp_path / "fresh"))
        assert fresh.splitlines()[-1] == "0 True"
        assert main(["diagnose", str(null_csv), "--out", str(tmp_path / "here")]) == 0
        for name in ("qq.csv", "radii.csv", "interpoint.csv"):
            assert ((tmp_path / "fresh" / name).read_bytes()
                    == (tmp_path / "here" / name).read_bytes())


class TestLazyPackage:
    def test_import_loads_no_numpy(self):
        assert fresh_python("import sys, hdnorm; print('numpy' in sys.modules)") == "False"

    def test_methods_import_loads_neither_numpy_nor_scipy(self):
        # hdnorm test judges its method and settings with this module alone.
        code = ("import sys\nfrom hdnorm.methods import METHODS, McSettings, lookup_method\n"
                "print([m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')])")
        assert fresh_python(code) == "[]"

    def test_test_command_loads_no_simulation_code(self, null_csv, tmp_path):
        code = ("import sys\nfrom hdnorm.cli import main\ncode = main(sys.argv[1:])\n"
                "print(code, [m for m in ('hdnorm.harness', 'hdnorm.generators')"
                " if m in sys.modules])")
        out = fresh_python(code, "test", str(null_csv), "--out", str(tmp_path / "r.json"))
        assert out.splitlines()[-1] in ("0 []", "3 []")

    def test_diagnose_loads_no_simulation_code(self, null_csv, tmp_path):
        code = ("import sys\nfrom hdnorm.cli import main\ncode = main(sys.argv[1:])\n"
                "print(code, [m for m in ('hdnorm.harness', 'hdnorm.generators')"
                " if m in sys.modules])")
        out = fresh_python(code, "diagnose", str(null_csv), "--out", str(tmp_path / "d"))
        assert out.splitlines()[-1] == "0 []"

    # hdnorm.cli's first main call moves what the imports before it made into
    # the collector's permanent generation, once: the library and the import
    # of hdnorm.cli freeze nothing, the collector stays on, and commands run
    # in one process, simulate's import of the harness included, freeze
    # nothing more.
    def test_only_the_cli_freezes_the_import_time_heap(self, null_csv, tmp_path):
        code = ("import gc, sys, hdnorm\n"
                "bare = gc.get_freeze_count()\n"
                "import hdnorm.harness, hdnorm.montecarlo\n"
                "library = gc.get_freeze_count()\n"
                "from hdnorm.cli import main\n"
                "imported = gc.get_freeze_count()\n"
                "test, simulate = sys.argv[1:5], sys.argv[5:]\n"
                "codes = [main(test)]\n"
                "frozen = gc.get_freeze_count()\n"
                "codes += [main(test), main(simulate)]\n"
                "print(bare, library, imported, frozen > 0, gc.isenabled(),"
                " gc.get_freeze_count() <= frozen, codes[2])")
        spec = TestCmdSimulate().make_spec(tmp_path)
        out = fresh_python(code, "test", str(null_csv), "--out", str(tmp_path / "r.json"),
                           "simulate", str(spec), "--threads", "1", "--out", str(tmp_path / "s"))
        assert out.splitlines()[-1] == "0 0 0 True True True 0"

    # No collection runs while the first main call's imports build the heap
    # the freeze keeps out of every later one: none starts once numpy is in
    # sys.modules and before the freeze.  The collector is back on after it.
    def test_cli_import_runs_no_young_collection(self, null_csv, tmp_path):
        code = ("import gc, sys\n"
                "from hdnorm.cli import main\n"
                "gc.collect()\n"
                "during = []\n"
                "def record(phase, info):\n"
                "    if phase == 'start' and 'numpy' in sys.modules and not gc.get_freeze_count():\n"
                "        during.append(info['generation'])\n"
                "gc.callbacks.append(record)\n"
                "code = main(sys.argv[1:])\n"
                "print(code in (0, 3), during, gc.isenabled(), gc.get_freeze_count() > 0)")
        out = fresh_python(code, "test", str(null_csv), "--out", str(tmp_path / "r.json"))
        assert out.splitlines()[-1] == "True [] True True"

    def test_cli_import_leaves_a_disabled_collector_off(self, null_csv, tmp_path):
        code = ("import gc, sys\ngc.disable()\nfrom hdnorm.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "print(code in (0, 3), gc.isenabled(), gc.get_freeze_count() > 0)")
        out = fresh_python(code, "test", str(null_csv), "--out", str(tmp_path / "r.json"))
        assert out.splitlines()[-1] == "True False True"

    # numpy.random loads with a stand-in for secrets, which would bring in
    # hmac and OpenSSL through _hashlib; the rest of the process keeps the
    # real entropy source and the real module.
    def test_rng_import_loads_no_openssl(self):
        code = ("import sys, hdnorm.rng\n"
                "print([m for m in ('secrets', '_hashlib') if m in sys.modules])")
        assert fresh_python(code) == "[]"

    def test_simulate_at_two_workers_loads_no_openssl(self, tmp_path):
        code = ("import sys\nfrom hdnorm.cli import main\ncode = main(sys.argv[1:])\n"
                "print(code, [m for m in ('secrets', '_hashlib') if m in sys.modules])")
        spec = Path(__file__).resolve().parents[1] / "tables" / "squared_contrast_desk.json"
        out = fresh_python(code, "simulate", str(spec), "--threads", "2",
                           "--out", str(tmp_path / "sim"))
        assert out.splitlines()[-1] == "0 []"

    def test_unseeded_seed_sequences_draw_os_entropy(self):
        code = ("import random, sys, hdnorm.rng\n"
                "from numpy.random import SeedSequence, bit_generator\n"
                "a, b = SeedSequence().entropy, SeedSequence().entropy\n"
                "print(a != b, 0 <= min(a, b) < max(a, b) < 2 ** 128,\n"
                "      isinstance(bit_generator.randbits.__self__, random.SystemRandom),\n"
                "      'secrets' in sys.modules)")
        assert fresh_python(code) == "True True True False"

    def test_later_import_of_secrets_gets_the_real_module(self):
        code = ("import hdnorm.rng, secrets\n"
                "print(len(secrets.token_bytes(16)), secrets.__spec__ is not None)")
        assert fresh_python(code) == "16 True"

    def test_secrets_imported_first_is_kept(self):
        code = ("import secrets, hdnorm.rng\n"
                "from numpy.random import bit_generator\n"
                "print(bit_generator.randbits is secrets.randbits)")
        assert fresh_python(code) == "True"

    def test_every_public_name_resolves_after_its_submodule_loads(self):
        # hdnorm.radii is loaded first, as the CLI's imports do; no public
        # name is shadowed by a submodule, and hdnorm.radii is the module.
        code = ("import json, sys, types, hdnorm.radii, hdnorm\n"
                "from hdnorm import *\n"
                "print(json.dumps({\n"
                "    'modules': [n for n in hdnorm.__all__\n"
                "                if isinstance(getattr(hdnorm, n), types.ModuleType)],\n"
                "    'radii': hdnorm.radii is sys.modules['hdnorm.radii'],\n"
                "    'public': [n for n in dir(hdnorm) if not n.startswith('_')],\n"
                "    'all': hdnorm.__all__}))")
        got = json.loads(fresh_python(code))
        assert got["modules"] == [] and got["radii"]
        submodules = ["errors", "generators", "harness", "methods", "moments", "montecarlo",
                      "radii", "rng", "teststats"]
        assert got["public"] == sorted({*got["all"], *submodules})

    def test_dir_lists_every_public_name_without_loading_numpy(self):
        code = ("import json, sys, hdnorm\n"
                "print(json.dumps([dir(hdnorm), hdnorm.__all__, 'numpy' in sys.modules]))")
        names, public, numpy_loaded = json.loads(fresh_python(code))
        submodules = ["errors", "generators", "harness", "methods", "moments", "montecarlo",
                      "radii", "rng", "teststats"]
        assert not numpy_loaded
        assert [n for n in names if not n.startswith("_")] == sorted({*public, *submodules})


class TestBlasThreads:
    REPORT_VARS = ("import json, os, sys\n"
                   "from hdnorm.cli import main\n"
                   "code = main(sys.argv[1:])\n"
                   "print(json.dumps([code, {k: os.environ.get(k) for k in %r}]))"
                   % (BLAS_THREAD_VARS,))

    def run_test(self, csv, tmp_path, **env):
        args = ["test", str(csv), "--mc", "500", "--out", str(tmp_path / "r.json")]
        # The last line; the verdict line precedes it.
        return json.loads(fresh_python(self.REPORT_VARS, *args, **env).splitlines()[-1])

    def test_cli_process_sets_one_thread(self, null_csv, tmp_path):
        code, env = self.run_test(null_csv, tmp_path)
        assert code in (0, 3)
        assert env == dict.fromkeys(BLAS_THREAD_VARS, "1")

    def test_caller_setting_is_kept(self, null_csv, tmp_path):
        _, env = self.run_test(null_csv, tmp_path, OPENBLAS_NUM_THREADS="3")
        assert env == {**dict.fromkeys(BLAS_THREAD_VARS, "1"), "OPENBLAS_NUM_THREADS": "3"}

    def test_process_with_numpy_loaded_is_left_alone(self, null_csv, tmp_path, monkeypatch):
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        before = dict(os.environ)
        default_to_one_blas_thread()
        assert main(["test", str(null_csv), "--mc", "500",
                     "--out", str(tmp_path / "r.json")]) in (0, 3)
        assert dict(os.environ) == before
