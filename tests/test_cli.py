import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import gaussian_data
from hdnorm import rng as hrng
from hdnorm._blas import BLAS_THREAD_VARS, default_to_one_blas_thread
from hdnorm.cli import main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "hdnorm" / "schemas"
REPORT_SCHEMA = json.loads((SCHEMA_DIR / "report-v1.schema.json").read_text())
EXPERIMENT_SCHEMA = json.loads((SCHEMA_DIR / "experiment-v1.schema.json").read_text())


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

    def test_header_flag(self, tmp_path):
        X = gaussian_data(11, 30, 8)
        path = write_csv(tmp_path / "with_header.csv", X.values, header=True)
        out = tmp_path / "r.json"
        assert main(["test", str(path), "--header", "--mc", "500",
                     "--out", str(out)]) in (0, 3)
        assert json.loads(out.read_text())["n"] == 30

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


class TestCmdDiagnose:
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

    def test_reservoir_values_are_true_distances(self, tmp_path):
        X = gaussian_data(602, 25, 4)
        path = write_csv(tmp_path / "y.csv", X.values)
        main(["diagnose", str(path), "--out", str(tmp_path / "d"), "--max-pairs", "50"])
        sampled = np.loadtxt(tmp_path / "d" / "interpoint.csv", skiprows=1)
        from scipy.spatial.distance import pdist
        universe = np.sort(pdist(X.values))
        for value in sampled:
            assert np.min(np.abs(universe - value)) < 1e-9


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

    def test_byte_identical_reruns(self, tmp_path):
        spec = self.make_spec(tmp_path)
        main(["simulate", str(spec), "--out", str(tmp_path / "a"), "--threads", "1"])
        main(["simulate", str(spec), "--out", str(tmp_path / "b"), "--threads", "4"])
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

    def test_bad_worker_count_variable_exits_one(self, tmp_path, monkeypatch, capsys):
        spec = self.make_spec(tmp_path)
        monkeypatch.setenv("HDNORM_THREADS", "abc")
        assert main(["simulate", str(spec), "--out", str(tmp_path / "res")]) == 1
        assert "HDNORM_THREADS" in capsys.readouterr().err
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

    def test_bundled_specs_validate(self):
        tables = Path(__file__).resolve().parents[1] / "tables"
        for spec in sorted(tables.glob("*.json")):
            jsonschema.validate(json.loads(spec.read_text()), EXPERIMENT_SCHEMA)


def fresh_python(code, *args, **env):
    """stdout of ``python -c code *args`` in a new process on these sources.

    The BLAS thread-count variables are unset unless given in ``env``.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env={**base, **env},
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_cli_import_leaves_out_scipy_linalg_and_spatial():
    code = ("import sys, hdnorm.cli; print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.linalg', 'scipy.spatial'))))")
    assert fresh_python(code) == "[]"


class TestLazyPackage:
    def test_import_loads_no_numpy(self):
        assert fresh_python("import sys, hdnorm; print('numpy' in sys.modules)") == "False"

    def test_every_public_name_resolves_after_its_submodule_loads(self):
        # hdnorm.radii is loaded first, as the CLI's imports do: the package
        # must still export the function radii, not the module.
        code = ("import json, sys, types, hdnorm.radii, hdnorm\n"
                "from hdnorm import *\n"
                "print(json.dumps({\n"
                "    'modules': [n for n in hdnorm.__all__\n"
                "                if isinstance(getattr(hdnorm, n), types.ModuleType)],\n"
                "    'radii': hdnorm.radii is sys.modules['hdnorm.radii'].radii,\n"
                "    'public': [n for n in dir(hdnorm) if not n.startswith('_')],\n"
                "    'all': hdnorm.__all__}))")
        got = json.loads(fresh_python(code))
        assert got["modules"] == [] and got["radii"]
        submodules = ["errors", "generators", "harness", "moments", "montecarlo", "radii",
                      "rng", "teststats"]
        assert got["public"] == sorted({*got["all"], *submodules})


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
