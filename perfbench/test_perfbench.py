"""The benchmark's own tests.

    python3 -m pytest perfbench

They run the benchmark at a tiny size, so they take a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import clitest  # noqa: E402
import sweeps  # noqa: E402
import tracer  # noqa: E402
from launch import Program  # noqa: E402
from run import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    done = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_expected_digests_cover_the_recorded_seeds():
    table = json.loads(clitest.EXPECTED.read_text(encoding="utf-8"))["sweeps"]
    assert table["seconds"] == sweeps.BASE_SECONDS
    for workload in sweeps.WORKLOADS:
        assert sorted(map(int, table[workload])) == list(sweeps.RECORDED_SEEDS)


def test_digest_gate_fails_on_a_one_byte_change(tmp_path):
    workload, seed = "sweep_null_grid", 0
    expected = sweeps.recorded_digest(workload, seed, sweeps.BASE_SECONDS)
    assert expected is not None
    doc = sweeps.spec_for(workload, seed, sweeps.BASE_SECONDS)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    done = Program(ROOT, tmp_path, sweeps.BASE_SECONDS).cli(
        ["simulate", str(spec), "--out", str(tmp_path), "--threads", "1"])
    assert done.code == 0, done.stderr
    summary = (tmp_path / "summary.csv").read_bytes()
    assert sweeps.gate(summary, [summary], doc, expected) == []

    # Flip the last digit of the first data row's rate.
    lines = summary.split(b"\n")
    last = lines[1][-1:]
    lines[1] = lines[1][:-1] + (b"1" if last != b"1" else b"2")
    changed = b"\n".join(lines)
    assert len(changed) == len(summary)
    assert any("sha256" in p for p in sweeps.gate(changed, [changed], doc, expected))
    assert any("differs" in p for p in sweeps.gate(summary, [summary, changed], doc, expected))


def test_report_gate_checks_statistics_band_and_exit_code():
    expected = json.loads(clitest.EXPECTED.read_text(encoding="utf-8"))["cli_test"]
    name, mc = "small_gauss", 10000
    recorded = expected["requests"][f"{name},{mc}"]
    ref = clitest.reference_statistics(clitest.matrix(expected["seed"], name))
    n = clitest.FILES[name][0]
    code = 3 if recorded["composite"]["reject"] else 0
    assert clitest.check_report(recorded, code, ref, n, mc, expected, recorded) == []
    assert clitest.check_report(recorded, 3 - code, ref, n, mc, expected, None)

    shifted = json.loads(json.dumps(recorded))
    shifted["range"]["value"] += 1e-6
    assert any("reference" in p
               for p in clitest.check_report(shifted, code, ref, n, mc, expected, None))
    moved = json.loads(json.dumps(recorded))
    moved["iqr"]["upper"] = moved["iqr"]["value"] - 1.0
    problems = clitest.check_report(moved, code, ref, n, mc, expected, None)
    assert any("band edges" in p for p in problems)
    assert any("verdict disagrees" in p for p in problems)


def test_tracer_restores_every_wrapped_function():
    import hdnorm.cli  # noqa: F401  (the tracer wraps the CLI's loader too)
    import numpy as np
    from hdnorm.moments import DataMatrix

    names = {attr for _, attr, _, _ in tracer.TARGETS}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hdnorm"]
    before = {(m.__name__, a): m.__dict__[a] for m in modules for a in names if a in m.__dict__}

    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.traced(t) as missing:
            assert missing == []
            wrapped = {key for key, fn in before.items()
                       if sys.modules[key[0]].__dict__[key[1]] is not fn}
            assert wrapped == set(before)
            gen = hdnorm.rng.substream(1, hdnorm.rng.DOMAIN_DATA, 0, 7)
            hdnorm.rng.standard_normal(gen, (3, 4))
            # n > d: the covariance path, whose FLOPs are counted from d x d.
            # The package exports a function named radii, so name the module.
            moments_module = sys.modules["hdnorm.radii"]
            moments_module.radial_summary(DataMatrix.from_array(np.arange(15.0).reshape(5, 3) ** 2))
            raise RuntimeError("leave the block by an exception")

    after = {(m.__name__, a): m.__dict__[a] for m in modules for a in names if a in m.__dict__}
    assert all(after[key] is fn for key, fn in before.items())
    layers = tracer.aggregate(t.spans)
    assert layers["rng.standard_normal"]["work"] == 12
    assert layers["rng.substream"]["calls"] == 1
    moments = layers["radii.radial_summary"]
    assert moments["gramian"] == 0
    assert moments["work"] == 4 * 5 * 3 + 2 * 5 * 3 * 3 + 2 * 3 * 3
    assert t.spans[-1][4] == (0, 7)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = _bench("--workload", "cli_test", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
