"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and prints
one `ACCEPTANCE <k> <name>: PASS|FAIL` line (run with ``pytest -s`` to see the
lines as they complete).  The heavy simulation grids are bundled as JSON specs
under tables/ and shared across criteria through session fixtures.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import gaussian_data, random_orthogonal, similarity_transform
from hdnorm import (
    DataMatrix,
    central_quantile_statistic,
    delta_hat,
    effective_ranks,
    iqr_statistic,
    quasi_range_statistic,
    radial_summary,
    range_statistic,
    squared_radii_statistics,
    standardized_radii,
    tr_sigma_sq_hat,
    tr_sigma_sq_oracle,
)
from hdnorm import rng as hrng
from hdnorm.cli import main
from hdnorm.harness import experiment_from_json, run_experiment

ROOT = Path(__file__).resolve().parents[1]
TABLES = ROOT / "tables"

# One recorded row of the table1_desk summary.csv.  It moves if the Philox
# substreams, the inverse-CDF normals, the covariance draws or the band do.
TABLE1_GOLDEN_ROW = ("null_gaussian,wishart,100,300,composite,2000,87,0,0.043499999999999997,"
                     "0.034560356320111632,0.052439643679888362")


def record(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def run_bundled(spec_name: str):
    doc = json.loads((TABLES / spec_name).read_text())
    return run_experiment(experiment_from_json(doc))


@pytest.fixture(scope="session")
def table1_cli_run(tmp_path_factory):
    """CLI run of the bundled type-I-error grid asking for 8 worker processes."""
    out = tmp_path_factory.mktemp("table1_t8")
    start = time.perf_counter()
    code = main(["simulate", str(TABLES / "table1_desk.json"),
                 "--out", str(out), "--threads", "8"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert TABLE1_GOLDEN_ROW in (out / "summary.csv").read_text().splitlines()
    return out / "summary.csv", elapsed


@pytest.fixture(scope="session")
def power_results():
    return run_bundled("power_desk.json")


@pytest.fixture(scope="session")
def highdim_results():
    return run_bundled("highdim_desk.json")


@pytest.fixture(scope="session")
def squared_results():
    return run_bundled("squared_contrast_desk.json")


def test_criterion_01_type_i_error_table1(table1_cli_run):
    csv_path, elapsed = table1_cli_run
    rows = [line.split(",") for line in csv_path.read_text().strip().split("\n")[1:]]
    rates = {(r[1], int(r[3])): float(r[8]) for r in rows}
    assert len(rates) == 12
    bad = {k: v for k, v in rates.items() if not 0.032 <= v <= 0.068}
    # The identity-covariance rows are additionally held to the narrower
    # published-value band.
    bad_identity = {k: v for k, v in rates.items()
                    if k[0] == "identity" and not 0.035 <= v <= 0.065}
    detail = (f"12 cells, rates {min(rates.values()):.3f}..{max(rates.values()):.3f}, "
              f"{elapsed:.0f}s" + (f", out of band: {bad or bad_identity}"
                                   if bad or bad_identity else ""))
    record(1, "type-i-error-table1", not bad and not bad_identity and elapsed < 1800.0,
           detail)


def test_criterion_02_power_scale_mixture(power_results):
    rate = next(r.rate for r in power_results if r.scenario.family == "cov_mixture")
    record(2, "power-scale-mixture", rate >= 0.99, f"rate={rate:.4f}, need >= 0.99")


def test_criterion_03_power_multivariate_t(power_results):
    rate = next(r.rate for r in power_results if r.scenario.family == "multivariate_t")
    record(3, "power-multivariate-t", rate >= 0.93, f"rate={rate:.4f}, need >= 0.93")


def test_criterion_04_power_chisq_marginals(power_results):
    by_dof = {r.scenario.params["dof"]: r.rate for r in power_results
              if r.scenario.family == "chisq_marginals"}
    ok = by_dof[3] >= 0.95 and 0.10 <= by_dof[20] <= 0.30
    record(4, "power-chisq-marginals", ok,
           f"dof=3 rate={by_dof[3]:.4f} (need >= 0.95); "
           f"dof=20 rate={by_dof[20]:.4f} (need in [0.10, 0.30])")


def test_criterion_05_high_dimension_sweep(highdim_results):
    size = next(r.rate for r in highdim_results if r.scenario.family == "null_gaussian")
    power = next(r.rate for r in highdim_results if r.scenario.family == "loc_mixture")
    ok = 0.035 <= size <= 0.065 and power >= 0.90
    record(5, "high-dimension-sweep", ok,
           f"null size={size:.4f} (need in [0.035, 0.065]); "
           f"loc-mixture power={power:.4f} (need >= 0.90)")


def test_criterion_06_squared_radii_contrast(squared_results):
    rates = {r.method: r.rate for r in squared_results}
    ok = rates["squared"] > 0.10 and rates["composite"] <= 0.08
    record(6, "squared-radii-contrast", ok,
           f"squared size={rates['squared']:.4f} (need > 0.10); "
           f"radii size={rates['composite']:.4f} (need <= 0.08), same draws")


def test_criterion_07_oracle_equivalence():
    gen = hrng.substream(4242, 7)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(gen.integers(4, 21))
        d = int(gen.integers(1, 16))
        scale = 10.0 ** gen.uniform(-3.0, 3.0)
        col_scale = 10.0 ** gen.uniform(-1.0, 1.0, d)
        X = DataMatrix.from_array(
            scale * col_scale * hrng.standard_normal(gen, (n, d)))
        fast, slow = tr_sigma_sq_hat(X), tr_sigma_sq_oracle(X)
        worst = max(worst, abs(fast - slow) / (1.0 + abs(slow)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    record(7, "oracle-equivalence", ok,
           f"200 matrices, worst relative gap {worst:.2e} (need <= 1e-8), {elapsed:.1f}s")


def test_criterion_08_invariance_suite():
    X = gaussian_data(808, 60, 80)
    rs = radial_summary(X)
    base = {
        "range": range_statistic(rs).value,
        "iqr": iqr_statistic(rs).value,
        "quasi3": quasi_range_statistic(rs, 3).value,
        "central": central_quantile_statistic(rs, [0.6, 0.75, 0.9]).value,
    }
    sq = squared_radii_statistics(rs)
    base["sq_range"], base["sq_iqr"] = sq[0].value, sq[1].value
    base_delta = rs.dispersion.delta_hat
    base_v = standardized_radii(X)

    G = hrng.standard_normal(hrng.substream(808, 9), (40, 40))
    cov = G @ G.T
    base_ranks = effective_ranks(cov)
    rank_names = ("rho1_sigma", "rho1_sigma_sq", "rho2_sigma", "rho2_sigma_sq", "rho3")

    gen = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        sigma = 10.0 ** gen.uniform(-2.0, 2.0)
        V = random_orthogonal(gen, 80)
        w = gen.normal(size=80) * gen.choice([0.1, 10.0])
        moved = DataMatrix.from_array(similarity_transform(X.values, sigma, V, w))
        mrs = radial_summary(moved)
        values = {
            "range": range_statistic(mrs).value,
            "iqr": iqr_statistic(mrs).value,
            "quasi3": quasi_range_statistic(mrs, 3).value,
            "central": central_quantile_statistic(mrs, [0.6, 0.75, 0.9]).value,
        }
        sq = squared_radii_statistics(mrs)
        values["sq_range"], values["sq_iqr"] = sq[0].value, sq[1].value
        for key, value in values.items():
            worst = max(worst, abs(value - base[key]) / (1.0 + abs(base[key])))
        worst = max(worst, abs(mrs.dispersion.delta_hat - sigma * sigma * base_delta)
                    / (sigma * sigma * base_delta))
        v = standardized_radii(moved)
        worst = max(worst, float(np.max(np.abs(v - base_v) / (1.0 + np.abs(base_v)))))

        Vc = random_orthogonal(gen, 40)
        moved_ranks = effective_ranks(sigma * sigma * Vc @ cov @ Vc.T)
        for name in rank_names:
            b = getattr(base_ranks, name)
            worst = max(worst, abs(getattr(moved_ranks, name) - b) / (1.0 + abs(b)))

    record(8, "invariance-suite", worst <= 1e-9,
           f"100 transforms, worst relative drift {worst:.2e} (need <= 1e-9)")


def test_criterion_09_effective_rank_inequalities():
    slack = 1e-9

    def le(a, b):
        return a <= b + slack * max(1.0, abs(a), abs(b))

    gen = np.random.default_rng(7117)
    failures = 0
    for i in range(500):
        d = int(gen.integers(2, 51))
        kind = i % 4
        if kind == 0:
            G = gen.normal(size=(d, int(gen.integers(1, d + 4))))
            cov = G @ G.T
        elif kind == 1:  # exact low rank
            k = int(gen.integers(1, d + 1))
            G = gen.normal(size=(d, k))
            cov = G @ G.T
        elif kind == 2:  # repeated eigenvalues
            lam = np.repeat(gen.uniform(0.5, 4.0, size=max(1, d // 3)), 3)[:d]
            lam = np.pad(lam, (0, d - len(lam)), constant_values=lam[-1] if len(lam) else 1.0)
            V = random_orthogonal(gen, d)
            cov = (V * lam) @ V.T
        else:  # wide spectrum
            lam = 10.0 ** gen.uniform(-4, 4, size=d)
            cov = np.diag(lam)
        er = effective_ranks(cov)
        lam_all = np.linalg.eigvalsh((cov + cov.T) / 2.0)
        rank = int(np.sum(lam_all > 1e-12 * lam_all[-1]))
        chain = (
            le(1.0, math.sqrt(er.rho3))
            and le(math.sqrt(er.rho3), er.rho2_sigma_sq)
            and le(er.rho2_sigma_sq, er.rho3)
            and le(er.rho3, er.rho2_sigma)
            and le(er.rho2_sigma, rank)
            and le(er.rho1_sigma ** 2 / d, er.rho3)
            and le(er.rho3, er.rho1_sigma ** 1.5)
            and le(er.rho1_sigma_sq, er.rho1_sigma)
            and le(er.rho1_sigma, er.rho2_sigma)
            and le(er.rho2_sigma, er.rho1_sigma ** 2)
            and le(er.rho1_sigma_sq, er.rho2_sigma_sq)
            and le(er.rho2_sigma_sq, er.rho2_sigma)
            and le(er.rho3 ** 0.25, er.rho1_sigma_sq)
            and le(er.rho1_sigma_sq, er.rho3)
        )
        failures += not chain
    record(9, "effective-rank-inequalities", failures == 0,
           f"500 random PSD matrices, {failures} chain violations (slack 1e-9)")


def test_criterion_10_determinism_across_threads(table1_cli_run, tmp_path):
    csv8, _ = table1_cli_run
    out1 = tmp_path / "table1_t1"
    code = main(["simulate", str(TABLES / "table1_desk.json"),
                 "--out", str(out1), "--threads", "1"])
    assert code == 0
    identical = (out1 / "summary.csv").read_bytes() == csv8.read_bytes()
    record(10, "determinism-across-threads", identical,
           "summary.csv byte-identical between --threads 1 and --threads 8")
