import csv
import io
import json
import math
import os

import numpy as np
import pytest

from hdnorm import CovSpec, Scenario, harness, montecarlo
from hdnorm.harness import (
    BLAS_THREAD_VARS,
    CellSpec,
    Experiment,
    binomial_ci,
    cov_from_json,
    cov_to_json,
    experiment_from_json,
    results_jsonl,
    run_experiment,
    scenario_from_json,
    scenario_to_json,
    summarize,
    usable_cpus,
    worker_count,
    _process_map,
    _run_unit,
)


def small_experiment(methods=("composite",), seed=42):
    ident = CovSpec.identity(30)
    return Experiment(
        name="unit",
        seed=seed,
        alpha=0.05,
        mc_replications=500,
        cells=(
            CellSpec(Scenario("null_gaussian", 40, 30, ident), 60, methods),
            CellSpec(Scenario("cov_mixture", 40, 30, ident, {"gap": 0.8}), 60, methods),
        ),
    )


def blas_vars(_):
    """Runs in a worker process: its pid and BLAS thread-count variables."""
    return os.getpid(), {k: os.environ.get(k) for k in BLAS_THREAD_VARS}


def unit_without_draws(exp, ci, lo, hi):
    """Runs in a worker process: one work unit with null draws made an error.

    Returns the unit's outcome and the bands the worker holds afterwards.
    """
    def no_draws(*args):
        raise AssertionError(f"worker drew a null sample for {args}")

    montecarlo.null_quasi_range_draws = no_draws
    return _run_unit(exp, ci, lo, hi), dict(montecarlo._BANDS)


class TestRunExperiment:
    def test_empty_grid_returns_empty_list(self):
        exp = Experiment(name="none", seed=1, alpha=0.05, mc_replications=500, cells=())
        assert run_experiment(exp) == []

    def test_rates_and_counts_consistent(self):
        results = run_experiment(small_experiment(), threads=2)
        assert len(results) == 2
        for r in results:
            assert 0.0 <= r.rate <= 1.0
            assert r.rejections == round(r.rate * (r.replications - r.failures))
            assert r.failures == 0
        null_rate = results[0].rate
        power = results[1].rate
        assert power > null_rate

    def test_thread_count_does_not_change_results(self):
        exp = small_experiment()
        strip = lambda rs: [(r.cell_index, r.method, r.rejections, r.failures, r.rate)
                            for r in rs]
        assert strip(run_experiment(exp, threads=1)) == strip(run_experiment(exp, threads=8))

    def test_single_cell_rerun_is_bitwise(self):
        exp = small_experiment()
        full = run_experiment(exp, threads=4)
        ci, rejections, failures, _ = _run_unit(exp, 1, 0, exp.cells[1].replications)
        assert ci == 1
        assert rejections["composite"] == full[1].rejections
        assert failures["composite"] == full[1].failures

    def test_methods_share_draws(self):
        results = run_experiment(small_experiment(methods=("composite", "squared")), threads=2)
        assert [r.method for r in results] == ["composite", "squared"] * 2

    def test_cell_whose_band_fails_is_left_out_of_prebuilt_bands(self):
        tiny = Scenario("null_gaussian", 2, 10, CovSpec.identity(10))
        good = Scenario("null_gaussian", 20, 10, CovSpec.identity(10))
        exp = Experiment(name="tiny", seed=3, alpha=0.05, mc_replications=500,
                         cells=(CellSpec(tiny, 10), CellSpec(good, 10)))
        assert [key[0] for key in harness._cell_bands(exp)] == [20]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cell_with_three_rows_fails_every_replication(self, threads):
        tiny = Scenario("null_gaussian", 3, 10, CovSpec.identity(10))
        good = Scenario("null_gaussian", 20, 10, CovSpec.identity(10))
        exp = Experiment(name="tiny", seed=3, alpha=0.05, mc_replications=500,
                         cells=(CellSpec(tiny, 10), CellSpec(good, 10)))
        results = run_experiment(exp, threads=threads)
        assert results[0].failures == 10 and math.isnan(results[0].rate)
        assert results[1].failures == 0

    def test_failing_cell_counted_not_fatal(self):
        bad = Scenario("mixed_marginals", 20, 10, CovSpec.ar1(10, 0.5))
        good = Scenario("null_gaussian", 20, 10, CovSpec.identity(10))
        exp = Experiment(name="mixed", seed=3, alpha=0.05, mc_replications=500,
                         cells=(CellSpec(bad, 10), CellSpec(good, 10)))
        results = run_experiment(exp, threads=2)
        assert results[0].failures == 10 and math.isnan(results[0].rate)
        assert results[1].failures == 0


class TestThreadResolution:
    def test_env_var_caps_workers(self, monkeypatch):
        from hdnorm.harness import default_threads

        monkeypatch.setenv("HDNORM_THREADS", "3")
        assert default_threads() == 3
        for bad in ("not-a-number", "0", "-3", "1.5"):
            monkeypatch.setenv("HDNORM_THREADS", bad)
            with pytest.raises(ValueError, match=f"HDNORM_THREADS .*{bad!r}"):
                default_threads()
        monkeypatch.delenv("HDNORM_THREADS")
        assert default_threads() >= 1

    def test_worker_count_caps(self):
        assert worker_count(4, 100, 2) == 2
        assert worker_count(2, 100, 8) == 2
        assert worker_count(8, 1, 2) == 1
        assert worker_count(10**9, 50, 2) == 2
        assert worker_count(3, 0, 2) == 1

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="at least one worker"):
            run_experiment(small_experiment(), threads=threads)


class TestWorkerProcesses:
    def test_workers_run_one_blas_thread_and_parent_env_is_kept(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        workers = min(2, usable_cpus())
        reports = _process_map(blas_vars, [(i,) for i in range(8)], workers)
        assert len(reports) == 8
        pids = {pid for pid, _ in reports}
        assert os.getpid() not in pids and len(pids) <= workers
        assert all(env == dict.fromkeys(BLAS_THREAD_VARS, "1") for _, env in reports)
        assert dict(os.environ) == before


class TestBandsBuiltOnce:
    def test_parent_draws_each_cell_band_once_and_workers_only_read(self, monkeypatch):
        drawn = []
        real_draws = montecarlo.null_quasi_range_draws

        def counting_draws(n, q, m, seed):
            drawn.append((n, q, m, seed))
            return real_draws(n, q, m, seed)

        monkeypatch.setattr(montecarlo, "null_quasi_range_draws", counting_draws)
        monkeypatch.setattr(montecarlo, "_BANDS", {})
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        seen = {}

        def spy(fn, args, workers, initializer=None, initargs=()):
            seen.update(workers=workers, initializer=initializer, bands=initargs[0])
            outcomes = _process_map(unit_without_draws, [(fn.args[0], *a) for a in args],
                                    workers, initializer, initargs)
            seen["worker_bands"] = [bands for _, bands in outcomes]
            return [outcome for outcome, _ in outcomes]

        monkeypatch.setattr(harness, "_process_map", spy)
        exp = small_experiment(methods=("composite", "squared"))
        results = run_experiment(exp, threads=2)

        assert seen["workers"] == 2 and seen["initializer"] is montecarlo.install_bands
        assert len(drawn) == len(exp.cells) == len(set(drawn))
        assert len(seen["bands"]) == len(exp.cells)
        assert all(bands == seen["bands"] for bands in seen["worker_bands"])
        strip = lambda rs: [(r.cell_index, r.method, r.rejections, r.failures) for r in rs]
        assert strip(results) == strip(run_experiment(exp, threads=1))
        assert len(drawn) == len(exp.cells)


class TestBinomialCi:
    def test_interior(self):
        lo, hi = binomial_ci(50, 1000)
        assert lo == pytest.approx(0.05 - 1.959963984540054 * math.sqrt(0.05 * 0.95 / 1000))
        assert hi == pytest.approx(0.05 + 1.959963984540054 * math.sqrt(0.05 * 0.95 / 1000))

    def test_guards_at_extremes(self):
        lo, hi = binomial_ci(0, 200)
        assert lo == 0.0 and 0.0 < hi < 0.05
        lo, hi = binomial_ci(200, 200)
        assert 0.95 < lo < 1.0 and hi == 1.0


class TestSummarize:
    def test_single_cell_csv(self):
        results = run_experiment(small_experiment(), threads=2)
        text = summarize(results[:1])
        lines = text.strip().split("\n")
        assert lines[0].startswith("family,cov,n,d,method")
        assert len(lines) == 2

    def test_rows_sorted_by_key(self):
        ident20 = CovSpec.identity(20)
        ident10 = CovSpec.identity(10)
        exp = Experiment(
            name="sorted", seed=9, alpha=0.05, mc_replications=500,
            cells=(
                CellSpec(Scenario("null_gaussian", 20, 20, ident20), 5),
                CellSpec(Scenario("null_gaussian", 20, 10, ident10), 5),
            ),
        )
        lines = summarize(run_experiment(exp, threads=1)).strip().split("\n")[1:]
        dims = [int(line.split(",")[3]) for line in lines]
        assert dims == sorted(dims)

    def test_round_trip_recovers_numbers(self):
        results = run_experiment(small_experiment(), threads=2)
        text = summarize(results)
        rows = list(csv.DictReader(io.StringIO(text)))
        by_key = {(r.scenario.family, r.method): r for r in results}
        for row in rows:
            r = by_key[(row["family"], row["method"])]
            assert float(row["rate"]) == pytest.approx(r.rate, abs=1e-12)
            assert float(row["ci_low"]) == pytest.approx(r.ci_low, abs=1e-12)
            assert float(row["ci_high"]) == pytest.approx(r.ci_high, abs=1e-12)
            assert int(row["rejections"]) == r.rejections

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_jsonl_lines_parse(self):
        results = run_experiment(small_experiment(), threads=2)
        lines = results_jsonl(results).strip().split("\n")
        docs = [json.loads(line) for line in lines]
        assert docs[0]["scenario"]["family"] == "null_gaussian"
        assert "wall_time" in docs[0]


class TestJsonSpecs:
    def test_cov_round_trip(self):
        for spec in (CovSpec.identity(8), CovSpec.ar1(8, 0.9),
                     CovSpec.sparse_random(8, seed=3), CovSpec.wishart(8, seed=2),
                     CovSpec.geom_decay(8, rate=0.9)):
            assert cov_from_json(cov_to_json(spec)) == spec

    def test_scenario_round_trip(self):
        s = Scenario("loc_mixture", 50, 20, CovSpec.identity(20),
                     {"shift_coeff": 2.15, "shift_exponent": -0.25,
                      "weights": (0.3, 0.7)})
        back = scenario_from_json(json.loads(json.dumps(scenario_to_json(s))))
        assert back == s

    def test_experiment_defaults_and_validation(self):
        doc = {
            "seed": 5,
            "replications": 25,
            "cells": [{"scenario": {"family": "null_gaussian", "n": 20, "d": 10,
                                    "cov": {"kind": "identity", "d": 10}}}],
        }
        exp = experiment_from_json(doc)
        assert exp.alpha == 0.05 and exp.mc_replications == 10000
        assert exp.cells[0].replications == 25
        with pytest.raises(ValueError, match="empty grid"):
            experiment_from_json({"cells": []})
        doc["cells"][0]["methods"] = ["bogus"]
        with pytest.raises(ValueError, match="unknown method"):
            experiment_from_json(doc)


class TestPowerMonotone:
    def test_loc_mixture_power_monotone_in_separation(self):
        full_shift = 2.15 * 300 ** -0.25
        cells = tuple(
            CellSpec(Scenario("loc_mixture", 100, 300, CovSpec.identity(300),
                              {"shift": s}), 250)
            for s in (0.0, 0.5 * full_shift, full_shift)
        )
        exp = Experiment(name="monotone", seed=77, alpha=0.05,
                         mc_replications=2000, cells=cells)
        results = run_experiment(exp)
        rates = [r.rate for r in results]
        widths = [r.ci_high - r.ci_low for r in results]
        assert rates[1] >= rates[0] - widths[0]
        assert rates[2] >= rates[1] - widths[1]
