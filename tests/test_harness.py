import csv
import dataclasses
import io
import itertools
import json
import math
import multiprocessing
import os
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import clear_band_memos, fresh_python
from hdnorm import (CovSpec, HdnormError, Scenario, _cpus, generators, harness, montecarlo,
                    radial_summary, sample_scenario)
from hdnorm import rng as hrng
from hdnorm._cpus import BLAS_THREAD_VARS, process_map, usable_cpus, worker_count
from hdnorm.harness import (
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
    _run_unit,
)
from hdnorm.methods import METHODS, McSettings, lookup_method


GOOD = Scenario("null_gaussian", 20, 10, CovSpec("identity", 10))


def small_experiment(methods=("composite",), seed=42, integer=int, real=float):
    """Two cells, with each size, seed and count made by ``integer`` and the mixture's
    gap by ``real``."""
    ident = CovSpec("identity", integer(30), seed=integer(0))
    return Experiment(
        name="unit",
        seed=integer(seed),
        alpha=0.05,
        mc_replications=integer(500),
        cells=(
            CellSpec(Scenario("null_gaussian", integer(40), integer(30), ident), integer(60),
                     methods),
            CellSpec(Scenario("cov_mixture", integer(40), integer(30), ident,
                              {"gap": real(0.8)}), integer(60), methods),
        ),
    )


def blas_vars(_):
    """Runs in a worker process: its pid and BLAS thread-count variables."""
    return os.getpid(), {k: os.environ.get(k) for k in BLAS_THREAD_VARS}


def unit_without_draws(exp, ci, lo, hi, rules):
    """Runs in a worker process: one work unit with no memoised band and null
    draws made an error."""
    def no_draws(*args):
        raise AssertionError(f"worker drew a null sample for {args}")

    clear_band_memos()
    montecarlo.null_quasi_range_draws = no_draws
    return _run_unit(exp, ci, lo, hi, rules)


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
        rules = harness._cell_rules(exp)[1]
        ci, rejections, failures, _ = _run_unit(exp, 1, 0, exp.cells[1].replications, rules)
        assert ci == 1
        assert rejections["composite"] == full[1].rejections
        assert failures == full[1].failures

    def test_run_checks_no_scenario_again(self, monkeypatch):
        # Each Scenario resolved its parameters when built; a run only reads them.
        exp = small_experiment()
        expected = summarize(run_experiment(exp, threads=1))

        def refuse(scenario):
            raise AssertionError("parameters checked again")

        monkeypatch.setattr(generators, "_params", refuse)
        assert summarize(run_experiment(exp, threads=1)) == expected

    def test_cells_checked_are_the_cells_run(self):
        # A list of cells changed after the build once ran its new cell, here to a TypeError.
        cells = [CellSpec(GOOD, 10)]
        exp = Experiment("copied", 3, 0.05, 500, cells)
        cells.append(CellSpec(GOOD, 2.5))
        assert [r.replications for r in run_experiment(exp, threads=1)] == [10]
        assert exp.cells == (CellSpec(GOOD, 10),)

    def test_cells_from_a_generator_run(self):
        # The check once used the generator up, and the run returned no result.
        exp = Experiment("generated", 3, 0.05, 500, (cell for cell in [CellSpec(GOOD, 10)]))
        assert [r.replications for r in run_experiment(exp, threads=1)] == [10]

    @pytest.mark.parametrize("cells, message", [
        ([5], "cell 0 must be a CellSpec holding a Scenario, got 5"),
        ((CellSpec(GOOD, 10), CellSpec({"n": 3}, 10)),
         "cell 1 must be a CellSpec holding a Scenario, got CellSpec(scenario={'n': 3}"),
        (5, "cells must be a list of CellSpec, got 5"),
    ], ids=["not_a_cell", "not_a_scenario", "not_a_list"])
    def test_bad_cells_are_refused_by_name(self, cells, message):
        # Each once raised an untyped AttributeError or TypeError.
        with pytest.raises(ValueError, match=re.escape(message)):
            Experiment(cells=cells)

    def test_methods_checked_are_the_methods_run(self):
        # A methods list changed after the build once ran an order too large for n.
        methods = ["composite"]
        exp = Experiment("copied", 3, 0.05, 500, (CellSpec(GOOD, 10, methods),))
        methods.append("quasi:99")
        assert [r.method for r in run_experiment(exp, threads=1)] == ["composite"]
        assert exp.cells[0].methods == ("composite",)

    def test_experiment_takes_a_spec_defaults(self):
        exp = Experiment(cells=(CellSpec(GOOD, 10),))
        assert (exp.name, exp.seed, exp.alpha, exp.mc_replications) == ("experiment", 0, 0.05,
                                                                          10000)
        spec = {"cells": [{"scenario": scenario_to_json(GOOD), "replications": 10}]}
        assert experiment_from_json(spec) == exp

    def test_methods_share_draws(self):
        results = run_experiment(small_experiment(methods=("composite", "squared")), threads=2)
        assert [r.method for r in results] == ["composite", "squared"] * 2

    # Each cell cannot run: n = 2 has no normalizing constants, n = 20 no
    # quasi-range of order 11, n = 3 no IQR and, for the range alone, no
    # moment estimates; a negative n, an n or d that is a float or a bool, a d
    # that the covariance does not match, a covariance seed that is negative or
    # not an integer, or a kind that is not a string, and an n or d too large
    # for a float cannot be sampled, and mixed marginals take no transport;
    # then a method twice, no method, no replication, a replication count that
    # is not an integer and an experiment name that is not a string.  Each
    # case changes the second cell's scenario, written as its spec object, but
    # a "name", which it gives the experiment.
    @pytest.mark.parametrize("changes, replications, methods, message", [
        ({"n": 2}, 10, ("composite",), "need n >= 3, got n=2"),
        ({}, 10, ("composite", "quasi:11"), r"q=11 is not an integer in \[1, 10\] for n=20"),
        ({"n": 3}, 10, ("composite",), "IQR statistic needs n >= 4"),
        ({"n": 3}, 10, ("range",), "cell 1 needs n >= 4 for the moments, got 3"),
        ({"n": -5}, 10, ("composite",), "need n >= 1"),
        ({"n": 20.0}, 10, ("composite",), r"n and d must be integers, got n=20\.0 and d=10"),
        ({"n": True}, 10, ("composite",), "n and d must be integers, got n=True and d=10"),
        ({"d": 10.0}, 10, ("composite",), r"n and d must be integers, got n=20 and d=10\.0"),
        ({"d": True}, 10, ("composite",), "n and d must be integers, got n=20 and d=True"),
        ({"cov": {"kind": "identity", "d": 5}}, 10, ("composite",),
         "covariance of dimension d=10, got n=20 and dimension 5"),
        ({"cov": {"kind": "wishart", "d": 10, "seed": -1}}, 10, ("composite",),
         "covariance seed must be a non-negative integer, got -1"),
        ({"cov": {"kind": "wishart", "d": 10, "seed": 2.5}}, 10, ("composite",),
         r"covariance seed must be a non-negative integer, got 2\.5"),
        ({"cov": {"kind": ["identity"], "d": 10}}, 10, ("composite",),
         r"unknown covariance kind \['identity'\]"),
        ({"family": "mixed_marginals", "cov": {"kind": "ar1", "d": 10, "rho": 0.5}}, 10,
         ("composite",), "mixed_marginals draws untransported coordinates"),
        ({"n": 10**400, "d": 10**400, "cov": {"kind": "identity", "d": 10**400}}, 10,
         ("composite",), "n is too large for a float"),
        ({"family": "mixed_marginals", "d": 10**400, "cov": {"kind": "identity", "d": 10**400}},
         10, ("composite",), "d is too large for a float"),
        ({}, 10, ("range", "range"), "cell 1 lists method 'range' twice"),
        ({}, 10, (), r"cell 1 methods must be a non-empty list, got \(\)"),
        ({}, 0, ("composite",), "cell 1 replications must be at least 1, got 0"),
        ({}, 2.5, ("composite",), r"cell 1 replications must be an integer, got 2\.5"),
        ({}, True, ("composite",), "cell 1 replications must be an integer, got True"),
        ({"name": ["x"]}, 10, ("composite",), r"experiment name must be a string, got \['x'\]"),
    ], ids=["n2", "quasi11", "n3_composite", "n3_range", "negative_n", "float_n", "bool_n",
            "float_d", "bool_d", "d_mismatch", "negative_cov_seed", "float_cov_seed",
            "list_kind", "mixed_on_ar1", "huge_n_d", "huge_mixed_d", "method_twice",
            "no_method", "no_replication", "float_replications", "bool_replications",
            "list_name"])
    def test_cell_that_cannot_run_is_refused_before_any_draw(self, drawn, changes,
                                                             replications, methods, message):
        doc = {**scenario_to_json(GOOD), **changes}
        name = doc.pop("name", "bad")
        with pytest.raises((HdnormError, ValueError), match=message):
            scenario = Scenario(**{**doc, "cov": CovSpec(**doc["cov"])})
            Experiment(name=name, seed=3, alpha=0.05, mc_replications=500,
                       cells=(CellSpec(GOOD, 10), CellSpec(scenario, replications, methods)))
        # The spec reader refuses the same cell with the same message, but for
        # an integral float, which a spec reads as an int (20.0 as 20).
        if not any(type(doc[k]) is float and doc[k].is_integer() for k in ("n", "d")):
            spec = {"name": name,
                    "cells": [{"scenario": scenario_to_json(GOOD), "replications": 10},
                              {"scenario": doc, "replications": replications,
                               "methods": list(methods)}]}
            with pytest.raises((HdnormError, ValueError), match=message):
                experiment_from_json(json.loads(json.dumps(spec)))
        assert drawn == []

    def test_overflowing_sampler_counts_failures(self):
        # dof 0.001 puts infinities in the t draws: each is a failed replication.
        bad = Scenario("multivariate_t", 50, 5, CovSpec("identity", 5), {"dof": 0.001})
        good = Scenario("null_gaussian", 20, 10, CovSpec("identity", 10))
        exp = Experiment(name="t", seed=3, alpha=0.05, mc_replications=500,
                         cells=(CellSpec(bad, 20), CellSpec(good, 10)))
        with np.errstate(divide="ignore"):
            results = run_experiment(exp, threads=1)
        assert results[0].failures == 20 and math.isnan(results[0].rate)
        assert results[1].failures == 0


class TestThreadResolution:
    def test_default_is_the_affinity_mask(self, monkeypatch):
        # Neither the machine's CPU count nor HDNORM_THREADS, which hdnorm
        # once read, sets the default worker count: at "1" it ran no workers.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setenv("HDNORM_THREADS", "1")
        asked = []

        def serial_map(fn, args, workers):
            asked.append(workers)
            return [fn(*a) for a in args]

        monkeypatch.setattr(_cpus, "process_map", serial_map)
        exp = small_experiment()
        assert summarize(run_experiment(exp)) == summarize(run_experiment(exp, threads=1))
        assert asked == [2]

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

    @pytest.mark.parametrize("threads", [1.5, 2.5, 2.0, True])
    def test_threads_not_an_integer_rejected_before_any_draw(self, drawn, threads):
        message = f"threads must be an integer, got {threads!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(small_experiment(), threads=threads)
        assert drawn == []


class TestWorkerProcesses:
    def test_workers_run_one_blas_thread_and_parent_env_is_kept(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        workers = min(2, usable_cpus())
        reports = list(process_map(blas_vars, [(i,) for i in range(8)], workers))
        assert len(reports) == 8
        pids = {pid for pid, _ in reports}
        assert os.getpid() not in pids and len(pids) <= workers
        assert all(env == dict.fromkeys(BLAS_THREAD_VARS, "1") for _, env in reports)
        assert dict(os.environ) == before

    def test_process_with_a_second_thread_spawns(self, monkeypatch):
        methods = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: methods.append(method) or get_context(method))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            reports = list(process_map(blas_vars, [(i,) for i in range(4)], 2))
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and methods == ["spawn"]
        assert all(env == dict.fromkeys(BLAS_THREAD_VARS, "1") for _, env in reports)

    def test_threads_that_cannot_be_counted_mean_spawn(self, monkeypatch):
        def unreadable(path):
            raise FileNotFoundError(path)

        methods = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: methods.append(method) or get_context(method))
        monkeypatch.setattr(os, "listdir", unreadable)
        assert len(list(process_map(blas_vars, [(i,) for i in range(2)], 2))) == 2
        assert methods == ["spawn"]

    @staticmethod
    def list_tasks(monkeypatch, second_leaves_after):
        """List two OS tasks in /proc/self/task until ``second_leaves_after`` seconds pass."""
        listdir, start = os.listdir, time.monotonic()

        def tasks(path="."):
            if path != "/proc/self/task":
                return listdir(path)
            return ["1", "2"] if time.monotonic() - start < second_leaves_after else ["1"]

        monkeypatch.setattr(os, "listdir", tasks)

    def test_fork_once_a_joined_thread_leaves_the_task_list(self, monkeypatch):
        self.list_tasks(monkeypatch, _cpus._THREAD_EXIT_WAIT / 5)
        assert _cpus.fork_is_safe()

    def test_spawn_if_the_task_list_keeps_a_second_thread(self, monkeypatch):
        self.list_tasks(monkeypatch, math.inf)
        start = time.monotonic()
        assert not _cpus.fork_is_safe()
        assert time.monotonic() - start >= _cpus._THREAD_EXIT_WAIT

    def test_every_band_leaves_a_process_that_may_fork(self):
        # Each two-thread band's helper has joined, though its OS thread may
        # still be listed for a few milliseconds.  hdnorm.cli, loaded before
        # numpy, has BLAS run one thread, as in an hdnorm command.
        code = ("import hdnorm.cli\n"
                "from hdnorm import _cpus, montecarlo\n"
                "_cpus.usable_cpus = lambda: 2\n"
                "safe = []\n"
                "for seed in range(300):\n"
                "    montecarlo.null_quasi_range_draws(10, 1, 2 * montecarlo.CHUNK, seed)\n"
                "    safe.append(_cpus.fork_is_safe())\n"
                "print(safe.count(True))")
        assert fresh_python(code) == "300"


@pytest.fixture
def drawn(monkeypatch):
    """The (n, q, m, seed) of every null sample drawn, starting from no memoised band."""
    drawn = []
    real_draws = montecarlo.null_quasi_range_draws

    def counting_draws(n, q, m, seed):
        drawn.append((n, q, m, seed))
        return real_draws(n, q, m, seed)

    monkeypatch.setattr(montecarlo, "null_quasi_range_draws", counting_draws)
    clear_band_memos()
    yield drawn
    clear_band_memos()  # drop the bands built from the counted draws


class TestReplicationMemory:
    # A work unit draws every replication into the sample buffers it allocated
    # once and centres the sample in place, so after the first replication
    # nothing as large as one n x d float array is allocated again (the
    # leptokurtic mask is an n x d boolean array, an eighth of one).  The
    # first may fill caches, such as the transport factor's.
    @pytest.mark.parametrize("family, cov", [
        ("null_gaussian", CovSpec("identity", 4000)),
        ("mixed_marginals", CovSpec("identity", 4000)),
        ("leptokurtic", CovSpec("ar1", 400, rho=0.5)),
    ])
    def test_later_replications_allocate_less_than_one_sample(self, monkeypatch, family, cov):
        n, d = 50, cov.d
        exp = Experiment("memory", 3, 0.05, 100,
                         (CellSpec(Scenario(family, n, d, cov), 4, ("composite",)),))
        rules = harness._cell_rules(exp)[0]
        sample, marks = harness.sample_scenario, []

        def marked(*args):
            marks.append(tracemalloc.get_traced_memory())  # (current, peak since the last mark)
            tracemalloc.reset_peak()
            return sample(*args)

        monkeypatch.setattr(harness, "sample_scenario", marked)
        tracemalloc.start()
        try:
            _, _, failures, _ = _run_unit(exp, 0, 0, 4, rules)
            marks.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert failures == 0 and len(marks) == 5
        # Replication r runs from mark r to mark r + 1.
        growth = [marks[r + 1][1] - marks[r][0] for r in range(1, 4)]
        assert max(growth) < n * d * 8

    def test_one_transport_factor_is_kept(self):
        # A process runs one cell's units back to back, so each cell factors
        # its covariance once and no earlier cell's d x d factor stays alive.
        covs = (CovSpec("ar1", 30, rho=0.5), CovSpec("sparse_random", 30),
                CovSpec("wishart", 30))
        cells = tuple(CellSpec(Scenario("null_gaussian", 20, 30, cov), 8) for cov in covs)
        generators._factor.cache_clear()
        run_experiment(Experiment("factors", 5, 0.05, 100, cells), threads=1)
        info = generators._factor.cache_info()
        assert (info.currsize, info.misses) == (1, len(covs))

    # Runs 10**12 replications at argv[1] workers with every work unit after a
    # cell's first made an error, and prints that error and whether the run
    # ended within a second.  A run that listed its work units before the
    # first draw would need about 10**12 / 64 of them; the address-space limit
    # makes that a MemoryError instead of exhausting the machine's memory.
    HUGE_RUN = """\
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import hdnorm.cli
from hdnorm import CovSpec, Scenario, harness
run_unit = harness._run_unit

def fail_after_first(exp, ci, lo, hi, rules):
    if lo > 0:
        raise RuntimeError("a later unit")
    return run_unit(exp, ci, lo, hi, rules)

harness._run_unit = fail_after_first
cell = harness.CellSpec(Scenario("null_gaussian", 20, 5, CovSpec("identity", 5)), 10**12)
start = time.monotonic()
try:
    harness.run_experiment(harness.Experiment("huge", 1, 0.05, 100, (cell,)), int(sys.argv[1]))
except RuntimeError as exc:
    print(exc, time.monotonic() - start < 1.0)
"""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_work_units_are_made_as_they_run(self, threads):
        assert fresh_python(self.HUGE_RUN, str(threads)) == "a later unit True"


class TestBandsBuiltOnce:
    def test_parent_draws_each_cell_band_once_and_workers_only_read(self, monkeypatch, drawn):
        monkeypatch.setattr(_cpus, "usable_cpus", lambda: 2)
        seen = {}

        def spy(fn, args, workers):
            seen.update(workers=workers, units=[])
            units = (seen["units"].append(a) or (fn.args[0], *a) for a in args)
            return process_map(unit_without_draws, units, workers)

        monkeypatch.setattr(_cpus, "process_map", spy)
        exp = small_experiment(methods=("composite", "squared"))
        single = CellSpec(exp.cells[0].scenario, 60, ("range", "iqr", "quasi:2"))
        exp = dataclasses.replace(exp, cells=exp.cells + (single,))
        results = run_experiment(exp, threads=2)

        # The composite and squared cells share one band, q = 1 at alpha/2;
        # the third cell needs q = 1 for "range" and q = 2 for "quasi:2", both
        # at alpha.  The IQR band is closed form.
        assert seen["workers"] == 2
        assert sorted((n, q) for n, q, _, _ in drawn) == [(40, 1), (40, 1), (40, 1), (40, 2)]
        assert len(drawn) == len(set(drawn))
        cell_rules = harness._cell_rules(exp)
        assert len(seen["units"]) == 24  # 8 units of 8 or fewer replications per cell
        assert all(rules == cell_rules[ci] for ci, _, _, rules in seen["units"])
        assert cell_rules[0]["composite"].bands == cell_rules[0]["squared"].bands
        strip = lambda rs: [(r.cell_index, r.method, r.rejections, r.failures) for r in rs]
        assert strip(results) == strip(run_experiment(exp, threads=1))
        assert len(drawn) == 4

        # Each tally is the method's own decision summed over the cell's draws.
        for r in results:
            settings = cell_rules[r.cell_index][r.method].settings
            rule = lookup_method(r.method).at(r.scenario.n, settings)
            reports = [montecarlo.composite_from_summary(radial_summary(sample_scenario(
                r.scenario, hrng.substream(exp.seed, hrng.DOMAIN_DATA, r.cell_index, i))),
                rule) for i in range(r.replications)]
            assert r.failures == 0 and r.rejections == sum(rep.reject for rep in reports)
        assert len(drawn) == 4

    def test_levels_of_a_cell_share_one_draw(self, drawn):
        # "composite" decides its range at alpha/2, "range" at alpha.
        exp = small_experiment(methods=("composite", "range"))
        rules = harness._cell_rules(exp)
        assert len(rules) == 2 and len(drawn) == len(set(drawn)) == 2
        assert all(cell["composite"].bands[0] != cell["range"].bands[0] for cell in rules)
        for ci, cell in enumerate(rules):
            seed = hrng.derive_seed(exp.seed, hrng.DOMAIN_NULL_RANGE, ci)
            settings = McSettings(500, seed, 0.05)
            for m, rule in cell.items():
                clear_band_memos()
                assert (rule.method, rule.n, rule.settings) == (lookup_method(m), 40,
                                                                settings)
                assert rule == rule.method.at(40, settings)
        assert len(drawn) == 6


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
        with pytest.raises(ValueError, match="at least one trial"):
            binomial_ci(0, 0)


class TestSummarize:
    def test_single_cell_csv(self):
        results = run_experiment(small_experiment(), threads=2)
        text = summarize(results[:1])
        lines = text.strip().split("\n")
        assert lines[0].startswith("family,cov,n,d,method")
        assert len(lines) == 2

    def test_rows_sorted_by_key(self):
        ident20 = CovSpec("identity", 20)
        ident10 = CovSpec("identity", 10)
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

    def test_numpy_numbers_give_the_plain_files(self):
        # Such an experiment once ran its whole sweep, then raised a TypeError in
        # results_jsonl on its first numpy integer.
        plain = run_experiment(small_experiment(real=lambda x: float(np.float32(x))), threads=1)
        numpy = run_experiment(small_experiment(integer=np.int64, real=np.float32), threads=1)
        assert summarize(numpy) == summarize(plain)
        # Each record as JSON writes it, but for its timing: an int is not written as a float.
        records = [[json.dumps({**json.loads(line), "wall_time": None}, sort_keys=True)
                    for line in results_jsonl(results).splitlines()] for results in (plain, numpy)]
        assert records[1] == records[0]


# A spec that reads, with a parameter of each kind (a power of d, a list, a
# flag, a plain number) and each covariance parameter.
VALID_SPEC = {
    "name": "any", "seed": 1, "alpha": 0.05, "mc_replications": 200, "replications": 3,
    "cells": [
        {"scenario": {"family": "loc_mixture", "n": 20, "d": 5,
                      "cov": {"kind": "ar1", "d": 5, "rho": 0.5},
                      "params": {"shift_exponent": -0.25, "weights": [0.3, 0.7]}},
         "replications": 2, "methods": ["composite", "quasi:2"]},
        {"scenario": {"family": "chisq_marginals", "n": 8, "d": 4,
                      "cov": {"kind": "sparse_random", "d": 4, "density": 0.5, "jitter": 0.1,
                              "seed": 2},
                      "params": {"dof": 3.0, "standardize": True}}},
        {"scenario": {"family": "multivariate_t", "n": 6, "d": 3,
                      "cov": {"kind": "geom_decay", "d": 3, "rate": 0.9},
                      "params": {"dof_coeff": 2.0}}, "methods": ["range"]},
        {"scenario": {"family": "mixed_marginals", "n": 6, "d": 6,
                      "cov": {"kind": "identity", "d": 6}, "params": {"t_fraction": 0.5}}},
    ],
}


def _paths(doc, path=()):
    """The path of ``doc`` and of every object and value inside it."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, (*path, key))


# Each position takes one value: a path, or a scenario's d with its covariance's.
POSITIONS = [(path,) for path in _paths(VALID_SPEC)] + [
    (("cells", i, "scenario", "d"), ("cells", i, "scenario", "cov", "d"))
    for i in range(len(VALID_SPEC["cells"]))]
# Any JSON value, with integers beyond a float's range and NaN and the infinities.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**500, 10**500) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)


def _with(doc, paths, value):
    """A copy of ``doc`` with ``value`` at each of ``paths``."""
    box = [json.loads(json.dumps(doc))]
    for path in paths:
        *parents, last = (0, *path)
        target = box
        for key in parents:
            target = target[key]
        target[last] = value
    return box[0]


class TestJsonSpecs:
    # Before n and d were checked to fit a float, a huge n overflowed in the
    # IQR contrast's sqrt(n), and a huge mixed_marginals d in t_fraction * d.
    @settings(max_examples=500, deadline=None)
    @given(position=st.sampled_from(POSITIONS), value=JSON_VALUES)
    @example(position=(("cells", 0, "scenario", "n"),), value=10**400)
    @example(position=POSITIONS[-1], value=10**400)  # the mixed_marginals cell's d
    def test_any_json_value_reads_or_is_refused(self, position, value):
        assert len(experiment_from_json(VALID_SPEC).cells) == 4  # the spec changed reads
        try:
            exp = experiment_from_json(_with(VALID_SPEC, position, value))
        except (ValueError, HdnormError):
            return
        assert isinstance(exp, Experiment)

    def test_cov_round_trip(self):
        # Every kind, with its defaults filled in; the seed is written only when set.
        docs = {
            "identity": {"kind": "identity", "d": 8},
            "ar1": {"kind": "ar1", "d": 8, "rho": 0.9},
            "sparse_random": {"kind": "sparse_random", "d": 8, "density": 0.02, "jitter": 0.05},
            "wishart": {"kind": "wishart", "d": 8},
            "geom_decay": {"kind": "geom_decay", "d": 8, "rate": 0.93},
        }
        assert list(docs) == list(generators.COV_KINDS)
        for (kind, doc), seed in itertools.product(docs.items(), (0, 7)):
            spec = CovSpec(kind, 8, rho=0.9 if kind == "ar1" else None, seed=seed)
            assert cov_to_json(spec) == ({**doc, "seed": seed} if seed else doc)
            assert cov_from_json(cov_to_json(spec)) == spec

    def test_scenario_round_trip(self):
        s = Scenario("loc_mixture", 50, 20, CovSpec("identity", 20),
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

    def test_cells_take_every_method_name(self):
        doc = {"cells": [{"scenario": {"family": "null_gaussian", "n": 20, "d": 10,
                                       "cov": {"kind": "identity", "d": 10}},
                          "methods": [*METHODS, "quasi:3"]}]}
        assert experiment_from_json(doc).cells[0].methods == (*METHODS, "quasi:3")
        for bad in ("quasi:0", "quasi:x", "quasi:02", "quasi"):
            doc["cells"][0]["methods"] = [bad]
            with pytest.raises(ValueError, match="unknown method"):
                experiment_from_json(doc)


class TestPowerMonotone:
    def test_loc_mixture_power_monotone_in_separation(self):
        full_shift = 2.15 * 300 ** -0.25
        cells = tuple(
            CellSpec(Scenario("loc_mixture", 100, 300, CovSpec("identity", 300),
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
