import dataclasses
import hashlib
import json
import math
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from conftest import (
    REPORT_SCHEMA,
    clear_band_memos,
    fresh_python,
    gaussian_data,
    null_scenario,
    rejection_rate,
)
from oracles import null_chunk_oracle
from hdnorm import (
    CovSpec,
    McSettings,
    Scenario,
    composite_test,
    mc_quantiles,
    norm_constants,
    null_quasi_range_draws,
    radial_summary,
)
from hdnorm import InvalidQuantileOrder, TooFewSamples
from hdnorm import _cpus, montecarlo
from hdnorm import rng as hrng
from hdnorm.methods import METHODS, lookup_method
from hdnorm.montecarlo import CHUNK, composite_from_summary, empirical_quantile
from hdnorm.teststats import statistics

EULER_GAMMA = 0.5772156649015329


def expected_normal_max(n: int) -> float:
    """Quadrature oracle for E[max of n iid standard normals]."""
    value, _ = quad(lambda x: x * n * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
                    * ndtr(x) ** (n - 1), -12.0, 12.0, limit=200)
    return value


class TestNullSample:
    def test_mean_range_matches_quadrature_oracle(self):
        n = 100
        expected_range = 2.0 * expected_normal_max(n)
        assert expected_range == pytest.approx(5.0152, abs=5e-4)  # published table value
        c = norm_constants(n)
        draws = null_quasi_range_draws(n, 1, 1_000_000, seed=31)
        ranges = (draws + 2.0 * c.a_n * c.b_n) / c.a_n
        assert float(ranges.mean()) == pytest.approx(expected_range, abs=0.01)

    def test_identical_seeds_identical_sequences(self):
        a = null_quasi_range_draws(60, 2, 9000, seed=4)
        b = null_quasi_range_draws(60, 2, 9000, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, null_quasi_range_draws(60, 2, 9000, seed=5))

    def test_stream_matches_batch(self):
        # Requesting one more draw at a time yields the batch, draw by draw.
        singles = [null_quasi_range_draws(50, 3, j + 1, seed=11)[j] for j in range(200)]
        batch = null_quasi_range_draws(50, 3, 200, seed=11)
        assert np.array_equal(np.asarray(singles), batch)
        with pytest.raises(InvalidQuantileOrder):
            null_quasi_range_draws(50, 26, 200, seed=11)

    # Neither a bool nor a float counts as a draw count or a seed.
    @pytest.mark.parametrize("m, seed, message", [
        (50, True, "seed must be an integer, got True"),
        (True, 1, "m must be an integer, got True"),
        (50.0, 1, "m must be an integer, got 50.0"),
        (50, 1.0, "seed must be an integer, got 1.0"),
        (0, 1, "m must be at least 1, got 0"),
        (50, -1, "seed must be at least 0, got -1"),
    ], ids=["50-True", "True-1", "50.0-1", "50-1.0", "0-1", "50--1"])
    def test_draw_count_and_seed_are_integers(self, m, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            null_quasi_range_draws(10, 1, m, seed)

    def test_partition_independence_across_chunks(self):
        # Draw j is a pure function of (seed, j): a longer request must extend
        # a shorter one without disturbing it, including across the chunk edge.
        short = null_quasi_range_draws(20, 1, CHUNK, seed=13)
        longer = null_quasi_range_draws(20, 1, CHUNK + 17, seed=13)
        assert np.array_equal(longer[:CHUNK], short)
        for j in range(CHUNK - 3, CHUNK + 3):
            assert null_quasi_range_draws(20, 1, j + 1, seed=13)[j] == longer[j]

    def test_gumbel_convolution_limit(self):
        # The normalized range converges to the convolution of two standard
        # Gumbel laws, whose mean is 2 * EulerGamma; convergence is slow, so
        # even at n = 10^6 the exact mean sits about 0.14 below the limit.
        gumbel_mean, _ = quad(lambda x: x * math.exp(-x - math.exp(-x)), -8.0, 30.0, limit=200)
        assert gumbel_mean == pytest.approx(EULER_GAMMA, abs=1e-9)
        n = 1_000_000
        c = norm_constants(n)
        exact = 2.0 * c.a_n * (expected_normal_max(n) - c.b_n)
        assert exact == pytest.approx(2.0 * EULER_GAMMA, abs=0.25)
        gap_small = abs(2.0 * norm_constants(1000).a_n
                        * (expected_normal_max(1000) - norm_constants(1000).b_n)
                        - 2.0 * EULER_GAMMA)
        assert abs(exact - 2.0 * EULER_GAMMA) < gap_small
        # The sampler agrees with the quadrature mean to Monte-Carlo accuracy.
        draws = null_quasi_range_draws(n, 1, 200, seed=17)
        se = float(draws.std()) / math.sqrt(len(draws))
        assert abs(float(draws.mean()) - exact) <= 4.0 * se


class TestGoldenValues:
    """The Philox-substream contract pinned to recorded values."""

    # substream(seed, *path).random(4), recorded from Philox(key=...) keyed by
    # SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64).
    @pytest.mark.parametrize("seed, path, values", [
        (0, (), [0.014067035665647709, 0.2577672456246177, 0.47156538101528966,
                 0.0914196711073687]),
        (1, (2, 0, 7), [0.012094651977585302, 0.5129314993669627, 0.5419966204191934,
                        0.5092768977288933]),
        (2024, (1, 100, 1, 3), [0.19873803922365085, 0.40007489050394474,
                                0.2967329188832565, 0.8859449417246642]),
        (2 ** 63, (4,), [0.4313408506379055, 0.18733416948575854, 0.7601733189143722,
                         0.8660298557900871]),
        (7, (3, 1, 300), [0.40750465266288294, 0.42489052632021007, 0.43144727059224164,
                          0.7543532984367955]),
    ])
    def test_substream(self, seed, path, values):
        assert hrng.substream(seed, *path).random(4).tolist() == values

    def test_bands(self):
        assert mc_quantiles(100, 1, McSettings(10000, seed=0, alpha=0.025)) == (
            -2.7245287299102205, 5.628659672899053)
        assert mc_quantiles(60, 3, McSettings(10000, seed=7, alpha=0.05)) == (
            -4.70167613138563, -0.31390029603002034)

    def test_rules_hold_the_pinned_bands(self):
        # Each sub-test of a rule runs at alpha/k: the composite range band is
        # the alpha = 0.025 pin above.
        rule = METHODS["composite"].at(100, McSettings(10000, seed=0, alpha=0.05))
        assert rule.bands == ((-2.7245287299102205, 5.628659672899053),
                              (-3.5266959874871935, 3.526695987487196))
        assert (rule.n, rule.level) == (100, 0.025)
        rule = lookup_method("quasi:3").at(60, McSettings(10000, seed=7, alpha=0.05))
        assert rule.bands == ((-4.70167613138563, -0.31390029603002034),)
        assert (rule.n, rule.level) == (60, 0.05)

    @pytest.mark.parametrize("args,digest", [
        ((100, 1, 10000, 0),
         "8496db90502d0f81005637c865d8745468bb360da4636d1bca6df80c39bc87c5"),
        ((50, 3, 2 * CHUNK + 17, 11),
         "652cc1ff78be1aa7c477dc84aa785f18a6bf67077be5389c1f917573265559c5"),
    ])
    @pytest.mark.parametrize("cpus", [1, 2, 8])
    # Batches of one row, of an odd row count, and of the default size.
    @pytest.mark.parametrize("batch_rows", [1, 37, None])
    def test_draw_digests_at_any_thread_count(self, monkeypatch, args, digest, cpus,
                                              batch_rows):
        monkeypatch.setattr(_cpus, "usable_cpus", lambda: cpus)
        if batch_rows is not None:
            n = args[0]
            monkeypatch.setattr(montecarlo, "_BATCH_ELEMENTS", batch_rows * n + n // 2)
        draws = null_quasi_range_draws(*args)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == digest

    def test_threads_never_share_a_batch_buffer(self, monkeypatch):
        # Eight band threads on small batches, switching often: a buffer that
        # two chunks fill at once would mix their uniforms.
        n, q, m = 50, 2, 16 * CHUNK
        monkeypatch.setattr(montecarlo, "_BATCH_ELEMENTS", 7 * n)
        monkeypatch.setattr(_cpus, "usable_cpus", lambda: 1)
        expected = null_quasi_range_draws(n, q, m, 3)
        monkeypatch.setattr(_cpus, "usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            draws = null_quasi_range_draws(n, q, m, 3)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(draws, expected)

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "helper"])
    def test_an_error_on_any_thread_reaches_the_caller_after_every_join(self, monkeypatch,
                                                                       failing):
        # At 2 CPUs the calling thread draws the even chunks and a helper the odd.
        real_chunk = montecarlo._null_chunk

        def chunk(n, q, seed, chunk_index, out, buffer):
            if chunk_index == failing:
                raise MemoryError(f"chunk {chunk_index}")
            real_chunk(n, q, seed, chunk_index, out, buffer)

        monkeypatch.setattr(_cpus, "usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_null_chunk", chunk)
        before = threading.enumerate()
        with pytest.raises(MemoryError, match=f"chunk {failing}"):
            null_quasi_range_draws(30, 1, 4 * CHUNK, 2)
        assert threading.enumerate() == before

    def test_a_band_on_two_threads_loads_no_executor(self):
        code = ("import sys\nfrom hdnorm import _cpus, montecarlo\n"
                "_cpus.usable_cpus = lambda: 2\n"
                "montecarlo.null_quasi_range_draws(30, 1, 3 * montecarlo.CHUNK, 0)\n"
                "print([m for m in ('concurrent.futures', 'queue') if m in sys.modules])")
        assert fresh_python(code) == "[]"

    def test_chunk_works_in_its_buffer(self):
        # At n = 2000 a chunk takes 128 batches of 32 rows; the uniforms, the
        # partition and the order statistics all stay in the buffer.  The bound
        # is a quarter of the buffer, so a copy of one batch exceeds it.
        n, q = 2000, 3
        buffer = np.empty((montecarlo._BATCH_ELEMENTS // n, n))
        expected, draws = np.empty(CHUNK), np.empty(CHUNK)
        montecarlo._null_chunk(n, q, 5, 0, expected, buffer)
        tracemalloc.start()
        try:
            montecarlo._null_chunk(n, q, 5, 0, draws, buffer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < buffer.nbytes // 4
        assert np.array_equal(draws, expected)

    # (3000, 1) splits each chunk into several generation batches.
    @pytest.mark.parametrize("n,q,tail", [(100, 1, 100), (50, 3, 100), (3000, 1, 5)])
    def test_draws_match_partition_reference(self, n, q, tail):
        # The reference partitions the normals themselves; the sampler selects
        # among the uniforms first and must give the same bits.
        seed = 21
        c = norm_constants(n)
        parts = []
        for chunk_index, count in enumerate((CHUNK, tail)):
            gen = hrng.substream(seed, hrng.DOMAIN_NULL_RANGE, n, q, chunk_index)
            part = np.partition(hrng.standard_normal(gen, (count, n)), (q - 1, n - q), axis=1)
            parts.append(c.a_n * (part[:, n - q] - part[:, q - 1]) - 2.0 * c.a_n * c.b_n)
        draws = null_quasi_range_draws(n, q, CHUNK + tail, seed)
        assert np.array_equal(draws, np.concatenate(parts))


    # n in {4, 5, 100, 1000} and q in {1, 2, n // 4}: a whole chunk in batches
    # of the default size, and a shorter one in batches of 7 rows, the last
    # of 6.  "zeros" makes every uniform below 0.3 an exact 0.0, so the floor
    # lifts the selected order statistics of many rows.
    @pytest.mark.parametrize("n,q", [(n, q) for n in (4, 5, 100, 1000)
                                     for q in sorted({1, 2, n // 4})])
    @pytest.mark.parametrize("count,rows", [(CHUNK, None), (300, 7)])
    @pytest.mark.parametrize("zeros", [False, True], ids=["philox", "zeros"])
    def test_chunk_matches_the_floor_everything_oracle(self, monkeypatch, n, q, count, rows,
                                                       zeros):
        substream = hrng.substream

        def stream(*key):
            return ZeroedUniforms(substream(*key)) if zeros else substream(*key)

        monkeypatch.setattr(hrng, "substream", stream)
        key = (9, hrng.DOMAIN_NULL_RANGE, n, q, 2)
        buffer = np.empty((rows or min(CHUNK, montecarlo._BATCH_ELEMENTS // n), n))
        draws = np.empty(count)
        montecarlo._null_chunk(n, q, 9, 2, draws, buffer)
        assert draws.tobytes() == null_chunk_oracle(n, q, stream(*key), count).tobytes()
        selected = np.partition(stream(*key).random((count, n)), q - 1, axis=1)[:, q - 1]
        assert (selected == 0.0).any() == zeros


class ZeroedUniforms:
    """A generator whose uniforms below 0.3 are exact zeros."""

    def __init__(self, gen):
        self.gen = gen

    def random(self, shape, out=None):
        u = self.gen.random(shape, out=out)
        u[u < 0.3] = 0.0
        return u


class TestQuantiles:
    def test_inf_convention_on_small_sample(self):
        values = np.arange(1.0, 101.0)  # sorted 1..100
        assert empirical_quantile(values, 0.025) == 3.0   # smallest i with i/100 >= 0.025
        assert empirical_quantile(values, 0.975) == 98.0
        assert empirical_quantile(values, 0.01) == 1.0
        assert empirical_quantile(values, 1.0) == 100.0

    def test_mc_quantiles_use_convention(self):
        settings = McSettings(replications=100, seed=2, alpha=0.05)
        sample = np.sort(null_quasi_range_draws(30, 1, 100, seed=2))
        lower, upper = mc_quantiles(30, 1, settings)
        assert lower == sample[2] and upper == sample[97]

    @pytest.mark.parametrize("n,m,alpha", [(20, 1000, 0.2), (100, 5000, 0.05), (250, 1000, 0.1)])
    def test_bands_are_ordered(self, n, m, alpha):
        lower, upper = mc_quantiles(n, 1, McSettings(replications=m, seed=1, alpha=alpha))
        assert lower < upper

    def test_stability_across_seeds(self):
        pairs = [mc_quantiles(100, 1, McSettings(replications=100_000, seed=s, alpha=0.05))
                 for s in (1, 2, 3)]
        lows, highs = zip(*pairs)
        assert max(lows) - min(lows) <= 0.05
        assert max(highs) - min(highs) <= 0.05

    def test_band_is_memoised(self, monkeypatch):
        clear_band_memos()
        drawn = []
        real_draws = montecarlo.null_quasi_range_draws

        def counting_draws(*args):
            drawn.append(args)
            return real_draws(*args)

        monkeypatch.setattr(montecarlo, "null_quasi_range_draws", counting_draws)
        settings = McSettings(replications=1000, seed=41, alpha=0.05)
        band = mc_quantiles(30, 1, settings)
        assert drawn == [(30, 1, 1000, 41)]
        assert mc_quantiles(30, 1, settings) == band
        # Another level of the same sample is a new band read off the kept sample.
        sample = montecarlo._sorted_null(30, 1, 1000, 41)
        assert not sample.flags.writeable
        other = dataclasses.replace(settings, alpha=0.2)
        assert mc_quantiles(30, 1, other) == (empirical_quantile(sample, 0.1),
                                              empirical_quantile(sample, 0.9)) != band
        assert drawn == [(30, 1, 1000, 41)]
        clear_band_memos()
        assert mc_quantiles(30, 1, settings) == band
        assert len(drawn) == 2

    def test_a_float_or_bool_size_or_order_is_refused_once_its_band_is_kept(self):
        # The memo is typed: the kept q = 1 band of n = 10 answers for neither
        # 1.0 nor True, and no float or bool reaches a band.
        settings = McSettings(replications=1000, seed=8, alpha=0.05)
        bad = [((10, 1.0), InvalidQuantileOrder), ((10.0, 1), TypeError),
               ((10, True), InvalidQuantileOrder)]
        clear_band_memos()
        for kept in (False, True):
            for args, error in bad:
                with pytest.raises(error):
                    mc_quantiles(*args, settings)
            mc_quantiles(10, 1, settings)

    def test_quantile_error_decays_with_m(self):
        m = 1000
        for seed in (3, 4):
            small = mc_quantiles(100, 1, McSettings(replications=m, seed=seed, alpha=0.05))
            large = mc_quantiles(100, 1, McSettings(replications=100 * m, seed=seed, alpha=0.05))
            for a, b in zip(small, large):
                assert abs(a - b) < 10.0 / math.sqrt(m)


class TestDecisions:
    def test_boundary_hits_accept(self):
        settings = McSettings(replications=1000, seed=6, alpha=0.05)
        rs = radial_summary(gaussian_data(6, 40, 30))
        value, = statistics(rs, (1,))
        rule = METHODS["range"].at(40, settings)

        def rejects(lower, upper):
            report = composite_from_summary(rs, rule._replace(bands=((lower, upper),)))
            assert report.values == (value,)
            return report.reject

        below, above = math.nextafter(value, -math.inf), math.nextafter(value, math.inf)
        assert not rejects(value, value + 1.0)
        assert not rejects(value - 1.0, value)
        assert not rejects(value, value)
        assert rejects(above, value + 1.0)
        assert rejects(value - 1.0, below)

    def test_quasi_range_decision_uses_matching_null_sample(self, rng_fixture):
        settings = McSettings(replications=2000, seed=14, alpha=0.05)
        rs = radial_summary(gaussian_data(3, 60, 40))
        method = lookup_method("quasi:3")
        decision = composite_from_summary(rs, method.at(60, settings)).to_dict()["quasi_range"]
        assert (decision["value"], decision["q"]) == (statistics(rs, (3,))[0], 3)
        assert (decision["lower"], decision["upper"]) == mc_quantiles(60, 3, settings)
        assert (decision["lower"], decision["upper"]) != mc_quantiles(60, 1, settings)

    def test_iqr_band_is_symmetric_sigma_star_scaled(self):
        settings = McSettings(replications=1000, seed=1, alpha=0.05)
        (lower, upper), = METHODS["iqr"].at(30, settings).bands
        assert upper == pytest.approx(3.083871111053238, abs=1e-12)
        assert lower == pytest.approx(-upper, abs=1e-12)

    def test_range_subtest_size_at_half_alpha(self):
        settings = McSettings(replications=10000, seed=55, alpha=0.05)
        rule = METHODS["composite"].at(100, settings)
        rejections = 0
        reps = 10000
        for seed in range(reps):
            rs = radial_summary(gaussian_data(seed, 100, 20))
            report = composite_from_summary(rs, rule)
            assert report.rule.level == settings.alpha / 2
            rejections += report.rejects[0]
        assert rejections / reps == pytest.approx(0.025, abs=0.008)

    def test_iqr_subtest_size_at_half_alpha(self):
        settings = McSettings(replications=10000, seed=56, alpha=0.05)
        rule = METHODS["composite"].at(150, settings)
        rejections = 0
        reps = 10000
        for seed in range(reps):
            rs = radial_summary(gaussian_data(10_000_000 + seed, 150, 300))
            report = composite_from_summary(rs, rule)
            assert report.rule.level == settings.alpha / 2
            rejections += report.rejects[1]
        assert rejections / reps == pytest.approx(0.025, abs=0.01)


class TestComposite:
    def test_report_is_deterministic_and_consistent(self):
        X = gaussian_data(9, 60, 80)
        settings = McSettings(replications=2000, seed=3, alpha=0.05)
        r1 = composite_test(X, settings)
        r2 = composite_test(X, settings)
        assert r1 == r2
        doc = r1.to_dict()
        assert [key for key in doc if key in ("range", "iqr")] == ["range", "iqr"]
        assert r1.reject == (doc["range"]["reject"] or doc["iqr"]["reject"])
        assert doc["range"]["level"] == pytest.approx(0.025)
        assert doc["iqr"]["level"] == pytest.approx(0.025)

    def test_null_size_ar1_covariance(self):
        scenario = Scenario(family="null_gaussian", n=100, d=100,
                            cov=CovSpec("ar1", 100, rho=0.5))
        settings = McSettings(replications=10000, seed=8, alpha=0.05)
        rate = rejection_rate(scenario, 2000, settings, seed=81)
        assert rate == pytest.approx(0.049, abs=0.015)

    def test_squared_composite_size_inflated_at_small_d(self):
        # The squared-radii composite over-rejects in small dimension even
        # with an identity covariance (reported near 0.07 at n=100, d=20).
        settings = McSettings(replications=10000, seed=12, alpha=0.05)
        rate = rejection_rate(null_scenario(100, 20), 10000, settings, seed=90, method="squared")
        assert 0.055 <= rate <= 0.09

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            McSettings(replications=50, seed=0, alpha=0.05)
        with pytest.raises(ValueError):
            McSettings(replications=1000, seed=0, alpha=1.5)
        with pytest.raises(ValueError):
            McSettings(replications=1000, seed=-1, alpha=0.05)
        # The settings key the band memo, so a value of the wrong type is refused.
        for field, value, named in [
            ("replications", 500.5, "replications must be an integer, got 500.5"),
            ("replications", 1000.0, "replications must be an integer, got 1000.0"),
            ("replications", True, "replications must be an integer, got True"),
            ("replications", "1000", "replications must be an integer, got '1000'"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", True, "seed must be an integer, got True"),
            ("alpha", True, "alpha must be a real number, got True"),
            ("alpha", "0.05", "alpha must be a real number, got '0.05'"),
            ("alpha", None, "alpha must be a real number, got None"),
            ("replications", 99, "Monte-Carlo replications must be at least 100, got 99"),
            ("seed", -1, "seed must be at least 0, got -1"),
        ]:
            fields = {"replications": 1000, "seed": 1, "alpha": 0.05, field: value}
            with pytest.raises(ValueError, match=re.escape(named)):
                McSettings(**fields)
        assert McSettings(replications=100, seed=0).replications == 100  # the bounds themselves pass

    # Each is kept as the plain numbers it equals.  The last three once raised a TypeError:
    # json.dumps on a numpy integer or a Fraction, and Fraction() on the float32 alpha
    # inside empirical_quantile, before any decision.
    @pytest.mark.parametrize("settings, plain", [
        (McSettings(np.int64(1000), np.uint32(3), np.float64(0.1)), McSettings(1000, 3, 0.1)),
        (McSettings(np.int64(1000), np.int64(3)), McSettings(1000, 3)),
        (McSettings(1000, 3, np.float32(0.05)), McSettings(1000, 3, float(np.float32(0.05)))),
        (McSettings(1000, 3, Fraction(1, 20)), McSettings(1000, 3, 0.05)),
    ], ids=["numpy_numbers", "int64_counts", "float32_alpha", "fraction_alpha"])
    def test_numpy_numbers_are_settings(self, settings, plain):
        assert settings == plain
        assert list(map(type, dataclasses.astuple(settings))) == [int, int, float]
        X = gaussian_data(3, 30, 40)
        clear_band_memos()
        expected = json.dumps(composite_test(X, plain).to_dict())
        misses = montecarlo._sorted_null.cache_info().misses
        assert json.dumps(composite_test(X, settings).to_dict()) == expected
        # The same plain memo key, so the kept draw serves both.
        assert montecarlo._sorted_null.cache_info().misses == misses

    def test_composite_from_summary_needs_a_band_per_sub_test(self):
        settings = McSettings(replications=1000, seed=1, alpha=0.05)
        rs = radial_summary(gaussian_data(5, 30, 40))
        bands = METHODS["range"].at(30, settings).bands
        rule = METHODS["composite"].at(30, settings)._replace(bands=bands)
        with pytest.raises(ValueError):
            composite_from_summary(rs, rule)

    def test_composite_from_summary_refuses_a_rule_for_another_n(self):
        settings = McSettings(replications=1000, seed=1, alpha=0.05)
        rs = radial_summary(gaussian_data(5, 100, 40))
        rule = METHODS["composite"].at(60, settings)
        with pytest.raises(ValueError, match="calibrated for n=60 cannot decide a sample of n=100"):
            composite_from_summary(rs, rule)
        report = composite_from_summary(rs, METHODS["composite"].at(100, settings))
        assert report.to_dict()["n"] == 100

    @pytest.mark.parametrize("name", [*sorted(METHODS), "quasi:2"])
    def test_report_holds_the_rule_that_decided_it(self, name):
        rule = lookup_method(name).at(30, McSettings(replications=500, seed=4))
        rs = radial_summary(gaussian_data(6, 30, 40))
        report = composite_from_summary(rs, rule)
        assert report.rule is rule
        assert len(report.rejects) == len(report.values) == len(rule.method.orders)
        assert report.reject == any(report.rejects)
        doc = report.to_dict()
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert (doc["alpha"], doc["mc_replications"], doc["seed"]) == (0.05, 500, 4)
        assert doc["squared"] is (name == "squared")
        assert (doc["schema_version"], doc["statistics"]) == (1, name.split(":")[0])
        assert [doc[key]["reject"] for key in rule.method.keys] == list(report.rejects)
        # A numpy n and settings give the same rule, with n a plain int, and the same bytes.
        numpy_rule = lookup_method(name).at(np.int64(30), McSettings(np.int64(500), np.int64(4)))
        assert numpy_rule == rule and type(numpy_rule.n) is int
        numpy_doc = composite_from_summary(rs, numpy_rule).to_dict()
        assert json.dumps(numpy_doc) == json.dumps(doc)

    # A bool or a float, even an integral one, is no sample size, for any method.
    @pytest.mark.parametrize("n, error", [(True, TypeError), (10.0, TypeError),
                                          ("x", TypeError), (-5, TooFewSamples)])
    @pytest.mark.parametrize("name", [*sorted(METHODS), "quasi:1"])
    def test_a_rule_refuses_an_n_that_is_no_sample_size(self, name, n, error):
        with pytest.raises(error):
            lookup_method(name).at(n, McSettings(replications=500, seed=4))

    def test_needs_four_rows(self):
        from hdnorm import DataMatrix

        X = DataMatrix.from_array(np.eye(3))
        with pytest.raises(TooFewSamples):
            composite_test(X, McSettings(replications=500, seed=0, alpha=0.05))


VALUE_RECORDS = ("DataMatrix", "DispersionEstimate", "_Moments", "RadialSummary",
                 "NormConstants", "Contrast", "Method", "Rule", "TestReport",
                 "CellResult")


def value_records():
    """One of each record that only holds values, by type name, from a decision
    on a small sample."""
    from hdnorm.harness import CellResult
    from hdnorm.moments import _moments
    from hdnorm.teststats import contrast

    X = gaussian_data(2, 30, 40)
    rule = METHODS["composite"].at(30, McSettings(replications=500, seed=2))
    rs = radial_summary(X)
    report = composite_from_summary(rs, rule)
    records = [X, rs.dispersion, _moments(X), rs, norm_constants(30), contrast(30, 1),
               rule.method, rule, report,
               CellResult(0, null_scenario(30, 40), "composite", 1, 0, 0, 0.0, 0.0, 1.0, 0.0)]
    return {type(record).__name__: record for record in records}


# The immutability ``frozen=True`` gave these records, as NamedTuples.
@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_records_refuse_assignment(name):
    record = value_records()[name]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
