import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from conftest import gaussian_data, random_orthogonal, similarity_transform
from hdnorm import (
    DataMatrix,
    InvalidQuantileOrder,
    McSettings,
    TooFewSamples,
    mc_quantiles,
    norm_constants,
    radial_summary,
    sigma_star,
)
from hdnorm.moments import DispersionEstimate
from hdnorm.radii import RadialSummary
from hdnorm.teststats import (
    contrast,
    iqr_statistic,
    range_statistic,
    squared_radii_statistics,
    statistics,
)
from oracles import (
    extreme_value_oracle,
    iqr_oracle,
    null_draw_oracle,
    power_oracle,
    squared_iqr_oracle,
    squared_range_oracle,
)


def quasi_range_statistic(rs, q):
    """The quasi-range of order q of the radii of ``rs``."""
    return statistics(rs, (q,))[0]


# Frozen from a 30-digit evaluation of the defining formulas.
A100 = 3.0348542587702927
B100 = 2.366254792906394
SIGMA_STAR = 1.5734325402805462
Q34 = 0.6744897501960817


def fake_summary(radii_values, delta=1.0, that=0.5) -> RadialSummary:
    """Summary with a pinned dispersion estimate, for closed-form checks."""
    r = np.asarray(radii_values, dtype=float)
    disp = DispersionEstimate(
        delta_hat=delta,
        tr_sigma_d=2.0 * that / delta,
        tr_sigma_sq_hat=that,
        used_gramian=True,
    )
    return RadialSummary(sorted_radii=np.sort(r), dispersion=disp, n=len(r), d=1)


class TestNormConstants:
    def test_reference_values_at_100(self):
        c = norm_constants(100)
        assert c.a_n == pytest.approx(A100, abs=1e-12)
        assert c.b_n == pytest.approx(B100, abs=1e-12)

    def test_domain_guards(self):
        for bad in (math.e, 10.0, True):
            with pytest.raises(TypeError):
                norm_constants(bad)
        with pytest.raises(TooFewSamples):
            norm_constants(2)
        norm_constants(3)  # boundary allowed even though b_n < 0 there

    def test_a_n_strictly_increasing(self):
        grid = np.unique(np.logspace(1, 6, 40).astype(int))
        values = [norm_constants(int(n)).a_n for n in grid]
        assert np.all(np.diff(values) > 0.0)


class TestNormalQuantileAccuracy:
    def test_reference_quantiles(self):
        assert float(ndtri(0.75)) == pytest.approx(Q34, abs=1e-13)
        assert float(ndtri(0.975)) == pytest.approx(1.959963984540054, abs=1e-13)

    def test_roundtrip_accuracy(self):
        p = np.linspace(0.001, 0.999, 997)
        assert np.max(np.abs(ndtr(ndtri(p)) - p)) <= 1e-12

    def test_sigma_star_value(self):
        assert sigma_star() == pytest.approx(SIGMA_STAR, abs=1e-12)


class TestRangeStatistic:
    def test_constant_radii_pinned_dispersion(self):
        rs = fake_summary(np.full(100, 5.0), delta=1.0)
        t = range_statistic(rs)
        assert t == pytest.approx(-2.0 * A100 * B100, rel=1e-12)

    def test_null_values_fall_in_central_band(self):
        settings = McSettings(replications=10000, seed=77, alpha=0.01)
        lower, upper = mc_quantiles(100, 1, settings)
        inside = 0
        for seed in range(1000):
            t = range_statistic(radial_summary(gaussian_data(seed, 100, 1000)))
            inside += lower < t < upper
        assert inside >= 980

    def test_similarity_invariance(self, rng_fixture):
        X = gaussian_data(5, 50, 60)
        base = range_statistic(radial_summary(X))
        for sigma in (0.03, 1.0, 40.0):
            V = random_orthogonal(rng_fixture, 60)
            w = rng_fixture.normal(size=60)
            moved = DataMatrix.from_array(similarity_transform(X.values, sigma, V, w))
            value = range_statistic(radial_summary(moved))
            assert abs(value - base) <= 1e-9 * (1.0 + abs(base))


class TestIqrStatistic:
    def test_zero_when_contrast_matches_quartile(self):
        # n=100: indices 75 and 25 of the sorted radii; make their contrast
        # exactly the 3/4 normal quantile with unit dispersion.
        radii_values = np.concatenate([np.zeros(25), np.full(75, Q34)])
        t = iqr_statistic(fake_summary(radii_values, delta=1.0))
        assert t == pytest.approx(0.0, abs=1e-12)

    def test_needs_four_samples(self):
        with pytest.raises(TooFewSamples):
            iqr_statistic(fake_summary(np.ones(3)))

    def test_null_standard_deviation_matches_sigma_star(self):
        values = [
            iqr_statistic(radial_summary(gaussian_data(seed, 200, 4000)))
            for seed in range(1000)
        ]
        sd = float(np.std(values))
        assert 0.85 * SIGMA_STAR <= sd <= 1.15 * SIGMA_STAR

    def test_similarity_invariance(self, rng_fixture):
        X = gaussian_data(6, 48, 64)
        base = iqr_statistic(radial_summary(X))
        V = random_orthogonal(rng_fixture, 64)
        moved = DataMatrix.from_array(
            similarity_transform(X.values, 2.5, V, rng_fixture.normal(size=64)))
        value = iqr_statistic(radial_summary(moved))
        assert abs(value - base) <= 1e-9 * (1.0 + abs(base))


class TestQuasiRangeStatistic:
    def test_q1_identical_to_range(self, rng_fixture):
        rs = radial_summary(DataMatrix.from_array(rng_fixture.normal(size=(30, 8))))
        assert quasi_range_statistic(rs, 1) == range_statistic(rs)

    def test_max_q_on_constant_radii(self):
        rs = fake_summary(np.full(100, 2.0), delta=1.0)
        t = quasi_range_statistic(rs, 50)
        assert t == pytest.approx(-2.0 * A100 * B100, rel=1e-12)

    def test_non_increasing_in_q(self, rng_fixture):
        rs = radial_summary(DataMatrix.from_array(rng_fixture.normal(size=(40, 12))))
        values = [quasi_range_statistic(rs, q) for q in range(1, 21)]
        assert np.all(np.diff(values) <= 0.0)

    def test_order_guards(self, rng_fixture):
        rs = radial_summary(DataMatrix.from_array(rng_fixture.normal(size=(10, 4))))
        for bad in (0, 6, -1):
            with pytest.raises(InvalidQuantileOrder):
                quasi_range_statistic(rs, bad)
        with pytest.raises(InvalidQuantileOrder):
            quasi_range_statistic(rs, 1.5)


class TestContrastMonotonicity:
    def test_values_non_decreasing_in_contrast_given_dispersion(self):
        # Widen the extreme and quartile contrasts while pinning the
        # dispersion estimate; every statistic must move up with them.
        spreads = np.linspace(0.5, 4.0, 9)
        summaries = [
            fake_summary(np.linspace(0.0, s, 100), delta=1.0, that=0.5)
            for s in spreads
        ]
        for builder in (
            range_statistic,
            iqr_statistic,
            lambda rs: quasi_range_statistic(rs, 5),
            lambda rs: squared_radii_statistics(rs)[0],
            lambda rs: squared_radii_statistics(rs)[1],
        ):
            values = [builder(rs) for rs in summaries]
            assert np.all(np.diff(values) >= 0.0)


class TestSquaredRadiiStatistics:
    def test_constant_radii_values(self):
        # that = 0.5 makes the 2*tr(Sigma^2)-hat normalizer exactly one.
        rs = fake_summary(np.full(100, 4.0), delta=1.0, that=0.5)
        t_range, t_iqr = squared_radii_statistics(rs)
        assert t_range == pytest.approx(-2.0 * A100 * B100, rel=1e-12)
        assert t_iqr == pytest.approx(-2.0 * math.sqrt(100) * Q34, rel=1e-12)

    def test_similarity_invariance(self, rng_fixture):
        X = gaussian_data(7, 40, 50)
        base = list(squared_radii_statistics(radial_summary(X)))
        V = random_orthogonal(rng_fixture, 50)
        moved = DataMatrix.from_array(
            similarity_transform(X.values, 0.2, V, rng_fixture.normal(size=50)))
        values = list(squared_radii_statistics(radial_summary(moved)))
        for v, b in zip(values, base):
            assert abs(v - b) <= 1e-9 * (1.0 + abs(b))

    def test_needs_four_samples(self):
        with pytest.raises(TooFewSamples):
            squared_radii_statistics(fake_summary(np.ones(3)))


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestContrastRecord:
    """The record gives the bits of the five expressions it replaced."""

    def test_ranks_and_constants(self):
        c = norm_constants(100)
        assert (contrast(100, 1).lower, contrast(100, 1).upper) == (1, 100)
        assert (contrast(100, 7).lower, contrast(100, 7).upper) == (7, 94)
        assert (contrast(100, 7).a, contrast(100, 7).b) == (c.a_n, c.b_n)
        iqr = contrast(101, None)
        assert (iqr.lower, iqr.upper, iqr.a, iqr.b) == (25, 75, math.sqrt(101), Q34)

    def test_guards(self):
        with pytest.raises(TooFewSamples):
            contrast(2, 1)
        with pytest.raises(TooFewSamples):
            contrast(3, None)
        contrast(10, 1)  # the memo must not answer for 10.0 with this entry
        with pytest.raises(TypeError):
            contrast(10.0, 1)
        for bad in (0, 6, -1, 1.5, "1", 1.0, True):
            with pytest.raises(InvalidQuantileOrder):
                contrast(10, bad)
        with pytest.raises(TypeError):
            contrast(True, 1)

    def test_bitwise_equal_to_the_replaced_expressions(self):
        gen = np.random.default_rng(16)
        sizes = [4, 5, 5000, *gen.integers(6, 5000, size=10).tolist()]
        for n in sizes:
            m = n // 2  # every valid q, and as many IQR inputs
            # Order statistics, their contrast, delta_hat^{1/2} / 2 and
            # (2 tr(Sigma^2)-hat)^{1/2} all spread over about 2^-40..2^40.
            low = np.exp2(gen.uniform(-40.0, 40.0, m))
            high = low + np.exp2(gen.uniform(-40.0, 40.0, m))
            delta_hat = np.exp2(gen.uniform(-78.0, 82.0, m))
            that = np.exp2(gen.uniform(-81.0, 79.0, m))
            for i, q in enumerate(range(1, m + 1)):
                lo, hi, dh, th = low[i], high[i], float(delta_hat[i]), float(that[i])
                radii_sd, squared_sd = math.sqrt(dh) / 2.0, math.sqrt(2.0 * th)
                c, c2 = contrast(n, q), contrast(n, q, power=1)
                assert (c.lower, c.upper) == (q, n - q + 1)
                assert bits(c.value(lo, hi, radii_sd)) == bits(extreme_value_oracle(n, dh, lo, hi))
                assert bits(c.value(lo, hi, 1.0)) == bits(null_draw_oracle(n, lo, hi))
                assert bits(c2.value(lo, hi, squared_sd)) == \
                       bits(squared_range_oracle(n, th, lo, hi))
                iqr = contrast(n, None)
                assert bits(iqr.value(lo, hi, radii_sd)) == bits(iqr_oracle(n, dh, lo, hi))
                assert bits(iqr.value(lo, hi, squared_sd)) == \
                       bits(squared_iqr_oracle(n, th, lo, hi))
            # Arrays of order statistics, as the null draw passes them.
            dh, th = float(delta_hat[0]), float(that[0])
            radii_sd, squared_sd = math.sqrt(dh) / 2.0, math.sqrt(2.0 * th)
            c, c2, iqr = contrast(n, 1), contrast(n, 1, power=1), contrast(n, None)
            assert bits(c.value(low, high, 1.0)) == bits(null_draw_oracle(n, low, high))
            assert bits(c.value(low, high, radii_sd)) == \
                   bits(extreme_value_oracle(n, dh, low, high))
            assert bits(c2.value(low, high, squared_sd)) == \
                   bits(squared_range_oracle(n, th, low, high))
            assert bits(iqr.value(low, high, radii_sd)) == bits(iqr_oracle(n, dh, low, high))
            assert bits(iqr.value(low, high, squared_sd)) == \
                   bits(squared_iqr_oracle(n, th, low, high))

    def test_statistics_of_a_summary_read_the_record(self, rng_fixture):
        rs = radial_summary(DataMatrix.from_array(rng_fixture.normal(size=(41, 70))))
        r, disp = rs.sorted_radii, rs.dispersion
        r2 = r ** 2
        assert bits(range_statistic(rs)) == \
               bits(extreme_value_oracle(41, disp.delta_hat, r[0], r[-1]))
        assert bits(quasi_range_statistic(rs, 4)) == \
               bits(extreme_value_oracle(41, disp.delta_hat, r[3], r[-4]))
        assert bits(iqr_statistic(rs)) == \
               bits(iqr_oracle(41, disp.delta_hat, r[9], r[29]))
        t_range, t_iqr = squared_radii_statistics(rs)
        assert bits(t_range) == \
               bits(squared_range_oracle(41, disp.tr_sigma_sq_hat, r2[0], r2[-1]))
        assert bits(t_iqr) == \
               bits(squared_iqr_oracle(41, disp.tr_sigma_sq_hat, r2[9], r2[29]))

    @pytest.mark.parametrize("shape", [(41, 70), (120, 30)], ids=["wide", "tall"])
    def test_power_one_is_the_squared_radii_statistics(self, rng_fixture, shape):
        rs = radial_summary(DataMatrix.from_array(rng_fixture.normal(size=shape)))
        n, r2, that = rs.n, rs.sorted_radii ** 2, rs.dispersion.tr_sigma_sq_hat
        t_range, t_iqr = statistics(rs, (1, None), power=1)
        assert bits(t_range) == bits(squared_range_oracle(n, that, r2[0], r2[-1]))
        assert bits(t_iqr) == bits(squared_iqr_oracle(n, that, r2[n // 4 - 1], r2[3 * n // 4 - 1]))
        assert bits(statistics(rs, (1, None), power=1.0)) == bits((t_range, t_iqr))

    @pytest.mark.parametrize("shape", [(41, 70), (120, 30)], ids=["wide", "tall"])
    def test_any_power_of_the_radii(self, rng_fixture, shape):
        # Y = R^{2/3}, on the scale (1/3) t1^{-2/3} (2 t2)^{1/2}, with the IQR's rounding.
        rs = radial_summary(DataMatrix.from_array(rng_fixture.normal(size=shape)))
        disp, h = rs.dispersion, 1 / 3
        values = statistics(rs, (1, 3, None), power=h)
        assert bits(values) == bits([
            power_oracle(rs.n, q, h, disp.tr_sigma_d, disp.tr_sigma_sq_hat, rs.sorted_radii)
            for q in (1, 3, None)])
        assert contrast(rs.n, 1, h).factored and not contrast(rs.n, 1).factored
