import math

import numpy as np
import pytest
from scipy.stats import kstest

from conftest import gaussian_data, random_orthogonal, similarity_transform
from hdnorm import (
    DataMatrix,
    NonPositiveDispersion,
    TooFewSamples,
    radial_summary,
)
from hdnorm import rng as hrng
from hdnorm.moments import _moments


def dm(rows) -> DataMatrix:
    return DataMatrix.from_array(np.asarray(rows, dtype=float))


def radii(X: DataMatrix) -> np.ndarray:
    """The radii in input order, from the moments pass."""
    return np.sqrt(_moments(X).sq_radii)


class TestRadii:
    def test_two_rows_share_half_distance(self, rng_fixture):
        x1, x2 = rng_fixture.normal(size=(2, 7))
        r = radii(dm([x1, x2]))
        half = np.linalg.norm(x1 - x2) / 2.0
        np.testing.assert_allclose(r, [half, half], rtol=1e-12)

    def test_identical_rows_all_zero(self):
        assert np.all(radii(dm(np.full((4, 3), 1.5))) == 0.0)

    def test_hand_triangle(self):
        # Mean is (2/3, 2/3); the first radius is ||(-2/3, -2/3)|| = 2*sqrt(2)/3
        # and the other two are ||(4/3, -2/3)|| = 2*sqrt(5)/3.
        r = radii(dm([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(
            r, [2.0 * math.sqrt(2.0) / 3.0, 2.0 * math.sqrt(5.0) / 3.0,
                2.0 * math.sqrt(5.0) / 3.0], rtol=1e-14)

    def test_order_preserved_with_input_rows(self, rng_fixture):
        X = dm(rng_fixture.normal(size=(6, 4)))
        r = radii(X)
        Xc = X.values - X.values.mean(axis=0)
        for i in range(6):
            assert r[i] == pytest.approx(np.linalg.norm(Xc[i]), rel=1e-14)

    def test_similarity_equivariance(self, rng_fixture):
        X = dm(rng_fixture.normal(size=(10, 5)))
        sigma = 3.7
        V = random_orthogonal(rng_fixture, 5)
        w = rng_fixture.normal(size=5)
        moved = radii(dm(similarity_transform(X.values, sigma, V, w)))
        np.testing.assert_allclose(moved, sigma * radii(X), rtol=1e-10)


class TestRadialSummary:
    def test_sorted_is_stable_permutation(self):
        # Duplicate rows create tied radii; the sorted radii are still the
        # input-order radii, rearranged.
        X = dm([[1.0, 0.0], [0.0, 5.0], [1.0, 0.0], [2.0, 2.0]])
        rs = radial_summary(X)
        assert np.all(np.diff(rs.sorted_radii) >= 0.0)
        np.testing.assert_array_equal(np.sort(radii(X)), rs.sorted_radii)

    def test_quasi_range_monotone_in_q(self, rng_fixture):
        rs = radial_summary(dm(rng_fixture.normal(size=(25, 10))))
        s = rs.sorted_radii
        n = rs.n
        contrasts = [s[n - q] - s[q - 1] for q in range(1, n // 2 + 1)]
        assert np.all(np.diff(contrasts) <= 0.0)

    def test_degenerate_propagates(self):
        with pytest.raises(NonPositiveDispersion):
            radial_summary(dm(np.zeros((6, 2))))

    @pytest.mark.parametrize("n", [2, 3])
    def test_too_few_rows(self, rng_fixture, n):
        # The tr(Sigma^2) estimate divides by (n - 2)(n - 3).
        with pytest.raises(TooFewSamples):
            radial_summary(dm(rng_fixture.normal(size=(n, 5))))


class TestStandardizedRadii:
    def test_scale_invariance(self, rng_fixture):
        X = dm(rng_fixture.normal(size=(12, 30)))
        v1 = radial_summary(X).standardized
        v2 = radial_summary(dm(7.3 * X.values)).standardized
        np.testing.assert_allclose(v2, v1, rtol=1e-9, atol=1e-9)

    def test_null_moments_across_seeds(self):
        # Under the Gaussian null the standardized radii are approximately
        # standard normal; check mean and spread on most seeds.
        ok = 0
        for seed in range(200):
            v = radial_summary(gaussian_data(seed, 200, 500)).standardized
            if -0.3 <= v.mean() <= 0.3 and 0.7 <= v.std() <= 1.3:
                ok += 1
        assert ok >= 190

    def test_pooled_null_close_to_standard_normal(self):
        # At n=100 the literal centering at sqrt(tr-hat) leaves a finite-sample
        # mean shift of about -sqrt(d)/(n*sqrt(2)) (the centered rows have
        # squared norm (n-1)/n * tr(Sigma) in expectation), so the raw
        # Kolmogorov distance plateaus near 0.10; the shape itself is normal.
        pooled = np.concatenate(
            [radial_summary(gaussian_data(1000 + s, 100, 1000)).standardized for s in range(50)]
        )
        assert kstest(pooled, "norm").statistic <= 0.12
        assert kstest(pooled - pooled.mean(), "norm").statistic <= 0.03

    def test_pooled_null_ks_shrinks_with_n(self):
        pooled = np.concatenate(
            [radial_summary(gaussian_data(2000 + s, 400, 1000)).standardized for s in range(12)]
        )
        assert kstest(pooled, "norm").statistic <= 0.08
