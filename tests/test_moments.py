import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_data, random_orthogonal, similarity_transform
from hdnorm import (
    DataMatrix,
    DegenerateDataWarning,
    McSettings,
    NonPositiveDispersion,
    OracleSizeExceeded,
    TooFewSamples,
    composite_test,
    delta_hat,
    sigma_hat_d,
    tr_sigma_sq_hat,
    tr_sigma_sq_oracle,
)
from hdnorm import rng as hrng
from hdnorm.moments import _core


def dm(rows) -> DataMatrix:
    return DataMatrix.from_array(np.asarray(rows, dtype=float))


class TestDataMatrix:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="row 2, column 1"):
            dm([[1.0, 2.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="row 1, column 2"):
            dm([[1.0, np.inf]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            DataMatrix.from_array(np.zeros(5))
        with pytest.raises(ValueError):
            DataMatrix.from_array(np.zeros((0, 3)))


class TestSigmaHatD:
    def test_two_point_gramian(self):
        # Centered rows are (-1, 0) and (1, 0); with n - 1 = 1 the Gramian is
        # the plain inner-product matrix of the centered rows.
        X = dm([[0.0, 0.0], [2.0, 0.0]])
        M = sigma_hat_d(X)
        assert M.shape == (2, 2)
        np.testing.assert_allclose(M, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_identical_rows_warns_and_returns_zero(self):
        X = dm(np.ones((5, 2)) * 3.7)
        with pytest.warns(DegenerateDataWarning):
            M = sigma_hat_d(X)
        assert np.all(M == 0.0)

    def test_covariance_and_gramian_traces_agree(self, rng_fixture):
        X = dm(rng_fixture.normal(size=(6, 3)))
        cov = sigma_hat_d(X)  # n > d: covariance path
        Xc = X.values - X.values.mean(axis=0)
        gram = (Xc @ Xc.T) / (X.n - 1)
        assert cov.shape == (3, 3)
        assert np.trace(cov) == pytest.approx(np.trace(gram), rel=1e-10)
        assert np.trace(cov @ cov) == pytest.approx(np.trace(gram @ gram), rel=1e-10)

    def test_path_switch_at_n_equals_d(self, rng_fixture):
        X = dm(rng_fixture.normal(size=(4, 4)))
        assert sigma_hat_d(X).shape == (4, 4)
        assert delta_hat(X).used_gramian  # ties go to the Gramian


class TestTrSigmaSqHat:
    def test_mc_unbiased_for_identity(self):
        # tr(Sigma^2) = 50 for N(0, I_50); average over many seeds.
        estimates = [
            tr_sigma_sq_hat(gaussian_data(seed, 200, 50)) for seed in range(500)
        ]
        assert np.mean(estimates) == pytest.approx(50.0, rel=0.05)

    def test_identical_rows_give_zero(self):
        X = dm(np.full((6, 3), 2.5))
        assert tr_sigma_sq_hat(X) == 0.0

    def test_matches_oracle_on_random_input(self, rng_fixture):
        X = dm(rng_fixture.normal(size=(6, 4)))
        a, b = tr_sigma_sq_hat(X), tr_sigma_sq_oracle(X)
        assert abs(a - b) <= 1e-8 * (1.0 + abs(b))

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            tr_sigma_sq_hat(dm(np.eye(3)))


class TestTrSigmaSqOracle:
    def test_hand_expanded_cross_pattern(self):
        # Rows e1, -e1, e2, -e2.  Expanding the three sums by hand: the pair
        # sum contributes 4 terms of 1, the triple sum vanishes, and the
        # quadruple sum contributes 8 terms of 1, giving 1/3 - 0 + 1/3 = 2/3.
        X = dm([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert tr_sigma_sq_oracle(X) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_identical_rows_give_zero(self):
        X = dm(np.tile([3.0, -1.0], (5, 1)))
        assert tr_sigma_sq_oracle(X) == pytest.approx(0.0, abs=1e-12)

    def test_matches_fast_path(self, rng_fixture):
        X = dm(rng_fixture.normal(size=(10, 5)))
        a, b = tr_sigma_sq_hat(X), tr_sigma_sq_oracle(X)
        assert abs(a - b) <= 1e-8 * (1.0 + abs(b))

    def test_size_guards(self):
        with pytest.raises(TooFewSamples):
            tr_sigma_sq_oracle(dm(np.eye(3)))
        with pytest.raises(OracleSizeExceeded):
            tr_sigma_sq_oracle(dm(np.random.default_rng(0).normal(size=(9, 2))), max_n=8)


class TestFourthPowerSum:
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_equals_exact_sum_of_python_float_squares(self, scale):
        # At 1e-150 the squares underflow to 0, at 1e150 they overflow to inf.
        r2, _, _, r4, _ = _core(dm(scale * gaussian_data(8, 50, 100).values))
        assert r4 == math.fsum(float(v) * float(v) for v in r2)


class TestDeltaHat:
    def test_isotropic_high_dimension(self):
        # Population value is 2 tr(Sigma^2)/tr(Sigma) = 2 for the identity.
        est = delta_hat(gaussian_data(123, 100, 1000))
        assert 1.6 <= est.delta_hat <= 2.4
        assert est.used_gramian

    def test_quartic_scaling(self, rng_fixture):
        X = dm(rng_fixture.normal(size=(30, 8)))
        base = delta_hat(X).delta_hat
        scaled = delta_hat(dm(3.0 * X.values)).delta_hat
        assert scaled == pytest.approx(9.0 * base, rel=1e-13)

    def test_rotation_invariance(self, rng_fixture):
        X = dm(rng_fixture.normal(size=(20, 12)))
        V = random_orthogonal(rng_fixture, 12)
        base = delta_hat(X).delta_hat
        rotated = delta_hat(dm(X.values @ V.T)).delta_hat
        assert rotated == pytest.approx(base, rel=1e-10)

    def test_degenerate_raises(self):
        X = dm(np.zeros((5, 3)))
        with pytest.raises(NonPositiveDispersion):
            delta_hat(X)

    def test_overflow_raises_instead_of_nan(self):
        # At this scale the Gramian overflows and the tr(Sigma^2) estimate is
        # inf - inf = NaN; the composite test must not turn that into a verdict.
        X = dm(1e150 * gaussian_data(8, 50, 100).values)
        with pytest.raises(NonPositiveDispersion, match="nan"):
            delta_hat(X)
        with pytest.raises(NonPositiveDispersion):
            composite_test(X, McSettings(replications=1000, seed=1, alpha=0.05))

    def test_overflow_raises_without_a_warning(self):
        X = dm(1e150 * gaussian_data(8, 50, 100).values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveDispersion):
                delta_hat(X)

    def test_records_path(self, rng_fixture):
        tall = dm(rng_fixture.normal(size=(12, 3)))
        wide = dm(rng_fixture.normal(size=(5, 9)))
        assert not delta_hat(tall).used_gramian
        assert delta_hat(wide).used_gramian


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=12),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_fast_path_equals_oracle(n, d, seed):
    X = gaussian_data(seed, n, d)
    a, b = tr_sigma_sq_hat(X), tr_sigma_sq_oracle(X)
    assert abs(a - b) <= 1e-8 * (1.0 + abs(b))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shift=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
def test_property_translation_invariance(seed, shift):
    X = gaussian_data(seed, 10, 6)
    gen = hrng.substream(seed, 99)
    w = shift * hrng.standard_normal(gen, 6)
    base = delta_hat(X).delta_hat
    moved = delta_hat(DataMatrix.from_array(X.values + w)).delta_hat
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    log_sigma=st.floats(min_value=-2.0, max_value=2.0),
)
def test_property_similarity_equivariance(seed, log_sigma):
    X = gaussian_data(seed, 12, 7)
    gen = hrng.substream(seed, 98)
    sigma = 10.0 ** log_sigma
    V = random_orthogonal(gen, 7)
    w = hrng.standard_normal(gen, 7)
    base = delta_hat(X).delta_hat
    moved = delta_hat(DataMatrix.from_array(similarity_transform(X.values, sigma, V, w)))
    assert moved.delta_hat == pytest.approx(sigma * sigma * base, rel=1e-9)
