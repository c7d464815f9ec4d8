import math

import numpy as np
import pytest

from conftest import null_scenario, random_orthogonal, rejection_rate
from hdnorm import (
    CovSpec,
    InvalidScenarioParams,
    McSettings,
    NotPSD,
    Scenario,
    ZeroMatrix,
    build_covariance,
    effective_ranks,
    sample_scenario,
    scenario_covariance,
)
from hdnorm import generators
from hdnorm import rng as hrng
from hdnorm.generators import sparse_random_components


def draw(scenario, seed=0, rep=0):
    return sample_scenario(scenario, hrng.substream(seed, hrng.DOMAIN_DATA, 0, rep))


class TestBuildCovariance:
    def test_identity(self):
        np.testing.assert_array_equal(build_covariance(CovSpec("identity", 5)), np.eye(5))

    def test_ar1_small(self):
        cov = build_covariance(CovSpec("ar1", 3, rho=0.5))
        np.testing.assert_allclose(
            cov, [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]], rtol=1e-15)

    def test_ar1_requires_contraction(self):
        with pytest.raises(InvalidScenarioParams):
            build_covariance(CovSpec("ar1", 4, rho=1.0))

    def test_geom_decay_diagonal(self):
        cov = build_covariance(CovSpec("geom_decay", 4, rate=0.93))
        np.testing.assert_allclose(np.diag(cov), 0.93 ** np.arange(1, 5), rtol=1e-15)
        assert np.all(cov[~np.eye(4, dtype=bool)] == 0.0)

    def test_sparse_random_min_eigenvalue_bound(self):
        spec = CovSpec("sparse_random", 60, seed=3)
        _, delta = sparse_random_components(spec)
        cov = build_covariance(spec)
        lam_min = float(np.linalg.eigvalsh(cov)[0])
        assert lam_min >= 0.05 / (1.0 + delta) - 1e-8

    def test_sparse_random_not_psd_with_negative_jitter(self):
        with pytest.raises(NotPSD):
            build_covariance(CovSpec("sparse_random", 40, density=0.5, jitter=-10.0, seed=1))

    def test_wishart_is_symmetric_psd(self):
        cov = build_covariance(CovSpec("wishart", 30, seed=4))
        np.testing.assert_allclose(cov, cov.T, rtol=1e-12)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-10

    def test_unknown_kind(self):
        with pytest.raises(InvalidScenarioParams):
            build_covariance(CovSpec(kind="magic", d=3))

    def test_kind_defaults_fill_unset_parameters(self):
        spec = CovSpec("sparse_random", 6)
        assert spec == CovSpec("sparse_random", 6, density=0.02, jitter=0.05)
        np.testing.assert_array_equal(
            build_covariance(spec),
            build_covariance(CovSpec("sparse_random", 6, density=0.02, jitter=0.05)))
        assert CovSpec("geom_decay", 3) == CovSpec("geom_decay", 3, rate=0.93)

    @pytest.mark.parametrize("kwargs", [
        {"kind": "identity", "d": 4, "rho": 0.5},
        {"kind": "ar1", "d": 4},
        {"kind": "ar1", "d": 4, "rate": 0.9, "rho": 0.5},
        {"kind": "geom_decay", "d": 4, "rate": 0.0},
        {"kind": "wishart", "d": 0},
    ])
    def test_bad_spec_rejected_on_construction(self, kwargs):
        with pytest.raises(InvalidScenarioParams):
            CovSpec(**kwargs)


class TestEffectiveRanks:
    def test_identity_all_equal_dimension(self):
        er = effective_ranks(np.eye(7))
        for value in (er.rho1_sigma, er.rho1_sigma_sq, er.rho2_sigma,
                      er.rho2_sigma_sq, er.rho3):
            assert value == pytest.approx(7.0, rel=1e-12)

    def test_hand_computed_diagonal(self):
        er = effective_ranks(np.diag([1.0, 1.0, 4.0]))
        assert er.rho1_sigma == pytest.approx(1.5, rel=1e-12)
        assert er.rho2_sigma == pytest.approx(2.0, rel=1e-12)
        assert er.rho1_sigma_sq == pytest.approx(18.0 / 16.0, rel=1e-12)
        assert er.rho2_sigma_sq == pytest.approx(324.0 / 258.0, rel=1e-12)
        assert er.rho3 == pytest.approx(5832.0 / 4356.0, rel=1e-12)

    def test_rank_one_collapses_to_one(self, rng_fixture):
        v = rng_fixture.normal(size=6)
        er = effective_ranks(np.outer(v, v))
        for value in (er.rho1_sigma, er.rho1_sigma_sq, er.rho2_sigma,
                      er.rho2_sigma_sq, er.rho3):
            assert value == pytest.approx(1.0, abs=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrix):
            effective_ranks(np.zeros((4, 4)))

    def test_similarity_invariance(self, rng_fixture):
        G = rng_fixture.normal(size=(20, 20))
        cov = G @ G.T
        base = effective_ranks(cov)
        for sigma in (0.05, 3.0):
            V = random_orthogonal(rng_fixture, 20)
            moved = effective_ranks(sigma * sigma * V @ cov @ V.T)
            for name in ("rho1_sigma", "rho1_sigma_sq", "rho2_sigma",
                         "rho2_sigma_sq", "rho3"):
                assert getattr(moved, name) == pytest.approx(
                    getattr(base, name), rel=1e-9)


def scenario_cases():
    d = 10
    ar = CovSpec("ar1", d, rho=0.5)
    ident = CovSpec("identity", d)
    return [
        Scenario("null_gaussian", 50_000, d, ar),
        Scenario("loc_mixture", 50_000, d, ident),
        Scenario("cov_mixture", 50_000, d, ident, {"gap": 0.4}),
        Scenario("multivariate_t", 50_000, d, ar, {"dof": 10.0}),
        Scenario("chisq_marginals", 50_000, d, ident, {"dof": 6.0}),
        Scenario("chisq_marginals", 50_000, d,
                 CovSpec("sparse_random", d, seed=5), {"dof": 6.0, "standardize": True}),
        Scenario("elliptical_uniform_scale", 50_000, d, ar, {"sigma0": 1.0, "delta": 0.5}),
        Scenario("leptokurtic", 50_000, d, ar, {"excess_kurtosis": 1.0}),
        Scenario("bai_sarandasa", 50_000, d, ar),
        Scenario("mixed_marginals", 50_000, d, ident, {"t_fraction": 0.4}),
    ]


class TestSamplerMoments:
    @pytest.mark.parametrize("scenario", scenario_cases(), ids=lambda s: s.family)
    def test_empirical_covariance_matches_target(self, scenario):
        X = draw(scenario, seed=100)
        target = scenario_covariance(scenario)
        sample_cov = np.cov(X.values, rowvar=False)
        scale = 1.0 if scenario.params.get("standardize", True) is not False else float(
            np.max(np.abs(target)))
        # Raw chi-square coordinates have variance 12; their variance estimate
        # fluctuates too much for an absolute 0.05 band, so compare relative.
        if scenario.family == "chisq_marginals" and not scenario.params.get("standardize", False):
            assert np.max(np.abs(sample_cov - target)) / np.max(np.abs(target)) <= 0.05
        else:
            assert np.max(np.abs(sample_cov - target)) <= 0.05

    def test_loc_mixture_mean(self):
        s = Scenario("loc_mixture", 50_000, 10, CovSpec("identity", 10))
        X = draw(s, seed=101)
        shift = 2.15 * 10 ** -0.25
        np.testing.assert_allclose(X.values.mean(axis=0), 0.5 * shift * np.ones(10),
                                   atol=0.03)

    def test_deterministic_given_stream(self):
        s = Scenario("multivariate_t", 200, 30, CovSpec("ar1", 30, rho=0.5), {"dof": 15.0})
        assert np.array_equal(draw(s, seed=7).values, draw(s, seed=7).values)
        assert not np.array_equal(draw(s, seed=7).values, draw(s, seed=8).values)


class TestLeptokurtic:
    def test_pooled_fourth_moment(self):
        s = Scenario("leptokurtic", 20_000, 10, CovSpec("identity", 10),
                     {"excess_kurtosis": 1.5})
        Z = draw(s, seed=9).values.ravel()
        assert float(np.mean(Z ** 2)) == pytest.approx(1.0, abs=0.02)
        assert float(np.mean(Z ** 4)) == pytest.approx(4.5, abs=0.15)

    def test_excess_kurtosis_bounds(self):
        s = Scenario("leptokurtic", 10, 4, CovSpec("identity", 4), {"excess_kurtosis": 3.5})
        with pytest.raises(InvalidScenarioParams):
            draw(s)


class TestScenarioGuards:
    def test_bad_weights(self):
        s = Scenario("loc_mixture", 10, 4, CovSpec("identity", 4),
                     {"weights": (0.7, 0.7)})
        with pytest.raises(InvalidScenarioParams):
            draw(s)

    def test_bad_dof(self):
        s = Scenario("multivariate_t", 10, 4, CovSpec("identity", 4), {"dof": -1.0})
        with pytest.raises(InvalidScenarioParams):
            draw(s)

    def test_raw_chisq_needs_identity(self):
        s = Scenario("chisq_marginals", 10, 4, CovSpec("ar1", 4, rho=0.5), {"dof": 6.0})
        with pytest.raises(InvalidScenarioParams):
            draw(s)

    def test_mixed_marginals_needs_identity_and_room(self):
        with pytest.raises(InvalidScenarioParams):
            draw(Scenario("mixed_marginals", 10, 4, CovSpec("ar1", 4, rho=0.5)))
        with pytest.raises(InvalidScenarioParams):
            draw(Scenario("mixed_marginals", 10, 4, CovSpec("identity", 4),
                          {"t_fraction": 0.01}))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidScenarioParams):
            draw(Scenario("null_gaussian", 10, 4, CovSpec("identity", 5)))

    def test_unknown_family(self):
        with pytest.raises(InvalidScenarioParams):
            draw(Scenario("mystery", 10, 4, CovSpec("identity", 4)))

    @pytest.mark.parametrize("scenario", [
        Scenario("cov_mixture", 10, 4, CovSpec("identity", 4), {"gap": 1.5}),
        Scenario("elliptical_uniform_scale", 10, 4, CovSpec("identity", 4), {"sigma0": -1.0}),
        Scenario("mixed_marginals", 10, 4, CovSpec("identity", 4), {"t_fraction": 0.01}),
        Scenario("chisq_marginals", 10, 4, CovSpec("ar1", 4, rho=0.5)),
        Scenario("mixed_marginals", 10, 4, CovSpec("ar1", 4, rho=0.5)),
        Scenario("mixed_marginals", 10, 4, CovSpec("identity", 4), {"t_dof": 0.0}),
        Scenario("mixed_marginals", 10, 4, CovSpec("identity", 4), {"t_dof": -1.0}),
    ], ids=lambda s: s.family)
    def test_population_covariance_rejects_what_the_sampler_rejects(self, scenario):
        with pytest.raises(InvalidScenarioParams):
            draw(scenario)
        with pytest.raises(InvalidScenarioParams):
            scenario_covariance(scenario)

    @pytest.mark.parametrize("params", [
        {"shfit": 1.0},
        {"gap": 0.3},
        {"shift": "wide"},
        {"weights": (0.5, 0.5, 0.0)},
        {"weights": 0.5},
    ])
    def test_unknown_or_malformed_param_rejected(self, params):
        s = Scenario("loc_mixture", 10, 4, CovSpec("identity", 4), params)
        with pytest.raises(InvalidScenarioParams):
            draw(s)
        with pytest.raises(InvalidScenarioParams):
            scenario_covariance(s)

    def test_t_block_covariance_needs_more_than_two_dof(self):
        s = Scenario("mixed_marginals", 10, 4, CovSpec("identity", 4), {"t_dof": 2.0})
        draw(s)
        with pytest.raises(InvalidScenarioParams):
            scenario_covariance(s)

    def test_power_of_d_default_takes_coeff_and_exponent(self):
        def shift(params):
            s = Scenario("loc_mixture", 10, 16, CovSpec("identity", 16), params)
            return generators._params(s)["shift"]

        assert shift({}) == 2.15 * 16.0 ** -0.25
        assert shift({"shift_coeff": 3.0}) == 3.0 * 16.0 ** -0.25
        assert shift({"shift_exponent": -0.5}) == 2.15 * 16.0 ** -0.5
        assert shift({"shift": 0.7, "shift_coeff": 3.0}) == 0.7


class TestScenarioPower:
    def test_degenerate_loc_mixture_keeps_size(self):
        s = Scenario("loc_mixture", 100, 100, CovSpec("identity", 100), {"shift": 0.0})
        settings = McSettings(replications=4000, seed=21, alpha=0.05)
        rate = rejection_rate(s, 500, settings, seed=300)
        assert rate == pytest.approx(0.05, abs=0.025)

    def test_near_gaussian_t_keeps_size(self):
        s = Scenario("multivariate_t", 100, 100, CovSpec("identity", 100), {"dof": 1e6})
        settings = McSettings(replications=10000, seed=22, alpha=0.05)
        rate = rejection_rate(s, 2000, settings, seed=301)
        assert rate == pytest.approx(0.05, abs=0.02)

    def test_scale_mixture_power(self):
        s = Scenario("cov_mixture", 100, 100, CovSpec("identity", 100),
                     {"gap_coeff": 1.8, "gap_exponent": -0.5})
        settings = McSettings(replications=10000, seed=23, alpha=0.05)
        rate = rejection_rate(s, 1000, settings, seed=302)
        assert rate >= 0.99

    def test_mixed_marginals_power(self):
        s = Scenario("mixed_marginals", 100, 100, CovSpec("identity", 100),
                     {"t_fraction": 0.5})
        settings = McSettings(replications=4000, seed=24, alpha=0.05)
        rate = rejection_rate(s, 300, settings, seed=303)
        assert rate >= 0.85

    def test_mixed_marginals_partial_fraction_anchor(self):
        # Regression anchor: a 0.3 fraction of heavy-tailed coordinates at
        # n=d=100 rejects at roughly a half rate (0.49 in a 10k reference run).
        s = Scenario("mixed_marginals", 100, 100, CovSpec("identity", 100),
                     {"t_fraction": 0.3})
        settings = McSettings(replications=4000, seed=25, alpha=0.05)
        rate = rejection_rate(s, 400, settings, seed=304)
        assert 0.38 <= rate <= 0.60

    def test_unbalanced_loc_mixture_power(self):
        # A 5% contaminating component shifted by 1 in every coordinate is
        # caught by the extreme radii nearly always at n=d=100.
        s = Scenario("loc_mixture", 100, 100, CovSpec("identity", 100),
                     {"shift": 1.0, "weights": (0.95, 0.05)})
        settings = McSettings(replications=4000, seed=26, alpha=0.05)
        rate = rejection_rate(s, 300, settings, seed=305)
        assert rate >= 0.90
