import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from conftest import null_scenario, random_orthogonal, rejection_rate
from oracles import ZeroMatrix, effective_ranks
from hdnorm import (
    CovSpec,
    InvalidScenarioParams,
    McSettings,
    NotPSD,
    Scenario,
    build_covariance,
    sample_scenario,
    scenario_covariance,
)
from hdnorm import generators
from hdnorm import rng as hrng
from hdnorm.generators import sparse_random_components
from hdnorm.harness import scenario_to_json


def draw(scenario, seed=0, rep=0, buffers=None):
    return sample_scenario(scenario, hrng.substream(seed, hrng.DOMAIN_DATA, 0, rep), buffers)


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
        {"kind": "identity", "d": 3.0},
        {"kind": "identity", "d": True},
        {"kind": "wishart", "d": 4, "seed": -1},
        {"kind": "wishart", "d": 4, "seed": 2.5},
        {"kind": "sparse_random", "d": 4, "seed": True},
        {"kind": ["identity"], "d": 4},
        {"kind": None, "d": 4},
    ])
    def test_bad_spec_rejected_on_construction(self, kwargs):
        with pytest.raises(InvalidScenarioParams):
            CovSpec(**kwargs)


class TestTransportFactor:
    """``_factor`` checks PSD through its own factorization, with
    ``build_covariance``'s tolerance and message, and runs no ``eigvalsh``."""

    @pytest.fixture
    def indefinite(self, monkeypatch):
        matrix = np.diag([1.0, 2.0, 1.0, 1.0, -0.5])
        monkeypatch.setattr(generators, "_dense_covariance", lambda spec: matrix)
        generators._factor.cache_clear()
        yield CovSpec("ar1", 5, rho=0.5)
        generators._factor.cache_clear()

    @pytest.mark.parametrize("form", ["chol", "sym", "eigen"])
    def test_an_indefinite_matrix_raises_not_psd(self, indefinite, form):
        with pytest.raises(NotPSD) as built:
            build_covariance(indefinite)
        with pytest.raises(NotPSD) as factored:
            generators._factor(indefinite, form)
        assert str(factored.value) == str(built.value) == \
               "covariance 'ar1' has eigenvalue -0.5"

    @pytest.mark.parametrize("kind, form", [("ar1", "chol"), ("ar1", "sym"),
                                            ("wishart", "eigen"), ("sparse_random", "chol")])
    def test_no_separate_eigenvalue_pass(self, monkeypatch, kind, form):
        spec = CovSpec(kind, 30, **({"rho": 0.5} if kind == "ar1" else {}))
        generators._factor.cache_clear()
        want = generators._factor(spec, form)
        generators._factor.cache_clear()
        # sparse_random's own shift takes the least eigenvalue of its raw matrix.
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        try:
            got = generators._factor(spec, form)
        finally:
            generators._factor.cache_clear()
        assert len(calls) == (kind == "sparse_random")
        assert got.tobytes() == want.tobytes()


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
        with pytest.raises(InvalidScenarioParams):
            Scenario("leptokurtic", 10, 4, CovSpec("identity", 4), {"excess_kurtosis": 3.5})


class TestScenarioGuards:
    def test_bad_weights(self):
        with pytest.raises(InvalidScenarioParams):
            Scenario("loc_mixture", 10, 4, CovSpec("identity", 4), {"weights": (0.7, 0.7)})

    def test_bad_dof(self):
        with pytest.raises(InvalidScenarioParams):
            Scenario("multivariate_t", 10, 4, CovSpec("identity", 4), {"dof": -1.0})

    def test_raw_chisq_needs_identity(self):
        with pytest.raises(InvalidScenarioParams):
            Scenario("chisq_marginals", 10, 4, CovSpec("ar1", 4, rho=0.5), {"dof": 6.0})

    def test_mixed_marginals_needs_identity_and_room(self):
        with pytest.raises(InvalidScenarioParams):
            Scenario("mixed_marginals", 10, 4, CovSpec("ar1", 4, rho=0.5))
        with pytest.raises(InvalidScenarioParams):
            Scenario("mixed_marginals", 10, 4, CovSpec("identity", 4), {"t_fraction": 0.01})

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidScenarioParams):
            Scenario("null_gaussian", 10, 4, CovSpec("identity", 5))

    def test_unknown_family(self):
        with pytest.raises(InvalidScenarioParams):
            Scenario("mystery", 10, 4, CovSpec("identity", 4))

    @pytest.mark.parametrize("family, cov, params", [
        ("cov_mixture", CovSpec("identity", 4), {"gap": 1.5}),
        ("elliptical_uniform_scale", CovSpec("identity", 4), {"sigma0": -1.0}),
        ("elliptical_uniform_scale", CovSpec("identity", 4), {"delta": -0.5}),
        ("mixed_marginals", CovSpec("identity", 4), {"t_fraction": 0.01}),
        ("chisq_marginals", CovSpec("ar1", 4, rho=0.5), {}),
        ("mixed_marginals", CovSpec("ar1", 4, rho=0.5), {}),
        ("mixed_marginals", CovSpec("identity", 4), {"t_dof": 0.0}),
        ("mixed_marginals", CovSpec("identity", 4), {"t_dof": -1.0}),
    ], ids=["cov_mixture", "elliptical_uniform_scale", "elliptical_negative_delta",
            "mixed_marginals", "chisq_marginals", *["mixed_marginals"] * 3])
    def test_population_covariance_rejects_what_the_sampler_rejects(self, family, cov, params):
        # Both read the parameters the scenario resolved when it was built, so
        # a scenario neither can use is refused there, before either runs.
        with pytest.raises(InvalidScenarioParams):
            Scenario(family, 10, 4, cov, params)

    @pytest.mark.parametrize("params", [
        {"shfit": 1.0},
        {"gap": 0.3},
        {"shift": "wide"},
        {"weights": (0.5, 0.5, 0.0)},
        {"weights": 0.5},
    ])
    def test_unknown_or_malformed_param_rejected(self, params):
        with pytest.raises(InvalidScenarioParams):
            Scenario("loc_mixture", 10, 4, CovSpec("identity", 4), params)

    @pytest.mark.parametrize("family, params", [
        ("chisq_marginals", {"standardize": "false"}),
        ("chisq_marginals", {"standardize": 0}),
        ("chisq_marginals", {"dof": True}),
        ("chisq_marginals", {"dof": "6"}),
        ("loc_mixture", {"shift": None}),
        ("loc_mixture", {"shift_coeff": "2.15"}),
        ("loc_mixture", {"shift_exponent": False}),
        ("loc_mixture", {"weights": [0.5, "0.5"]}),
        ("loc_mixture", {"weights": [True, 0.0]}),
        ("loc_mixture", {"weights": "ab"}),
    ])
    def test_param_of_the_wrong_type_rejected(self, family, params):
        # Read as it converts, "false" would be True, and True would be 1.0.
        with pytest.raises(InvalidScenarioParams, match=f"{family} .* must be"):
            Scenario(family, 10, 4, CovSpec("identity", 4), params)

    @pytest.mark.parametrize("kind, params", [
        ("geom_decay", {"rate": "0.9"}),
        ("ar1", {"rho": True}),
        ("sparse_random", {"density": [0.1]}),
    ])
    def test_covariance_param_of_the_wrong_type_rejected(self, kind, params):
        name = next(iter(params))
        with pytest.raises(InvalidScenarioParams, match=f"{kind} {name} must be a number"):
            CovSpec(kind, 4, **params)

    def test_numbers_of_any_real_type_are_params(self):
        s = Scenario("chisq_marginals", 10, 4, CovSpec("geom_decay", 4, rate=np.float32(0.5)),
                     {"dof": 6, "standardize": True})
        assert s.resolved == {"dof": 6.0, "standardize": True}
        assert s.cov.rate == 0.5 and type(s.cov.rate) is float
        # Sizes and the params echo are kept as the plain numbers they equal, as JSON writes them.
        s = Scenario("loc_mixture", np.int64(10), np.uint8(4), CovSpec("ar1", np.int64(4), rho=0.5),
                     {"shift": np.float32(0.25), "weights": [np.float32(0.25), 0.75]})
        kept = (s.n, s.d, s.cov.d, s.params["shift"], *s.params["weights"])
        assert kept == (10, 4, 4, 0.25, 0.25, 0.75)
        assert list(map(type, kept)) == [int, int, int, float, float, float]

    @pytest.mark.parametrize("changes, message", [
        ({"params": 5}, "params must be an object, got 5"),
        ({"params": None}, "params must be an object, got None"),
        ({"params": "ab"}, "params must be an object, got 'ab'"),
        ({"params": [("dof", 5.0)]}, r"params must be an object, got \[\('dof', 5\.0\)\]"),
        ({"cov": {"kind": "identity", "d": 4}}, "cov must be a CovSpec, got {'kind'"),
        ({"cov": None}, "cov must be a CovSpec, got None"),
    ], ids=["int_params", "none_params", "str_params", "pair_list_params", "dict_cov",
            "none_cov"])
    def test_params_or_cov_of_the_wrong_type_refused_when_built(self, changes, message):
        # Each once raised a TypeError, a ValueError or an AttributeError, or
        # was taken: a list of pairs was read as a dict.
        args = {"family": "multivariate_t", "n": 10, "d": 4, "cov": CovSpec("identity", 4),
                **changes}
        with pytest.raises(InvalidScenarioParams, match=message):
            Scenario(**args)

    def test_params_checked_are_the_params_kept(self):
        # The caller's dict was once kept: changed after the build, it was
        # echoed and compared while the draws used the parameters checked.
        params = {"dof": 5.0}
        s = Scenario("multivariate_t", 10, 4, CovSpec("identity", 4), params)
        echo, before = scenario_to_json(s), draw(s).values.copy()
        params["dof"] = -1.0
        assert s.params == {"dof": 5.0}
        assert s == Scenario("multivariate_t", 10, 4, CovSpec("identity", 4), {"dof": 5.0})
        assert scenario_to_json(s) == echo
        assert np.array_equal(draw(s).values, before)
        # A list is kept as a tuple, so a scenario read from JSON equals one built in Python.
        weights = Scenario("loc_mixture", 10, 4, CovSpec("identity", 4), {"weights": [0.3, 0.7]})
        assert weights.params == {"weights": (0.3, 0.7)}

    @pytest.mark.parametrize("flag", [True, False])
    def test_a_numpy_bool_is_the_flag_it_equals(self, flag):
        # np.True_ was once refused as no flag, and echoed as 1.0.
        plain, numpy = (Scenario("chisq_marginals", 10, 4, CovSpec("identity", 4),
                                 {"standardize": value}) for value in (flag, np.bool_(flag)))
        assert numpy == plain and type(numpy.params["standardize"]) is bool
        assert type(numpy.resolved["standardize"]) is bool
        assert scenario_to_json(numpy) == scenario_to_json(plain)
        assert scenario_to_json(numpy)["params"] == {"standardize": flag}
        assert np.array_equal(draw(numpy).values, draw(plain).values)

    def test_resolved_once_and_kept_through_pickle_not_through_replace(self, monkeypatch):
        s = Scenario("multivariate_t", 10, 4, CovSpec("identity", 4), {"dof_coeff": 2.0})
        assert s.resolved == {"dof": 8.0}
        assert "resolved" not in repr(s)

        def refuse(scenario):
            raise AssertionError("parameters checked again")

        monkeypatch.setattr(generators, "_params", refuse)
        back = pickle.loads(pickle.dumps(s))
        assert back == s and back.resolved == {"dof": 8.0}
        draw(back), scenario_covariance(back)
        with pytest.raises(AssertionError, match="checked again"):
            dataclasses.replace(s, n=12)  # a new object, so checked anew
        monkeypatch.undo()
        assert dataclasses.replace(s, d=16, cov=CovSpec("identity", 16)).resolved == {"dof": 32.0}

    # The record's copy of its parameters is read-only: changed after the
    # build, it would be echoed and compared while the draws used ``resolved``.
    @pytest.mark.parametrize("change", [
        lambda p: p.__setitem__("dof", -1.0),
        lambda p: p.__delitem__("dof"),
        lambda p: p.update(dof=-1.0),
        lambda p: p.pop("dof"),
        lambda p: p.setdefault("dof_coeff", 2.0),
        lambda p: p.clear(),
    ], ids=["setitem", "del", "update", "pop", "setdefault", "clear"])
    def test_params_refuse_every_change(self, change):
        # The echo and the resolved parameters the samplers read refuse alike.
        s = Scenario("multivariate_t", 10, 4, CovSpec("identity", 4), {"dof": 5.0})
        for kept in (s.params, s.resolved):
            with pytest.raises(TypeError, match="read-only"):
                change(kept)
        assert s.params == {"dof": 5.0} and s.resolved == {"dof": 5.0}
        fresh = Scenario("multivariate_t", 10, 4, CovSpec("identity", 4), {"dof": 5.0})
        assert np.array_equal(draw(s).values, draw(fresh).values)

    def test_read_only_params_pickle_with_the_scenario(self):
        s = Scenario("loc_mixture", 10, 4, CovSpec("identity", 4), {"weights": [0.3, 0.7]})
        back = pickle.loads(pickle.dumps(s))
        assert back == s and back.params == {"weights": (0.3, 0.7)}
        assert back.resolved == s.resolved
        for kept in (back.params, back.resolved):
            with pytest.raises(TypeError, match="read-only"):
                kept["weights"] = (0.5, 0.5)

    def test_read_only_params_compare_echo_and_replace_as_a_dict(self):
        s = Scenario("multivariate_t", 10, 4, CovSpec("identity", 4), {"dof": 5.0})
        assert s == Scenario("multivariate_t", 10, 4, CovSpec("identity", 4), {"dof": 5.0})
        assert s != Scenario("multivariate_t", 10, 4, CovSpec("identity", 4), {"dof": 6.0})
        assert repr(s).endswith("params={'dof': 5.0})")
        assert scenario_to_json(s) == {"family": "multivariate_t", "n": 10, "d": 4,
                                       "cov": {"kind": "identity", "d": 4}, "params": {"dof": 5.0}}
        moved = dataclasses.replace(s, n=12)
        assert moved.params == {"dof": 5.0} and moved.resolved == {"dof": 5.0}
        with pytest.raises(InvalidScenarioParams, match="dof > 0"):
            dataclasses.replace(s, params={"dof": -1.0})  # checked anew

    def test_t_block_covariance_needs_more_than_two_dof(self):
        s = Scenario("mixed_marginals", 10, 4, CovSpec("identity", 4), {"t_dof": 2.0})
        draw(s)
        with pytest.raises(InvalidScenarioParams):
            scenario_covariance(s)

    def test_power_of_d_default_takes_coeff_and_exponent(self):
        def shift(params):
            s = Scenario("loc_mixture", 10, 16, CovSpec("identity", 16), params)
            return s.resolved["shift"]

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


# The samplers' draws on one fixed substream, n = 12 and d = 8: every family
# (raw and standardized chi-square apart) on every covariance kind it
# accepts.  Each digest is the sha256 of the sample's bytes followed by the
# population covariance's.  Kinds missing from a family's entry are refused.
PIN_N, PIN_D = 12, 8
PIN_COVS = {
    "identity": CovSpec("identity", PIN_D),
    "ar1": CovSpec("ar1", PIN_D, rho=0.5),
    "sparse_random": CovSpec("sparse_random", PIN_D, density=0.3, seed=2),
    "wishart": CovSpec("wishart", PIN_D, seed=1),
    "geom_decay": CovSpec("geom_decay", PIN_D, rate=0.8),
}
PIN_FAMILIES = {
    "null_gaussian": ("null_gaussian", {}),
    "loc_mixture": ("loc_mixture", {}),
    "cov_mixture": ("cov_mixture", {}),
    "multivariate_t": ("multivariate_t", {}),
    "chisq_marginals": ("chisq_marginals", {}),
    "chisq_marginals+standardize": ("chisq_marginals", {"standardize": True}),
    "elliptical_uniform_scale": ("elliptical_uniform_scale", {"delta": 0.5}),
    "leptokurtic": ("leptokurtic", {}),
    "bai_sarandasa": ("bai_sarandasa", {}),
    "mixed_marginals": ("mixed_marginals", {}),
}
FAMILY_SHA256 = {
    "null_gaussian": {
        "identity": "859fa27e59f3d71441df2c9c6bc8bb3446320d38b74b17bb568ee1891ccb9eec",
        "ar1": "8d3fd5fcf51a2d7b557598cf62e40e18b97dd51777ae27c1c602767a0609cc69",
        "sparse_random": "df196126edeb2b157d1e402468917798d8121bf127d4c1f7006b35903ba3c3f6",
        "wishart": "8eb8375cf9ab34e5b29e258cf413473fe88c53f8d78eff11edf1736619a0f8ec",
        "geom_decay": "3f46c1320e563c94b19fc07c599c5897039c7513048e623dcc7495af136a2b26",
    },
    "loc_mixture": {
        "identity": "8d2603645960822cede1ab3f899d8fad0afcd78b21f35d296dfe2cfd0ea72253",
        "ar1": "b3000942f2167461c7354493e443de6aff7d1ca6ef8ce0e837c208483710448d",
        "sparse_random": "848616588ae02a22ba5612143237950075c4bb78610ebbbe40eeef3c6e4eb9f2",
        "wishart": "1022a8bef4c0ed25f1ee0ecd7bd654f36adadfc88351d71fa2e22c02f0429456",
        "geom_decay": "899aeb93eb57fb67995003839ac0494a5f82d70e4e70740a85af6fa476e68706",
    },
    "cov_mixture": {
        "identity": "7e22d08216d10fdf57a7adc1621f91ca6a00fb884d649d6e44efb3a5e64d1920",
        "ar1": "c6d964f8e6c64e8d3df933b0f11109f0bc7a144d9c14b7d33a08f8dac09bc388",
        "sparse_random": "64ff1948f6a9d1064572fc9955631f6d59ea2529bd64badb9362400db3f7085b",
        "wishart": "4885798bfef2eb1c65e669f0ebe58f47ee7cd1f48d40aae1c08cf5fc05bf08bc",
        "geom_decay": "c2c3a8102e7a9ee970e9f15d72f05f17909dd83ce697784f85a461bffb909bfb",
    },
    "multivariate_t": {
        "identity": "d6f993031b6257c5c9443bb1b73e96c62a2fac526e8fc9df08a55a932cb25537",
        "ar1": "7188f750f65c5614cffc11cd02a0efc8bc4f68a9126f74ddb1aa285359e76f6f",
        "sparse_random": "a3b2ad1970f51e19fd30246786dd349c5db0539cf7622f90bb7ebb7478631746",
        "wishart": "90f3080ff894aaf83b81a5e258e347256fb428b1a6f5f096fab7d219d325e938",
        "geom_decay": "4c13a03cb4f75dbaf8c8b13aae1fffe47b0731d49f6f80f0b9ce66df64d78d41",
    },
    "chisq_marginals": {
        "identity": "5c0aa14700e2a21bcf4a78af593ca7f898306ed0d402b7a578949a3abc263447",
    },
    "chisq_marginals+standardize": {
        "identity": "ade39500baf4057a17c8376d55673834fd35fad59345a11d03e769947121a965",
        "ar1": "a80f012c96c6f254e79ea410095714d3209a563a4f23680266226cf0f65d0d75",
        "sparse_random": "e7971130d3a61dac7134283b7bbf2e1f38310105805f27a49ab1b4fa0d315898",
        "wishart": "0d4327be4311eaeb6c7ee951436af8e11d26d5161dc3674874ddaff2d6a61861",
        "geom_decay": "55f0e2090a979188d7b8e0b3119678f07e1ebcce5942251491d2077543408a5a",
    },
    "elliptical_uniform_scale": {
        "identity": "71cb0816a516eaefcc480bda0a7a2bd1ba465618dde9ec32ceb6c6284d734c0e",
        "ar1": "468002a8b014b47d0f0d218185fa0a4ab91f156ef95102ce7effa38957e0e119",
        "sparse_random": "fb75bdea428d062258833120d9f65780ae421df64cae499f7fb9e9be7c9a2c56",
        "wishart": "597bbc1d04397ae592e563f0168b0ee8a1d3a8c04a37f2927e823c05a4bc1640",
        "geom_decay": "81ebd497d01cc3a6d829d156c0f17ba89e5c65b6e28a42c46384bb16e8a6eafe",
    },
    "leptokurtic": {
        "identity": "d01dda69b1ee7c70d882d46af80c63d5691a8c5c94de8a8082be3dd2e3b18140",
        "ar1": "9def52a942822a88334d701870d9e05fff4878e9edceaa15e76232f2e0b7c6fc",
        "sparse_random": "d255ab94853c2ddf967b520a80e2149b82c7ec91e2e2edfd9f0ee9c6cb76477e",
        "wishart": "7505cfd2e69dd233dd02be53000f924153eadb1928792c9fe1e47ec2dddc5fcc",
        "geom_decay": "efa4189abe76418863ab9233b13d7cf521209de0a9157cf5c721380a59c5e505",
    },
    "bai_sarandasa": {
        "identity": "dd61b5c3ced545701282a292e4e6fb1e3b8e9455d253df5f0bbb1ba773b53f37",
        "ar1": "d79875c9c773f124fb9c1e166dd10f3f5b956db7a00d3c4dfc5878a183c2866e",
        "sparse_random": "98cf7f66ab26ba8b9ac0aaa30efb9f5353c74990eec8f5f36ee8fbde4b188fbe",
        "wishart": "9993e3711628fb0758242c53de29957e6db32c46251097a5a96c49696d973c42",
        "geom_decay": "d5b45ed757de11d312b8af23d7e4dc66f49c037a96cbf5ef0dc4bcea9b5d1aa0",
    },
    "mixed_marginals": {
        "identity": "1a55512ebb55fd804e0c8353ed7e2dc4d152f8e465b87a4e596c30d7d61bd403",
    },
}


@pytest.mark.parametrize("kind", PIN_COVS)
@pytest.mark.parametrize("case", PIN_FAMILIES)
def test_family_draws_and_covariance_are_pinned(case, kind):
    family, params = PIN_FAMILIES[case]
    if kind not in FAMILY_SHA256[case]:
        with pytest.raises(InvalidScenarioParams, match="untransported coordinates"):
            Scenario(family, PIN_N, PIN_D, PIN_COVS[kind], params)
        return
    s = Scenario(family, PIN_N, PIN_D, PIN_COVS[kind], params)
    X = draw(s, seed=2024)
    digest = hashlib.sha256(X.values.tobytes())
    digest.update(scenario_covariance(s).tobytes())
    assert digest.hexdigest() == FAMILY_SHA256[case][kind]
    # Drawn into caller buffers, the sample lands in them with the same bytes.
    # They start as NaN and hold another replication's draw first, so a
    # sampler that read a value it had not written would differ.
    buffers = np.full((2, PIN_N, PIN_D), np.nan)
    draw(s, seed=2024, rep=1, buffers=buffers)
    into = draw(s, seed=2024, buffers=buffers)
    assert np.shares_memory(into.values, buffers)
    assert into.values.tobytes() == X.values.tobytes()


def test_family_pins_cover_every_family():
    assert {family for family, _ in PIN_FAMILIES.values()} == set(generators.FAMILIES)
    assert list(PIN_COVS) == list(generators.COV_KINDS)
