import itertools
import math

import numpy as np
import pytest

import tailnet as tn
from tailnet.covar import covar_asymptotic_gauss, gauss_level_function
from tailnet.errors import DispatchError, DomainError, ModelError
from tailnet.network import (AggregatedNetwork, gaussian_mu_bar_2_thm_dispatch,
                             network_alpha2, sample_adjacency_batch,
                             sample_losses)

SQ2 = math.sqrt(2.0)


def gauss_net_matrix(rho=0.3):
    """Trivariate correlation rho, sqrt(2) rho, sqrt(2) rho with the two-agent
    selector that misses the maximally correlated pairs."""
    sig = np.array([[1, rho, SQ2 * rho], [rho, 1, SQ2 * rho],
                    [SQ2 * rho, SQ2 * rho, 1]])
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return sig, a


class TestLawsAndValidation:
    def test_weight_spec_validation(self):
        with pytest.raises(ModelError):
            tn.WeightSpec("uniform", 0.0, 1.0)
        with pytest.raises(ModelError):
            tn.WeightSpec("point", 1.0, 2.0)
        with pytest.raises(ModelError):
            tn.WeightSpec("exotic", 1.0, 1.0)

    def test_network_needs_live_rows(self):
        with pytest.raises(ModelError):
            tn.BipartiteNetwork(2, 2, np.array([[0.5, 0.5], [0.0, 0.0]]),
                                tn.WeightSpec("point", 1.0, 1.0))

    def test_adjacency_rejects_zero_rows(self):
        with pytest.raises(ModelError):
            tn.AdjacencyMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestSampleAdjacency:
    def test_sure_edges_give_ones(self):
        net = tn.BipartiteNetwork(2, 3, 1.0, tn.WeightSpec("point", 1.0, 1.0))
        a = tn.sample_adjacency(net, seed=0)
        assert np.array_equal(a.entries, np.ones((2, 3)))

    def test_identity_pattern_support(self):
        net = tn.BipartiteNetwork(2, 2, np.eye(2), tn.WeightSpec("uniform", 0.5, 2.0))
        a = tn.sample_adjacency(net, seed=1).entries
        assert a[0, 1] == 0.0 and a[1, 0] == 0.0
        assert 0.5 <= a[0, 0] <= 2.0 and 0.5 <= a[1, 1] <= 2.0

    def test_edge_frequency_matches_conditioned_binomial_oracle(self):
        # resampling trivial rows conditions the law; the per-entry frequency
        # oracle is p / (1 - prod_j (1 - p_row_j))
        p = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.4]])
        net = tn.BipartiteNetwork(2, 3, p, tn.WeightSpec("point", 1.0, 1.0))
        n = 100_000
        a = sample_adjacency_batch(net, seed=2, n=n)
        freq = (a > 0).mean(axis=0)
        alive = 1.0 - np.prod(1.0 - p, axis=1, keepdims=True)
        oracle = p / alive
        se = np.sqrt(oracle * (1 - oracle) / n)
        assert np.all(np.abs(freq - oracle) < 3 * se + 1e-12)

    def test_no_trivial_rows_ever(self):
        net = tn.BipartiteNetwork(2, 2, 0.2, tn.WeightSpec("point", 1.0, 1.0))
        a = sample_adjacency_batch(net, seed=3, n=5_000)
        assert np.all((a > 0).sum(axis=2) >= 1)

    def test_deterministic_given_seed(self):
        net = tn.BipartiteNetwork(3, 4, 0.5, tn.WeightSpec("uniform", 0.5, 1.5))
        assert np.array_equal(tn.sample_adjacency(net, 7).entries,
                              tn.sample_adjacency(net, 7).entries)


class TestCoverIndex:
    def test_examples(self):
        assert tn.cover_index(np.eye(2), 2) == 2
        assert tn.cover_index(np.array([[1.0, 1.0], [0.0, 1.0]]), 2) == 1
        assert tn.cover_index(np.array([[1.0, 1.0], [0.0, 1.0]]), 1) == 1

    def test_exhaustive_oracle(self):
        g = np.random.default_rng(11)
        for _ in range(40):
            q = int(g.integers(1, 5))
            d = int(g.integers(1, 9))
            a = (g.random((q, d)) < 0.4).astype(float)
            a[a.sum(axis=1) == 0, g.integers(0, d)] = 1.0
            for k in range(1, q + 1):
                got = tn.cover_index(a, k)
                brute = min(
                    size for size in range(1, d + 1)
                    for combo in itertools.combinations(range(d), size)
                    if len(set().union(
                        *(set(np.nonzero(a[:, c] > 0)[0]) for c in combo))) >= k)
                assert got == brute


class TestOverlapAndDispatch:
    def test_overlap_flag_from_support(self):
        assert tn.overlap_profile(np.ones((2, 2))).overlap
        assert not tn.overlap_profile(np.eye(2)).overlap

    def test_rho_star_versus_rho_vee(self):
        sig, a = gauss_net_matrix(0.3)
        model = tn.RiskModel.gaussian(sig, 1.0)
        prof = tn.overlap_profile(a, model)
        assert prof.rho_vee == pytest.approx(0.3 * SQ2)
        assert prof.rho_star == pytest.approx(0.3)

    def test_exactly_one_case_resolves(self):
        laws = [np.ones((2, 2)), np.eye(2)]
        models = [tn.RiskModel.iid(2, 1.0),
                  tn.RiskModel.marshall_olkin(2, "equal", 1.0),
                  tn.RiskModel.marshall_olkin(2, "proportional", 1.0),
                  tn.RiskModel.gaussian(tn.CorrelationMatrix.equicorrelation(2, 0.4), 1.0)]
        for law in laws:
            for model in models:
                case = tn.resolve_case(law, model)
                expected_overlap = bool(np.any((law > 0)[0] & (law > 0)[1]))
                assert (case == "overlap") == expected_overlap

    def test_case_mismatch_raises(self):
        model = tn.RiskModel.iid(2, 1.0)
        with pytest.raises(DispatchError):
            tn.network_cond_prob("overlap", np.eye(2), model, (1.0, 1.0), 10.0)


class TestPairMeasures:
    def test_identity_matrix_values(self):
        model = tn.RiskModel.iid(2, 1.0)
        assert tn.mu_bar_1(np.eye(2), model, (1.0, 1.0)).value == pytest.approx(2.0)
        with pytest.raises(DispatchError):
            tn.mu_bar_2_overlap(np.eye(2), model, (1.0, 1.0))

    def test_full_matrix_values(self):
        model = tn.RiskModel.iid(2, 1.0)
        ones = np.ones((2, 2))
        assert tn.mu_bar_2_overlap(ones, model, (1.0, 1.0)).value == pytest.approx(2.0)
        with pytest.raises(DispatchError):
            tn.disjoint_mu_bar_2(ones, model, (1.0, 1.0))

    def test_homogeneity(self):
        model = tn.RiskModel.iid(2, 1.5)
        a = np.array([[1.0, 2.0], [0.5, 1.0]])
        x = (1.3, 0.7)
        x2 = (2.6, 1.4)
        assert tn.mu_bar_1(a, model, x2).value == pytest.approx(
            tn.mu_bar_1(a, model, x).value * 2.0 ** -1.5, rel=1e-12)
        assert tn.mu_bar_2_overlap(a, model, x2).value == pytest.approx(
            tn.mu_bar_2_overlap(a, model, x).value * 2.0 ** -1.5, rel=1e-12)

    def test_disjoint_values(self):
        assert tn.disjoint_mu_bar_2(np.eye(2), tn.RiskModel.iid(2, 1.0),
                                    (1.0, 1.0)).value == pytest.approx(1.0)
        assert tn.disjoint_mu_bar_2(np.eye(2),
                                    tn.RiskModel.marshall_olkin(2, "equal", 1.0),
                                    (1.0, 1.0)).value == pytest.approx(1.0)

    def test_gaussian_disjoint_constant(self):
        sig, a = gauss_net_matrix(0.3)
        model = tn.RiskModel.gaussian(sig, 1.0)
        got = tn.disjoint_mu_bar_2(a, model, (1.0, 1.0))
        expect = 1.3 ** 1.5 / (2 * math.pi * math.sqrt(0.7))
        assert got.value == pytest.approx(expect, rel=1e-12)

    def test_zero_measure_witness(self):
        sig, a = gauss_net_matrix(0.3)
        model = tn.RiskModel.gaussian(sig, 1.0)
        assert gaussian_mu_bar_2_thm_dispatch(a, model, (1.0, 1.0)).value == 0.0
        assert tn.disjoint_mu_bar_2(a, model, (1.0, 1.0)).value > 0.0


class TestCondProb:
    def test_overlap_full_holdings_is_one(self):
        model = tn.RiskModel.iid(3, 1.0)
        ones = np.ones((2, 3))
        got = tn.network_cond_prob("overlap", ones, model, (1.0, 1.0), 50.0)
        assert got.value == pytest.approx(1.0)

    def test_disjoint_iid_identity_is_marginal_tail(self):
        model = tn.RiskModel.iid(2, 1.0)
        for t in (10.0, 1e3):
            got = tn.network_cond_prob("disjoint-iid", np.eye(2), model,
                                       (1.0, 1.0), t)
            assert got.value == pytest.approx(1.0 / t, rel=1e-12)

    def test_mo_equal_decay_factor(self):
        model = tn.RiskModel.marshall_olkin(2, "equal", 1.0)
        t = 100.0
        got = tn.network_cond_prob("disjoint-mo-equal", np.eye(2), model,
                                   (1.0, 1.0), t)
        assert got.value == pytest.approx(t ** -0.5, rel=1e-12)


class TestNetworkCovar:
    def test_mo_equal_identity_example(self):
        model = tn.RiskModel.marshall_olkin(2, "equal", 1.0)
        got = tn.network_covar("disjoint-mo-equal", np.eye(2), model, 1e-4, 0.5)
        assert got.low_upsilon.value == pytest.approx(2.0e4, rel=1e-12)
        assert got.g.beta == pytest.approx(0.5)
        assert got.high_upsilon.value == pytest.approx(4.0e4, rel=1e-12)

    def test_gaussian_identity_matches_bivariate_lemma(self):
        rho = 0.4
        sig = tn.CorrelationMatrix.equicorrelation(2, rho)
        model = tn.RiskModel.gaussian(sig, 1.0)
        gamma, ups = 1e-4, 0.7
        got = tn.network_covar("disjoint-gaussian", np.eye(2), model, gamma, ups)
        direct = covar_asymptotic_gauss(1.0, 1.0, rho, ups, gamma,
                                        gauss_level_function(rho, 1.0))
        assert got.low_upsilon.value == pytest.approx(direct, rel=1e-12)

    def test_overlap_covar_ratio_of_moment_sums(self):
        model = tn.RiskModel.iid(2, 2.0)
        a = np.array([[2.0, 1.0], [1.0, 1.0]])
        got = tn.network_covar("overlap", a, model, 1e-3, 0.5)
        m1 = (2.0 ** 2 + 1.0) / (1.0 + 1.0)
        var2 = (2.0 / 1e-3) ** 0.5
        assert got.low_upsilon.value == pytest.approx(
            0.5 ** -0.5 * m1 ** 0.5 * var2, rel=1e-12)
        assert got.high_upsilon is None


class TestNetworkEci:
    def test_closed_forms(self):
        a1 = tn.RiskModel.iid(2, 1.0)
        assert tn.network_eci("overlap", a1).eci == math.inf
        assert tn.network_eci("disjoint-iid", a1).eci == 1.0
        assert tn.network_eci("disjoint-mo-equal",
                              tn.RiskModel.marshall_olkin(2, "equal", 1.0)).eci == 2.0
        prop4 = tn.RiskModel.marshall_olkin(4, "proportional", 1.0)
        assert tn.network_eci("disjoint-mo-proportional", prop4).eci == \
            pytest.approx(2.5)
        sig = tn.CorrelationMatrix.equicorrelation(2, 0.5)
        mg = tn.RiskModel.gaussian(sig, 1.0)
        assert tn.network_eci("disjoint-gaussian", mg, np.eye(2)).eci == \
            pytest.approx(3.0)

    def test_consistent_with_cone_index_ratio(self):
        cases = [("overlap", tn.RiskModel.iid(2, 1.3), np.ones((2, 2))),
                 ("disjoint-iid", tn.RiskModel.iid(2, 1.3), np.eye(2)),
                 ("disjoint-mo-equal",
                  tn.RiskModel.marshall_olkin(2, "equal", 0.7), np.eye(2)),
                 ("disjoint-mo-proportional",
                  tn.RiskModel.marshall_olkin(3, "proportional", 2.0),
                  np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
                 ("disjoint-gaussian",
                  tn.RiskModel.gaussian(
                      tn.CorrelationMatrix.equicorrelation(2, 0.25), 1.1),
                  np.eye(2))]
        for case, model, law in cases:
            rep = tn.network_eci(case, model, law)
            a2 = network_alpha2(case, model, law)
            ref = tn.eci(model.margin.alpha, a2)
            assert rep.eci == pytest.approx(ref.eci, rel=1e-12) or \
                (math.isinf(rep.eci) and math.isinf(ref.eci))
            assert rep.alpha2 == pytest.approx(a2, rel=1e-12)


class TestAggregate:
    def test_row_sums(self):
        a = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [4.0, 0.0, 0.0]])
        agg = tn.aggregate(a, [0], [1, 2])
        assert np.array_equal(agg.entries, np.array([[1, 2, 0], [4, 1, 3.0]]))

    def test_sample_for_sample_consistency(self):
        a = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [4.0, 0.0, 0.0]])
        model = tn.RiskModel.iid(3, 1.0)
        z = tn.sample(model, 64, seed=12)
        x = z @ a.T
        direct = np.stack([x[:, 0] + x[:, 1], x[:, 2]], axis=1)
        via = z @ tn.aggregate(a, [0, 1], [2]).entries.T
        # identical up to float summation order
        assert np.allclose(direct, via, rtol=1e-12, atol=0.0)

    def test_overlap_flag_equivalence(self):
        block = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        agg_disjoint = tn.aggregate(block, [0, 1], [2])
        assert not tn.overlap_profile(agg_disjoint).overlap
        agg_overlap = tn.aggregate(block, [0], [1, 2])
        assert tn.overlap_profile(agg_overlap).overlap
        total = tn.aggregate(block, [0, 1, 2], [0, 1, 2])
        assert tn.overlap_profile(total).overlap

    def test_random_law_aggregation(self):
        net = tn.BipartiteNetwork(3, 3, np.array([[1.0, 0, 0], [0, 1.0, 0],
                                                  [0, 0, 1.0]]),
                                  tn.WeightSpec("point", 2.0, 2.0))
        agg = tn.aggregate(net, [0, 1], [2])
        assert isinstance(agg, AggregatedNetwork)
        assert not tn.overlap_profile(agg).overlap
        batch = sample_adjacency_batch(agg, seed=1, n=16)
        assert batch.shape == (16, 2, 3)
        assert np.allclose(batch[:, 0, :2], 2.0)

    def test_empty_subset_rejected(self):
        with pytest.raises(DomainError):
            tn.aggregate(np.eye(2), [], [0])


class TestOneVsMax:
    def test_q2_reduces_to_pairwise(self):
        model = tn.RiskModel.marshall_olkin(2, "equal", 1.0)
        rep = tn.one_vs_max(np.eye(2), model, 0, (1.0, 1.0), t=100.0,
                            gamma=1e-3, upsilon=0.5)
        pair_mu = tn.disjoint_mu_bar_2(np.eye(2), model, (1.0, 1.0))
        assert rep.mu2_star.value == pytest.approx(pair_mu.value, rel=1e-12)
        pair_cv = tn.network_covar("disjoint-mo-equal", np.eye(2), model,
                                   1e-3, 0.5)
        assert rep.covar_1_given_2.low_upsilon.value == pytest.approx(
            pair_cv.low_upsilon.value, rel=1e-12)
        assert rep.covar_2_given_1 is None

    def test_iid_identity_moment_sum(self):
        model = tn.RiskModel.iid(3, 1.0)
        rep = tn.one_vs_max(np.eye(3), model, 0, (1.0, 1.0), t=100.0,
                            gamma=1e-3, upsilon=0.5)
        assert rep.case == "disjoint-iid"
        assert rep.mu2_star.value == pytest.approx(2.0, rel=1e-12)
        assert rep.eci.eci == 1.0

    def test_overlap_infinite_eci_both_directions(self):
        model = tn.RiskModel.iid(2, 1.0)
        rep = tn.one_vs_max(np.ones((3, 2)), model, 1, (1.0, 1.0), t=100.0,
                            gamma=1e-3, upsilon=0.5)
        assert rep.case == "overlap"
        assert rep.eci.eci == math.inf
        assert rep.covar_2_given_1 is not None

    def test_gaussian_uses_connected_rho(self):
        sig, _ = gauss_net_matrix(0.3)
        model = tn.RiskModel.gaussian(sig, 1.0)
        a = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 1.0, 0]])
        rep = tn.one_vs_max(a, model, 0, (1.0, 1.0), t=1e3, gamma=1e-3,
                            upsilon=0.5)
        assert rep.case == "disjoint-gaussian"
        assert rep.eci.eci == pytest.approx(1.3 / 0.7)
        assert rep.covar_2_given_1 is not None

    def test_conditional_direction_denominators(self):
        model = tn.RiskModel.iid(3, 1.0)
        a = np.array([[2.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        rep = tn.one_vs_max(a, model, 0, (1.0, 1.0), t=100.0, gamma=1e-3,
                            upsilon=0.5)
        tsum = 2.0 ** 1.0 * 2.0  # sum_l a_kl^a times sum_j max_m a_mj^a
        assert rep.cond_prob_1_given_2.value == pytest.approx(
            (1.0 / 100.0) * tsum / 2.0, rel=1e-12)
        assert rep.cond_prob_2_given_1.value == pytest.approx(
            (1.0 / 100.0) * tsum / 2.0, rel=1e-12)


class TestDispatchSoundness:
    """Each sampled law resolves to exactly one case, and the selected
    asymptotic display tracks Monte Carlo within a [0.7, 1.3] ratio band at
    the largest tested scale."""

    def _mc_cond(self, law, model, x, t, n, seed):
        xs = sample_losses(law, model, n, seed=seed)
        marg = xs[:, 1] > t * x[1]
        return float(np.mean((xs[:, 0] > t * x[0]) & marg) / marg.mean())

    def test_overlap_uneven_holdings(self):
        model = tn.RiskModel.iid(2, 1.0)
        a = np.array([[2.0, 1.0], [0.0, 1.0]])
        assert tn.resolve_case(a, model) == "overlap"
        asym = tn.network_cond_prob("overlap", a, model, (3.0, 1.0), 100.0)
        emp = self._mc_cond(a, model, (3.0, 1.0), 100.0, 2_000_000, 33)
        assert 0.7 < emp / asym.value < 1.3

    def test_disjoint_gaussian(self):
        model = tn.RiskModel.gaussian(tn.CorrelationMatrix.equicorrelation(2, 0.5),
                                      1.0)
        assert tn.resolve_case(np.eye(2), model) == "disjoint-gaussian"
        asym = tn.network_cond_prob("disjoint-gaussian", np.eye(2), model,
                                    (1.0, 1.0), 100.0)
        emp = self._mc_cond(np.eye(2), model, (1.0, 1.0), 100.0, 2_000_000, 31)
        assert 0.7 < emp / asym.value < 1.3

    def test_disjoint_mo_proportional_random_law(self):
        p = np.array([[0.8, 0.8, 0.0], [0.0, 0.0, 0.9]])
        net = tn.BipartiteNetwork(2, 3, p, tn.WeightSpec("uniform", 0.5, 1.5))
        model = tn.RiskModel.marshall_olkin(3, "proportional", 1.0)
        assert tn.resolve_case(net, model) == "disjoint-mo-proportional"
        asym = tn.network_cond_prob("disjoint-mo-proportional", net, model,
                                    (1.0, 1.0), 100.0, seed=5)
        assert asym.stderr > 0  # Monte Carlo moments over the random law
        emp = self._mc_cond(net, model, (1.0, 1.0), 100.0, 4_000_000, 32)
        assert 0.7 < emp / asym.value < 1.3

    def test_every_law_model_pair_resolves_uniquely(self):
        cases = {"overlap", "disjoint-iid", "disjoint-mo-equal",
                 "disjoint-mo-proportional", "disjoint-gaussian"}
        laws = [np.eye(2), np.ones((2, 2)),
                tn.BipartiteNetwork(2, 2, np.array([[0.9, 0.0], [0.0, 0.9]]),
                                    tn.WeightSpec("point", 1.0, 1.0))]
        models = [tn.RiskModel.iid(2, 1.0),
                  tn.RiskModel.marshall_olkin(2, "equal", 1.0),
                  tn.RiskModel.marshall_olkin(2, "proportional", 1.0),
                  tn.RiskModel.gaussian(
                      tn.CorrelationMatrix.equicorrelation(2, 0.3), 1.0)]
        for law in laws:
            for model in models:
                assert tn.resolve_case(law, model) in cases


class TestMoments:
    def test_random_law_moment_matches_conditioned_oracle(self):
        # two assets, row-survival conditioning lifts the entry moment to
        # p / (1 - (1 - p)^2) * w^c per entry
        p = 0.5
        w = 2.0
        net = tn.BipartiteNetwork(2, 2, p, tn.WeightSpec("point", w, w))
        from tailnet.network import row_moment_sum
        est = row_moment_sum(net, 0, 1.0, n_a=200_000, seed=4)
        oracle = 2 * (p / (1 - (1 - p) ** 2)) * w
        assert abs(est.value - oracle) < 4 * est.stderr

    def test_deterministic_moment_has_zero_stderr(self):
        from tailnet.network import row_moment_sum
        est = row_moment_sum(np.array([[1.0, 3.0], [1.0, 0.0]]), 0, 2.0)
        assert est == type(est)(10.0, 0.0)


class TestSampleLosses:
    def test_deterministic_law_is_matrix_product(self):
        model = tn.RiskModel.iid(2, 1.0)
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        x = sample_losses(a, model, 128, seed=5)
        z = tn.sample(model, 128, seed=5)
        assert np.allclose(x, z @ a.T)

    def test_random_law_shape_and_determinism(self):
        net = tn.BipartiteNetwork(2, 2, 0.7, tn.WeightSpec("uniform", 0.5, 1.5))
        model = tn.RiskModel.iid(2, 1.0)
        x1 = sample_losses(net, model, 1000, seed=6)
        x2 = sample_losses(net, model, 1000, seed=6, threads=3)
        assert x1.shape == (1000, 2)
        assert np.array_equal(x1, x2)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_adjacency_rejects_non_finite_entries(self, bad):
        with pytest.raises(ModelError):
            tn.AdjacencyMatrix(np.array([[bad, 1.0], [0.0, 1.0]]))

    def test_network_rejects_nan_edge_prob(self):
        with pytest.raises(ModelError):
            tn.BipartiteNetwork(2, 2, np.array([[math.nan, 0.5], [0.5, 0.5]]),
                                tn.WeightSpec("point", 1.0, 1.0))

    @pytest.mark.parametrize("kind, lo, hi", [("uniform", 0.5, math.inf),
                                              ("point", math.inf, math.inf),
                                              ("uniform", 0.5, math.nan)])
    def test_weight_spec_rejects_non_finite_bounds(self, kind, lo, hi):
        with pytest.raises(ModelError):
            tn.WeightSpec(kind, lo, hi)


class TestRowReduction:
    def test_max_reduction_draws_row_maxima_of_the_base(self):
        base = tn.BipartiteNetwork(3, 3, 0.5, tn.WeightSpec("uniform", 0.5, 1.5))
        law = AggregatedNetwork(base, (0,), (1, 2), "max")
        a = sample_adjacency_batch(base, seed=2, n=256)
        got = sample_adjacency_batch(law, seed=2, n=256)
        assert np.array_equal(got[:, 0], a[:, 0])
        assert np.array_equal(got[:, 1], a[:, 1:].max(axis=1))

    def test_unknown_reduction_rejected(self):
        base = tn.BipartiteNetwork(2, 2, 0.5, tn.WeightSpec("point", 1.0, 1.0))
        with pytest.raises(ModelError):
            AggregatedNetwork(base, (0,), (1,), "min")


class TestMomentDraws:
    def test_one_base_draw_serves_a_law_and_its_reductions(self, monkeypatch):
        import tailnet.network as nw
        sizes = []
        real = nw._draw_base

        def counting(net, g, n):
            sizes.append(n)
            return real(net, g, n)

        monkeypatch.setattr(nw, "_draw_base", counting)
        base = tn.BipartiteNetwork(3, 2, 0.6, tn.WeightSpec("uniform", 0.5, 1.5))
        tn.one_vs_max(base, tn.RiskModel.iid(2, 1.0), 0, (1.0, 1.0), t=10.0,
                      gamma=0.01, upsilon=0.5, n_a=500, seed=7)
        assert sizes == [500]

    def test_shared_draws_are_read_only(self):
        from tailnet.network import a_moment
        net = tn.BipartiteNetwork(2, 2, 0.6, tn.WeightSpec("point", 1.0, 1.0))

        def overwrite(a):
            a[:] = 0.0
            return a.sum(axis=(1, 2))

        with pytest.raises(ValueError):
            a_moment(net, overwrite, n_a=100, seed=1)


def test_law_with_a_nearly_dead_row_raises_before_drawing():
    from tailnet.errors import CapacityError
    from tailnet.network import MIN_ROW_LIVE_PROB
    p = np.array([[1e-9, 1e-9], [0.5, 0.5]])
    # built and resolved for closed forms; refused once drawn
    net = tn.BipartiteNetwork(2, 2, p, tn.WeightSpec("point", 1.0, 1.0))
    assert tn.resolve_case(net, tn.RiskModel.iid(2, 1.0)) == "overlap"
    model = tn.RiskModel.iid(2, 1.0)
    for draw in (lambda: tn.sample_adjacency(net, seed=1),
                 lambda: sample_losses(net, model, 10, seed=1),
                 lambda: tn.network.row_moment_sum(net, 0, 1.0, n_a=10)):
        with pytest.raises(CapacityError) as err:
            draw()
        assert err.value.limit == MIN_ROW_LIVE_PROB
    # a sparse law above the floor still draws (about 1e3 redraw rounds)
    sparse = tn.BipartiteNetwork(1, 1, 1e-3, tn.WeightSpec("point", 1.0, 1.0))
    assert tn.sample_adjacency(sparse, seed=1).entries[0, 0] == 1.0
