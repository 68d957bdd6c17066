import math

import numpy as np
import pytest
from scipy.special import ndtri

import tailnet as tn
from tailnet.copula import BernsteinMixture
from tailnet.errors import DegenerateQpError, DomainError, ModelError
from tailnet.harness import brute_force_qp
from tailnet.mrv import PowerLog, RectSet
from tailnet.orthant import bivariate_normal_survival

from conftest import random_correlation

SQ2 = math.sqrt(2.0)


def matrix_06():
    """3x3 correlation with rho_12 = 0.6 and rho_13 = rho_23 = 0.6 sqrt(2)."""
    r = 0.6
    return np.array([[1, r, r * SQ2], [r, 1, r * SQ2], [r * SQ2, r * SQ2, 1]])


class TestSolveQp:
    def test_identity(self):
        sol = tn.solve_qp(np.eye(3))
        assert sol.index_set == (0, 1, 2)
        assert sol.gamma == pytest.approx(3.0, rel=1e-14)
        assert np.allclose(sol.e_star, 1.0)
        assert np.allclose(sol.h, 1.0)

    def test_equicorrelation_pair(self):
        sol = tn.solve_qp(tn.CorrelationMatrix.equicorrelation(2, 0.5))
        assert sol.gamma == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert np.allclose(sol.e_star, 1.0)
        assert np.allclose(sol.h, 2.0 / 3.0)

    def test_three_dim_partial_active_set(self):
        sol = tn.solve_qp(matrix_06())
        assert sol.index_set == (0, 1)
        assert sol.gamma == pytest.approx(1.25, rel=1e-12)
        assert sol.e_star[2] == pytest.approx(0.6 * SQ2 * 1.25, rel=1e-12)
        # oracle: independent numeric minimization
        val, arg = brute_force_qp(matrix_06())
        assert val == pytest.approx(sol.gamma, rel=1e-8)
        assert np.allclose(arg, sol.e_star, atol=1e-5)

    def test_oracle_equivalence_on_random_matrices(self, corr_rng):
        for d in (2, 3, 4, 5):
            for _ in range(8):
                sigma = random_correlation(d, corr_rng)
                sol = tn.solve_qp(sigma)
                val, _ = brute_force_qp(sigma, grid_step=0.25)
                assert val == pytest.approx(sol.gamma, rel=1e-6)

    def test_degenerate_enumeration_reports_candidates(self):
        # force an impossible tolerance so no candidate passes
        with pytest.raises(DegenerateQpError) as err:
            tn.solve_qp(np.eye(2), tol=2.0)
        assert err.value.candidates == []


class TestGaussianConeSpec:
    def test_equicorrelation_formula(self):
        alpha, theta, rho = 1.3, 0.7, 0.5
        sig = tn.CorrelationMatrix.equicorrelation(4, rho)
        for i in range(1, 5):
            spec = tn.gaussian_cone_spec(sig, alpha, theta, i)
            assert spec.alpha_i == pytest.approx(
                alpha * i / (1.0 + (i - 1) * rho), rel=1e-12)
        spec2 = tn.gaussian_cone_spec(sig, alpha, theta, 2)
        assert spec2.card_i == 2
        assert len(spec2.argmin_sets) == 6  # all pairs of a 4-set

    def test_identity_gives_multiples(self):
        sig = np.eye(4)
        for i in range(1, 5):
            assert tn.gaussian_cone_spec(sig, 2.0, 1.0, i).alpha_i == pytest.approx(
                2.0 * i, rel=1e-12)

    def test_first_cone_scale_is_pure_power(self):
        spec = tn.gaussian_cone_spec(np.eye(3), 1.5, 2.0, 1)
        assert spec.b_inv == PowerLog(c=0.5, a=1.5)
        assert spec.alpha_i == 1.5

    def test_b_inv_power_log_coefficients(self):
        alpha, theta = 1.0, 1.0
        sig = tn.CorrelationMatrix.equicorrelation(2, 0.5)
        spec = tn.gaussian_cone_spec(sig, alpha, theta, 2)
        g2 = 4.0 / 3.0
        assert spec.b_inv.c == pytest.approx((2 * math.pi) ** (-g2 / 2), rel=1e-12)
        assert spec.b_inv.a == pytest.approx(alpha * g2, rel=1e-12)
        assert spec.b_inv.p == pytest.approx((2 - g2) / 2, rel=1e-12)
        assert spec.b_inv.lam == pytest.approx(2 * alpha)

    def test_strict_ordering_of_indices(self, corr_rng):
        for d in (2, 3, 4):
            for _ in range(6):
                sig = random_correlation(d, corr_rng)
                specs = [tn.gaussian_cone_spec(sig, 1.0, 1.0, i).alpha_i
                         for i in range(1, d + 1)]
                assert all(a < b for a, b in zip(specs, specs[1:]))

    def test_json_serialization(self):
        spec = tn.gaussian_cone_spec(tn.CorrelationMatrix.equicorrelation(3, 0.5),
                                     1.0, 1.0, 2)
        doc = spec.to_json()
        assert doc["i"] == 2 and doc["cardI"] == 2
        assert [1, 2] in doc["argmin_sets"]
        assert set(doc["binv"]) == {"c", "a", "p", "kappa", "lambda"}


class TestGaussianMu:
    def test_bivariate_constant(self):
        for rho in (-0.3, 0.0, 0.5):
            sig = tn.CorrelationMatrix.equicorrelation(2, rho)
            got = tn.gaussian_mu(sig, 1.0, 2, RectSet(2, (0, 1), (1.0, 1.0)))
            expect = (1 + rho) ** 1.5 / (2 * math.pi * math.sqrt(1 - rho))
            assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_homogeneity(self, lam, corr_rng):
        sig = random_correlation(3, corr_rng)
        alpha = 1.7
        z = np.array([0.8, 1.3, 2.1])
        for i in (2, 3):
            spec = tn.gaussian_cone_spec(sig, alpha, 1.0, i)
            base = tn.gaussian_mu(sig, alpha, i, RectSet(3, (0, 1, 2), tuple(z)))
            scaled = tn.gaussian_mu(sig, alpha, i, RectSet(3, (0, 1, 2), tuple(lam * z)))
            assert scaled == pytest.approx(lam ** -spec.alpha_i * base, rel=1e-12)

    def test_non_argmin_pair_has_zero_mass(self):
        sig = matrix_06()
        assert tn.gaussian_mu(sig, 1.0, 2, RectSet(3, (0, 1), (1.0, 1.0))) == 0.0
        assert tn.gaussian_mu(sig, 1.0, 2, RectSet(3, (0, 2), (1.0, 1.0))) > 0.0

    def test_inactive_coordinate_drops_out(self):
        # I = {1,2} for the full set; mass depends on z1, z2 only
        sig = matrix_06()
        a = tn.gaussian_mu(sig, 1.0, 3, RectSet(3, (0, 1, 2), (1.0, 1.0, 1.0)))
        b = tn.gaussian_mu(sig, 1.0, 3, RectSet(3, (0, 1, 2), (1.0, 1.0, 7.0)))
        rho = 0.6
        expect = (1 + rho) ** 1.5 / (2 * math.pi * math.sqrt(1 - rho))
        assert a == pytest.approx(expect, rel=1e-12)
        assert b == pytest.approx(a, rel=1e-12)

    def test_borderline_inactive_coordinate_gets_half_orthant(self):
        # at rho = 1/(2 sqrt(2) - 1) the third coordinate of the minimizer
        # sits exactly on the e* = 1 boundary: the residual orthant factor is
        # P(Y3 >= 0) = 1/2 and the case is flagged
        rho = 1.0 / (2.0 * SQ2 - 1.0)
        sig = np.array([[1, rho, rho * SQ2], [rho, 1, rho * SQ2],
                        [rho * SQ2, rho * SQ2, 1]])
        sol = tn.solve_qp(sig)
        assert sol.index_set == (0, 1)
        assert sol.e_star[2] == pytest.approx(1.0, abs=1e-12)
        with pytest.warns(RuntimeWarning, match="boundary"):
            got = tn.gaussian_mu(sig, 1.0, 3, RectSet(3, (0, 1, 2),
                                                      (1.0, 1.0, 1.0)))
        expect = (1 + rho) ** 1.5 / (4 * math.pi * math.sqrt(1 - rho))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_first_cone_axes_only(self):
        sig = np.eye(2)
        assert tn.gaussian_mu(sig, 2.0, 1, RectSet(2, (0,), (3.0,))) == \
            pytest.approx(3.0 ** -2.0)
        assert tn.gaussian_mu(sig, 2.0, 1, RectSet(2, (0, 1), (1.0, 1.0))) == 0.0

    def test_requires_enough_coordinates(self):
        with pytest.raises(DomainError):
            tn.gaussian_mu(np.eye(3), 1.0, 2, RectSet(3, (0,), (1.0,)))


class TestGaussianTailAsymptotic:
    def test_independence_is_exact_product(self):
        sig = np.eye(2)
        rect = RectSet(2, (0, 1), (1.0, 1.0))
        for t in (10.0, 1e3):
            got = tn.gaussian_tail_asymptotic(sig, 1.0, 2.0, rect, t)
            assert got == pytest.approx((2.0 * t ** -1.0) ** 2, rel=1e-12)

    def test_matches_orthant_oracle_at_large_t(self):
        sig = tn.CorrelationMatrix.equicorrelation(2, 0.5)
        rect = RectSet(2, (0, 1), (1.0, 1.0))
        t = 1e6
        asym = tn.gaussian_tail_asymptotic(sig, 1.0, 1.0, rect, t)
        h = -float(ndtri(t ** -1.0))
        exact = bivariate_normal_survival(h, h, 0.5)
        assert 0.75 < asym / exact < 1.25

    def test_doubling_scaling(self):
        sig = tn.CorrelationMatrix.equicorrelation(2, 0.5)
        rect = RectSet(2, (0, 1), (1.0, 1.0))
        t = 1e5
        a, b = (tn.gaussian_tail_asymptotic(sig, 1.0, 1.0, rect, s)
                for s in (t, 2 * t))
        gamma = 4.0 / 3.0
        assert b / a == pytest.approx(2.0 ** -gamma, rel=5.0 / math.log(t))

    def test_small_t_rejected(self):
        with pytest.raises(DomainError):
            tn.gaussian_tail_asymptotic(np.eye(2), 1.0, 1.0,
                                        RectSet(2, (0, 1), (1.0, 1.0)), 0.9)


class TestMoConeSpec:
    def test_equal_indices(self):
        alpha = 1.0
        for i, expect in ((1, 1.0), (2, 1.5), (3, 1.75)):
            spec = tn.mo_cone_spec("equal", alpha, 1.0, 3, i)
            assert spec.alpha_i == pytest.approx(expect * alpha, rel=1e-14)

    def test_proportional_bivariate(self):
        assert tn.mo_cone_spec("proportional", 1.0, 1.0, 2, 1).alpha_i == \
            pytest.approx(1.0)
        assert tn.mo_cone_spec("proportional", 1.0, 1.0, 2, 2).alpha_i == \
            pytest.approx(4.0 / 3.0)

    def test_scale_is_pure_power(self):
        spec = tn.mo_cone_spec("equal", 2.0, 3.0, 2, 2)
        assert spec.b_inv.p == 0.0
        assert spec.b_inv.a == pytest.approx(3.0)        # alpha_2 = 1.5 alpha
        assert spec.b_inv.c == pytest.approx(3.0 ** -1.5)

    def test_general_variant_rejected(self):
        with pytest.raises(ModelError):
            tn.mo_cone_spec("general", 1.0, 1.0, 2, 1)


class TestMoMu:
    def test_order_statistic_example(self):
        got = tn.mo_mu("equal", 1.0, 2, 2, RectSet(2, (0, 1), (2.0, 3.0)))
        assert got == pytest.approx(3.0 ** -1 * 2.0 ** -0.5, rel=1e-14)

    def test_zero_off_order(self):
        assert tn.mo_mu("equal", 1.0, 3, 2, RectSet(3, (0, 1, 2), (1.0, 1.0, 1.0))) == 0.0

    def test_homogeneity(self):
        z = (0.7, 2.2)
        base = tn.mo_mu("proportional", 1.5, 4, 2, RectSet(4, (1, 3), z))
        alpha2 = tn.mo_cone_spec("proportional", 1.5, 1.0, 4, 2).alpha_i
        scaled = tn.mo_mu("proportional", 1.5, 4, 2,
                          RectSet(4, (1, 3), tuple(2 * v for v in z)))
        assert scaled == pytest.approx(2.0 ** -alpha2 * base, rel=1e-12)

    def test_nesting_equal_holds_proportional_fails(self):
        z = (1.4, 0.6)
        big = tn.mo_mu("equal", 1.0, 3, 2, RectSet(3, (0, 2), z))
        small = tn.mo_mu("equal", 1.0, 2, 2, RectSet(2, (0, 1), z))
        assert big == pytest.approx(small, rel=1e-14)
        big_p = tn.mo_mu("proportional", 1.0, 3, 2, RectSet(3, (0, 2), z))
        small_p = tn.mo_mu("proportional", 1.0, 2, 2, RectSet(2, (0, 1), z))
        assert abs(big_p - small_p) > 1e-3


class TestAsymptoticIndependenceClassification:
    def test_equicorrelation_is_mutual(self):
        assert tn.mutual_ai_gaussian(tn.CorrelationMatrix.equicorrelation(4, 0.5))
        assert tn.mutual_ai_gaussian(np.eye(3))

    def test_unbalanced_matrix_is_not_mutual(self):
        assert not tn.mutual_ai_gaussian(matrix_06())
        assert tn.pairwise_ai_gaussian(matrix_06())

    def test_mutual_implies_pairwise_subset_condition(self, corr_rng):
        found = 0
        for _ in range(20):
            sig = random_correlation(3, corr_rng)
            if tn.mutual_ai_gaussian(sig):
                found += 1
                m = sig.entries
                for i in range(3):
                    for j in range(i + 1, 3):
                        sub = m[np.ix_([i, j], [i, j])]
                        assert np.all(np.linalg.solve(sub, np.ones(2)) > 0)
        assert found > 0


class TestSupportMass:
    def test_examples(self):
        sig = tn.CorrelationMatrix.equicorrelation(3, 0.5)
        assert tn.gaussian_support_mass(sig, 2, (0, 1))
        assert tn.gaussian_support_mass(sig, 1, (2,))
        assert not tn.gaussian_support_mass(matrix_06(), 2, (0, 1))
        assert tn.gaussian_support_mass(matrix_06(), 2, (1, 2))

    def test_matches_mu_positivity(self, corr_rng):
        for _ in range(5):
            sig = random_correlation(3, corr_rng)
            for pair in ((0, 1), (0, 2), (1, 2)):
                mass = tn.gaussian_mu(sig, 1.0, 2, RectSet(3, pair, (1.0, 1.0)))
                assert tn.gaussian_support_mass(sig, 2, pair) == (mass > 0)


class TestEmpiricalAiRatio:
    def test_iid_ratio_is_u(self):
        model = tn.RiskModel.iid(3, 1.0)
        rows = tn.empirical_ai_ratio(model, (0, 1, 2), 2, [0.1, 0.01], n=0, seed=0)
        for row in rows:
            assert row.ratio == pytest.approx(row.u, rel=1e-12)
            assert row.reliable

    def test_mo_equal_ratio_is_sqrt_u(self):
        model = tn.RiskModel.marshall_olkin(2, "equal", 1.0)
        rows = tn.empirical_ai_ratio(model, (0, 1), 1, [0.25, 0.04], n=0, seed=0)
        for row in rows:
            assert row.ratio == pytest.approx(math.sqrt(row.u), rel=1e-12)

    def test_mixture_ratio_tends_to_one(self):
        rows = tn.empirical_ai_ratio(BernsteinMixture(), (0, 1, 2), 2,
                                     [0.05, 0.02], n=2_000_000, seed=5)
        for row in rows:
            assert row.reliable
            assert abs(row.ratio - 1.0) <= max(3 * row.stderr, 1e-9)

    def test_gaussian_mc_mode_runs_and_flags(self):
        model = tn.RiskModel.gaussian(tn.CorrelationMatrix.equicorrelation(2, 0.5), 1.0)
        rows = tn.empirical_ai_ratio(model, (0, 1), 1, [0.2, 1e-4], n=100_000, seed=1)
        assert rows[0].reliable
        assert not rows[1].reliable  # ~ states far too few joint hits

    def test_grid_validation(self):
        model = tn.RiskModel.iid(2, 1.0)
        with pytest.raises(DomainError):
            tn.empirical_ai_ratio(model, (0, 1), 1, [0.01, 0.1], n=0, seed=0)
        with pytest.raises(DomainError):
            tn.empirical_ai_ratio(model, (0, 1), 2, [0.1], n=0, seed=0)


class TestMu2VersusExactOrthant:
    @pytest.mark.parametrize("rho", [-0.3, 0.0, 0.5])
    def test_exact_orthant_times_scale_approaches_mu(self, rho):
        sig = tn.CorrelationMatrix.equicorrelation(2, rho)
        spec = tn.gaussian_cone_spec(sig, 1.0, 1.0, 2)
        mu = tn.gaussian_mu(sig, 1.0, 2, RectSet(2, (0, 1), (1.0, 1.0)))
        t = 1e8
        h = -float(ndtri(t ** -1.0))
        exact = bivariate_normal_survival(h, h, rho)
        assert exact * float(spec.b_inv(t)) == pytest.approx(mu, rel=0.2)


class TestInactiveThresholdChoice:
    def test_triple_over_pair_ratio_trends_to_one(self):
        # e*_3 > 1 strictly: the third coordinate's exceedance comes for free,
        # so P(all three large) / P(first two large) -> 1 (factor 1, not 1/2)
        sig = matrix_06()
        from tailnet.orthant import normal_orthant_survival
        ratios = []
        for t in (1e4, 1e6, 1e8):
            h = -float(ndtri(t ** -1.0))
            trip = normal_orthant_survival([h, h, h], sig, rel_tol=1e-4)
            pair = bivariate_normal_survival(h, h, 0.6)
            ratios.append(trip / pair)
        assert ratios[0] < ratios[1] < ratios[2] <= 1.0 + 1e-6
        assert ratios[2] > 0.8


@pytest.mark.parametrize("model", [
    tn.RiskModel.gaussian(tn.CorrelationMatrix.equicorrelation(2, 0.5), 1.0),
    BernsteinMixture()], ids=["gaussian", "mixture"])
def test_monte_carlo_ai_ratio_refuses_an_empty_sample(model):
    with pytest.raises(DomainError, match="sample size"):
        tn.empirical_ai_ratio(model, (0, 1), 1, [0.1], n=0, seed=0)


@pytest.mark.parametrize("j, z, t", [(0, 1.0, 10.0), (2, 2.5, 1e4)])
def test_gaussian_tail_asymptotic_of_one_coordinate_is_the_margin_tail(j, z, t):
    sig = tn.CorrelationMatrix.equicorrelation(3, 0.5)
    alpha, theta = 1.7, 0.6
    got = tn.gaussian_tail_asymptotic(sig, alpha, theta, RectSet(3, (j,), (z,)), t)
    assert got == theta * (t * z) ** -alpha


def test_upsilon_without_a_boundary_coordinate_takes_no_integral(monkeypatch):
    # r = 0.6: I = (0, 1) and e*_3 = 1.0607, off the e* = 1 boundary
    def refuse(*args, **kwargs):
        raise AssertionError("orthant integral taken")

    monkeypatch.setattr(tn.mrv, "normal_orthant_survival", refuse)
    m = matrix_06()
    sol = tn.solve_qp(m)
    assert sol.index_set == (0, 1)
    assert sol.e_star[2] == pytest.approx(1.0607, abs=1e-4)
    assert tn.mrv.upsilon_constant(m, sol) == 0.5092958178940651


def test_upsilon_on_the_boundary_warns_once_and_keeps_its_value():
    rho = 1.0 / (2.0 * SQ2 - 1.0)
    m = np.array([[1, rho, rho * SQ2], [rho, 1, rho * SQ2],
                  [rho * SQ2, rho * SQ2, 1]])
    sol = tn.solve_qp(m)
    with pytest.warns(RuntimeWarning, match="boundary") as caught:
        got = tn.mrv.upsilon_constant(m, sol)
    assert len(caught) == 1
    assert got == 0.227458837715223
