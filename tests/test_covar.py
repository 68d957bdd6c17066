import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailnet as tn
from tailnet.covar import (CovarQuery, GSpec, b2_inv_gaussian, b2_inv_independence,
                           b2_inv_mo, b2_inv_strong,
                           covar_asymptotic_model, eci_analytic_model,
                           gauss_level_function, gaussian_covar_exact,
                           h_gaussian, h_independence, h_mo, h_strong_dependence)
from tailnet.errors import DomainError, ReliabilityError


class TestVarEmpirical:
    def test_hand_example(self):
        assert tn.var_empirical(np.arange(1, 11), 0.3) == 7.0

    def test_exact_pareto_quantile(self):
        z = tn.sample(tn.RiskModel.iid(1, 1.0), 200_000, seed=17)[:, 0]
        assert tn.var_empirical(z, 0.01) == pytest.approx(100.0, rel=0.05)

    def test_gamma_near_one_returns_minimum(self):
        x = np.array([5.0, 2.0, 9.0])
        assert tn.var_empirical(x, 0.9999) == 2.0

    def test_rejects_empty_and_bad_gamma(self):
        with pytest.raises(DomainError):
            tn.var_empirical([], 0.5)
        with pytest.raises(DomainError):
            tn.var_empirical([1.0], 1.0)


class TestCovarEmpirical:
    def test_hand_example(self):
        y1 = np.array([1.0, 2, 3, 4, 5, 6])
        y2 = np.array([6.0, 5, 4, 3, 2, 1])
        got = tn.covar_empirical(y1, y2, 0.5, 1.0 / 3.0, min_exceed=1)
        assert got == 1.0

    def test_reliability_floor(self):
        y = np.linspace(1, 100, 100)
        with pytest.raises(ReliabilityError) as err:
            tn.covar_empirical(y, y, 0.5, 0.05)
        assert err.value.count == 5

    @given(st.floats(0.05, 0.9), st.floats(0.05, 0.9), st.floats(0.1, 10.0),
           st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, g1, g2, c, seed):
        g = np.random.default_rng(seed)
        y1, y2 = g.pareto(1.5, 400) + 1, g.pareto(1.5, 400) + 1
        base = tn.covar_empirical(y1, y2, g1, g2, min_exceed=1)
        scaled = tn.covar_empirical(c * y1, c * y2, g1, g2, min_exceed=1)
        assert scaled == pytest.approx(c * base, rel=1e-12)
        assert tn.var_empirical(c * y1, g1) == pytest.approx(
            c * tn.var_empirical(y1, g1), rel=1e-12)

    @given(st.floats(0.05, 0.45), st.floats(0.5, 0.9), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_gamma1(self, g1a, g2, seed):
        g = np.random.default_rng(seed)
        y1, y2 = g.pareto(1.0, 500) + 1, g.pareto(1.0, 500) + 1
        lo = tn.covar_empirical(y1, y2, g1a, g2, min_exceed=1)
        hi = tn.covar_empirical(y1, y2, g1a + 0.5, g2, min_exceed=1)
        assert hi <= lo

    @given(st.integers(2, 40), st.sampled_from([0.5, 0.25, 0.125, 0.75]),
           st.floats(0.05, 0.95), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_comonotone_consistency(self, blocks, gamma2, g1, seed):
        # with n * gamma2 integral (binary-exact here), duplicated coordinates
        # give exactly CoVaR_{g1|g2} = VaR_{g1 g2}; skip draws where a ceiling
        # argument sits within float epsilon of an integer
        from hypothesis import assume
        n = 8 * blocks
        m = round(n * gamma2)
        for arg in (m * (1.0 - g1), n * (1.0 - g1 * gamma2)):
            assume(min(arg % 1.0, 1.0 - arg % 1.0) > 1e-6)
        g = np.random.default_rng(seed)
        y = np.sort(g.random(n) * 100)
        got = tn.covar_empirical(y, y, g1, gamma2, min_exceed=1)
        assert got == tn.var_empirical(y, g1 * gamma2)


class TestHFunction:
    def test_strong_dependence_branch(self):
        h = h_strong_dependence(2.0)
        assert h.r == 1.0 and h.l == 1.0
        assert h.value(0.5) == 1.0
        assert h.inverse(0.25) == pytest.approx(0.25 ** -0.5)
        with pytest.raises(DomainError):
            h.inverse(1.5)

    def test_mo_two_sided_inverse(self):
        h = h_mo("equal", 1.0)
        assert h.r == math.inf
        assert h.inverse(0.25) == pytest.approx(4.0)     # y^-1 branch
        assert h.inverse(4.0) == pytest.approx(1.0 / 16.0)  # y^-(1/2) branch
        assert h.value(h.inverse(7.3)) == pytest.approx(7.3, rel=1e-12)

    def test_gaussian_single_piece(self):
        h = h_gaussian(0.5, 1.0)
        ups = 1.5 ** 1.5 / (2 * math.pi * math.sqrt(0.5))
        assert h.value(1.0) == pytest.approx(ups)
        assert h.inverse(ups / 8.0) == pytest.approx(8.0 ** 1.5, rel=1e-12)


class TestGenericSpecificAgreement:
    def test_mo_randomized_sweep(self):
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(300):
            alpha = rng.uniform(0.5, 3.0)
            theta = rng.uniform(0.5, 2.0)
            beta = rng.uniform(0.0, 1.2)
            ups = rng.uniform(0.05, 0.95)
            gam = 10.0 ** rng.uniform(-6, -2)
            for variant in ("equal", "proportional"):
                if not 0 < ups * gam ** beta < 1:
                    continue
                h = h_mo(variant, alpha)
                b2 = b2_inv_mo(variant, alpha, theta)
                generic = tn.covar_asymptotic_generic(
                    h, b2, (theta / gam) ** (1 / alpha),
                    CovarQuery(gam, ups, GSpec(beta)))
                direct = tn.covar_asymptotic_mo(variant, alpha, theta, beta,
                                                ups, gam)
                assert generic == pytest.approx(direct, rel=1e-12)
                checked += 1
        assert checked > 400

    def test_gaussian_randomized_sweep(self):
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(200):
            alpha = rng.uniform(0.5, 3.0)
            theta = rng.uniform(0.5, 2.0)
            rho = rng.uniform(-0.8, 0.9)
            ups = rng.uniform(0.05, 0.95)
            gam = 10.0 ** rng.uniform(-6, -2)
            g = gauss_level_function(rho, alpha)
            if not 0 < ups * g(gam) < 1:
                continue
            generic = tn.covar_asymptotic_generic(
                h_gaussian(rho, alpha), b2_inv_gaussian(rho, alpha, theta),
                (theta / gam) ** (1 / alpha), CovarQuery(gam, ups, g))
            direct = tn.covar_asymptotic_gauss(alpha, theta, rho, ups, gam, g)
            assert generic == pytest.approx(direct, rel=1e-12)
            checked += 1
        assert checked > 150

    def test_strong_and_independent_reference_forms(self):
        alpha, theta, ups, gam = 1.5, 1.0, 0.4, 1e-3
        var_g = (theta / gam) ** (1 / alpha)
        strong = tn.covar_asymptotic_generic(
            h_strong_dependence(alpha), b2_inv_strong(alpha, theta), var_g,
            CovarQuery(gam, ups, GSpec(0.0)))
        assert strong == pytest.approx(ups ** (-1 / alpha) * var_g, rel=1e-12)
        indep = tn.covar_asymptotic_generic(
            h_independence(alpha), b2_inv_independence(alpha, theta), var_g,
            CovarQuery(gam, ups, GSpec(1.0)))
        assert indep == pytest.approx(ups ** (-1 / alpha) * var_g, rel=1e-12)

    def test_regime_c_argument_rejected(self):
        # strong dependence has r = 1: with a scale argument out of line with
        # gamma the composed argument lands at or above r and is refused
        alpha, theta = 1.0, 1.0
        with pytest.raises(DomainError, match="regime"):
            tn.covar_asymptotic_generic(
                h_strong_dependence(alpha), b2_inv_strong(alpha, theta),
                1e9, CovarQuery(1e-3, 0.9, GSpec(0.0)))


class TestMoCovar:
    def test_pinned_example(self):
        got = tn.covar_asymptotic_mo("equal", 1.0, 1.0, 0.5, 0.5, 1e-4)
        assert got == pytest.approx(2.0e4, rel=1e-12)

    def test_boundary_continuity_in_beta(self):
        lo = tn.covar_asymptotic_mo("equal", 1.0, 1.0, 0.5 - 1e-12, 0.5, 1e-4)
        hi = tn.covar_asymptotic_mo("equal", 1.0, 1.0, 0.5 + 1e-12, 0.5, 1e-4)
        assert lo == pytest.approx(hi, rel=1e-9)

    def test_proportional_upsilon_one_gives_var(self):
        gam = 1e-4
        got = tn.covar_asymptotic_mo("proportional", 1.0, 1.0, 1.0 / 3.0, 1.0, gam)
        assert got == pytest.approx(1.0 / gam, rel=1e-12)

    def test_mc_cross_check(self):
        # MO equal, alpha = theta = 1, beta = 1/2: the closed form is exact
        # for exact Pareto margins, so the gap is pure quantile noise
        gam, ups = 1e-3, 0.5
        model = tn.RiskModel.marshall_olkin(2, "equal", 1.0)
        z = tn.sample(model, 2_000_000, seed=100)
        emp = tn.covar_empirical(z[:, 0], z[:, 1], ups * math.sqrt(gam), gam)
        asym = tn.covar_asymptotic_mo("equal", 1.0, 1.0, 0.5, ups, gam)
        assert emp / asym == pytest.approx(1.0, abs=0.35)


class TestGaussCovar:
    def test_rho_zero_collapses_to_independence(self):
        got = tn.covar_asymptotic_gauss(1.0, 1.0, 0.0, 0.4, 1e-3, GSpec(1.0))
        assert got == pytest.approx(0.4 ** -1.0 * 1e3, rel=1e-12)

    def test_growth_condition_enforced(self):
        with pytest.raises(DomainError):
            tn.covar_asymptotic_gauss(1.0, 1.0, 0.5, 0.4, 1e-3, GSpec(0.1))

    def test_exact_oracle_matches_independence_case(self):
        # rho = 0: CoVaR is exactly VaR at the level
        got = gaussian_covar_exact(1.0, 1.0, 0.0, 1e-3, 0.02)
        assert got == pytest.approx(50.0, rel=1e-6)

    def test_eci_value(self):
        model = tn.RiskModel.gaussian(tn.CorrelationMatrix.equicorrelation(2, 0.5), 1.0)
        assert eci_analytic_model(model).eci == pytest.approx(3.0)

    def test_mc_cross_check_large_sample(self):
        rho, alpha, ups, gam = 0.5, 1.0, 1.0, 1e-4
        g = gauss_level_function(rho, alpha)
        model = tn.RiskModel.gaussian(tn.CorrelationMatrix.equicorrelation(2, rho),
                                      alpha)
        z = tn.sample(model, 100_000_000, seed=3, threads=4)
        emp = tn.covar_empirical(z[:, 0], z[:, 1], ups * g(gam), gam)
        asym = tn.covar_asymptotic_gauss(alpha, 1.0, rho, ups, gam, g)
        assert 0.7 < emp / asym < 1.3


class TestEci:
    def test_table(self):
        assert tn.eci(1.0, 1.0).eci == math.inf
        assert tn.eci(1.0, 2.0).eci == 1.0
        assert eci_analytic_model(tn.RiskModel.iid(2, 1.0)).eci == 1.0
        assert eci_analytic_model(
            tn.RiskModel.marshall_olkin(2, "equal", 1.0)).eci == pytest.approx(2.0)
        assert eci_analytic_model(
            tn.RiskModel.marshall_olkin(2, "proportional", 1.0)).eci == \
            pytest.approx(3.0)
        third = tn.RiskModel.gaussian(
            tn.CorrelationMatrix.equicorrelation(2, 1.0 / 3.0), 2.0)
        assert eci_analytic_model(third).eci == pytest.approx(2.0)

    def test_rejects_inverted_indices(self):
        with pytest.raises(DomainError):
            tn.eci(2.0, 1.0)

    def test_empirical_strong_dependence_is_infinite(self):
        y = tn.sample(tn.RiskModel.iid(1, 1.0), 400_000, seed=23)[:, 0]
        rep = tn.eci_empirical(y, y, [0.05, 0.02, 0.008, 0.003, 0.001], 0.25)
        assert rep.eci == math.inf

    def test_empirical_independent_near_one(self):
        z = tn.sample(tn.RiskModel.iid(2, 1.0), 2_000_000, seed=24)
        rep = tn.eci_empirical(z[:, 0], z[:, 1],
                               [0.05, 0.02, 0.008, 0.003, 0.001], 0.25)
        assert rep.eci == pytest.approx(1.0, abs=0.2)
        assert rep.band_factor == 2.0

    def test_empirical_mo_equal_near_two(self):
        z = tn.sample(tn.RiskModel.marshall_olkin(2, "equal", 1.0),
                      2_000_000, seed=25)
        rep = tn.eci_empirical(z[:, 0], z[:, 1],
                               [0.05, 0.02, 0.008, 0.003, 0.001], 0.25)
        assert rep.eci == pytest.approx(2.0, abs=0.5)

    def test_empirical_grid_span_and_reliability(self):
        y = np.linspace(1, 2, 1000)
        with pytest.raises(DomainError):
            tn.eci_empirical(y, y, [0.02, 0.01], 0.5)
        with pytest.raises(ReliabilityError):
            tn.eci_empirical(y[:50], y[:50], [0.1, 0.01, 0.003, 0.001], 0.5)


class TestModelDispatch:
    def test_iid_closed_form(self):
        model = tn.RiskModel.iid(2, 2.0, 3.0)
        val, g = covar_asymptotic_model(model, 1e-3, 0.5)
        assert g.beta == 1.0
        assert val == pytest.approx((3.0 / (0.5 * 1e-3)) ** 0.5, rel=1e-12)

    def test_requires_bivariate(self):
        with pytest.raises(DomainError):
            covar_asymptotic_model(tn.RiskModel.iid(3, 1.0), 1e-3, 0.5)


def test_h_value_above_a_breakpoint_reads_the_next_piece():
    from tailnet.covar import HFunction
    h = HFunction(breakpoints=(1.0, 4.0),
                  pieces=((3.0, 0.0), (3.0, -0.5), (6.0, -1.0)))
    assert h.value(1.0) == 3.0
    assert h.value(2.25) == 3.0 * 2.25 ** -0.5
    assert h.value(8.0) == 6.0 / 8.0
    assert h_strong_dependence(2.0).value(4.0) == 4.0 ** -2.0


def test_bivariate_gaussian_scale_is_the_closed_form():
    # b2^{-1}(t) = (2 pi)^{-1/(1+rho)} theta^{-2/(1+rho)} t^{2 alpha/(1+rho)}
    #              * (2 alpha log t)^{rho/(1+rho)}
    rng = np.random.default_rng(19)
    for _ in range(200):
        rho, alpha = rng.uniform(-0.8, 0.9), rng.uniform(0.5, 3.0)
        theta, t = rng.uniform(0.5, 2.0), 10.0 ** rng.uniform(0.5, 8.0)
        g2 = 2.0 / (1.0 + rho)
        want = ((2.0 * math.pi) ** (-g2 / 2.0) * theta ** -g2
                * t ** (alpha * g2)
                * (2.0 * alpha * math.log(t)) ** ((2.0 - g2) / 2.0))
        assert b2_inv_gaussian(rho, alpha, theta)(t) == pytest.approx(
            want, rel=1e-12)
        assert b2_inv_strong(alpha, theta)(t) == pytest.approx(
            t ** alpha / theta, rel=1e-14)
