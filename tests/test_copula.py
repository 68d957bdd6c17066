import itertools
import math

import numpy as np
import pytest
from scipy.stats import kstest

import tailnet as tn
from tailnet import rng
from tailnet.copula import SCORE_TOL, BernsteinMixture, block_sampler
from tailnet.errors import CapacityError, DomainError, ModelError
from tailnet.orthant import bivariate_normal_survival

KS_99 = 1.628  # one-sample Kolmogorov-Smirnov critical value at 99%


def mo2(variant="equal", alpha=1.0, theta=1.0):
    return tn.RiskModel.marshall_olkin(2, variant, alpha, theta)


class TestParetoMargin:
    def test_roundtrip_and_floor(self):
        m = tn.ParetoMargin(2.0, 3.0)
        u = np.array([0.5, 0.1, 1e-6])
        assert np.allclose(m.sf(m.quantile_tail(u)), u)
        assert m.sf(m.support_floor * 0.5) == 1.0
        assert m.var(0.01) == pytest.approx((3.0 / 0.01) ** 0.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelError):
            tn.ParetoMargin(0.0, 1.0)
        with pytest.raises(ModelError):
            tn.ParetoMargin(1.0, -2.0)


class TestSurvivalCopula:
    def test_iid_is_product(self):
        m = tn.RiskModel.iid(3, 1.0)
        assert tn.survival_copula(m, [0.1, 0.1, 0.1]) == pytest.approx(1e-3, rel=1e-14)

    def test_mo_equal_closed_form(self):
        # (u1 u2)^(1/2) * min(u1, u2)^(1/2) with all exponents 1/2
        val = tn.survival_copula(mo2(), [0.04, 0.01])
        assert val == pytest.approx(0.002, rel=1e-12)

    def test_mo_diagonal_power(self):
        m = mo2()
        for u in (0.5, 0.1, 1e-3):
            assert tn.survival_copula(m, [u, u]) == pytest.approx(u ** 1.5, rel=1e-12)

    def test_gaussian_matches_quadrature_oracle_and_is_monotone_in_rho(self):
        from scipy.special import ndtri
        u = np.array([0.01, 0.01])
        vals = []
        for rho in (0.5, 0.9, 0.99):
            m = tn.RiskModel.gaussian(tn.CorrelationMatrix.equicorrelation(2, rho), 1.0)
            got = tn.survival_copula(m, u)
            h = -float(ndtri(0.01))
            oracle = bivariate_normal_survival(h, h, rho)
            assert got == pytest.approx(oracle, rel=1e-6)
            vals.append(got)
        assert vals[0] < vals[1] < vals[2] < 0.01
        # near the comonotone limit the joint level approaches u itself
        assert vals[2] > 0.5 * 0.0099

    def test_exchangeability(self):
        u = np.array([0.3, 0.05, 0.6])
        models = [tn.RiskModel.iid(3, 1.0),
                  tn.RiskModel.marshall_olkin(3, "equal", 1.0),
                  tn.RiskModel.marshall_olkin(3, "proportional", 1.0)]
        for m in models:
            base = tn.survival_copula(m, u)
            for perm in itertools.permutations(range(3)):
                assert tn.survival_copula(m, u[list(perm)]) == pytest.approx(
                    base, rel=1e-12)
        mg = tn.RiskModel.gaussian(tn.CorrelationMatrix.equicorrelation(3, 0.4), 1.0)
        base = tn.survival_copula(mg, u)
        for perm in itertools.permutations(range(3)):
            assert tn.survival_copula(mg, u[list(perm)]) == pytest.approx(
                base, rel=5e-3)

    def test_mo_mutual_ai_ratio_vanishes_on_grid(self):
        m = tn.RiskModel.marshall_olkin(3, "equal", 1.0)
        grid = [10.0 ** -k for k in range(1, 8)]
        prev_full = prev_ratio = None
        for u in grid:
            full = tn.survival_copula(m, [u, u, u])
            red = tn.survival_copula(m, [u, u, 1.0])
            if prev_full is not None:
                assert full < prev_full
                assert full / red < prev_ratio
            prev_full, prev_ratio = full, full / red
        # equal rates over d = 3 give C(u,u,u)/C(u,u) = u^(1/4) exactly
        assert prev_ratio == pytest.approx((1e-7) ** 0.25, rel=1e-10)

    def test_domain_errors(self):
        m = tn.RiskModel.iid(2, 1.0)
        with pytest.raises(DomainError):
            tn.survival_copula(m, [0.0, 0.5])
        with pytest.raises(DomainError):
            tn.survival_copula(m, [0.5, 1.5])


class TestMoEta:
    def test_named_variant_values(self):
        fam2 = tn.MoRateFamily(2, "equal")
        assert tn.mo_eta(fam2, 0, (0,)) == pytest.approx(0.5)
        fam3 = tn.MoRateFamily(3, "equal")
        assert tn.mo_eta(fam3, 0, (0, 1, 2)) == pytest.approx(0.25)
        prop = tn.MoRateFamily(2, "proportional")
        assert tn.mo_eta(prop, 0, (0, 1)) == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_eta_normalization_named(self, d):
        for variant in ("equal", "proportional"):
            fam = tn.MoRateFamily(d, variant)
            for j in range(d):
                total = sum(fam.eta(j, s)
                            for size in range(1, d + 1)
                            for s in itertools.combinations(range(d), size)
                            if j in s)
                assert total == pytest.approx(1.0, rel=1e-12)

    def test_eta_normalization_general_random_rates(self):
        g = np.random.default_rng(5)
        d = 4
        rates = {frozenset(s): float(g.uniform(0.1, 3.0))
                 for size in range(1, d + 1)
                 for s in itertools.combinations(range(d), size)}
        fam = tn.MoRateFamily(d, "general", rates)
        for j in range(d):
            total = sum(fam.eta(j, s) for s in rates if j in s)
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_eta_requires_membership(self):
        fam = tn.MoRateFamily(2, "equal")
        with pytest.raises(DomainError):
            fam.eta(0, (1,))

    def test_general_requires_full_cover(self):
        with pytest.raises(ModelError):
            tn.MoRateFamily(2, "general", {frozenset({0}): 1.0})


class TestSampling:
    @pytest.mark.parametrize("make", [
        lambda: tn.RiskModel.iid(2, 1.5, 2.0),
        lambda: tn.RiskModel.gaussian(tn.CorrelationMatrix.equicorrelation(3, 0.5), 1.0),
        lambda: tn.RiskModel.marshall_olkin(3, "proportional", 2.0, 0.5),
    ])
    def test_marginals_ks(self, make):
        model = make()
        n = 100_000
        z = tn.sample(model, n, seed=13)
        for j in range(model.d):
            stat = kstest(z[:, j], model.margin.cdf).statistic
            assert stat < KS_99 / math.sqrt(n)

    def test_iid_joint_tail_product(self):
        model = tn.RiskModel.iid(2, 1.0)
        n = 400_000
        z = tn.sample(model, n, seed=3)
        p = np.mean((z[:, 0] > 10) & (z[:, 1] > 10))
        se = math.sqrt(0.01 * 0.99 / n)
        assert abs(p - 0.01) < 3 * se

    def test_mo_equal_joint_survival(self):
        model = mo2()
        n = 1_000_000
        z = tn.sample(model, n, seed=4)
        target = 10.0 ** -1.5
        p = np.mean((z[:, 0] > 10) & (z[:, 1] > 10))
        se = math.sqrt(target * (1 - target) / n)
        assert abs(p - target) < 3 * se

    def test_gaussian_rho0_matches_iid_tail_counts(self):
        n = 200_000
        thr = tn.ParetoMargin(1.0).quantile_tail(0.05)
        zi = tn.sample(tn.RiskModel.iid(2, 1.0), n, seed=21)
        zg = tn.sample(tn.RiskModel.gaussian(np.eye(2), 1.0), n, seed=22)
        ki = int(np.sum((zi[:, 0] > thr) & (zi[:, 1] > thr)))
        kg = int(np.sum((zg[:, 0] > thr) & (zg[:, 1] > thr)))
        p = (ki + kg) / (2 * n)
        zstat = (ki - kg) / math.sqrt(2 * n * p * (1 - p))
        assert abs(zstat) < 3.5

    def test_determinism_and_thread_invariance(self):
        model = tn.RiskModel.marshall_olkin(3, "equal", 1.0)
        a = tn.sample(model, 50_000, seed=6, threads=1)
        b = tn.sample(model, 50_000, seed=6, threads=4)
        c = tn.sample(model, 50_000, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a[:100], c[:100])

    def test_mo_dimension_cap(self):
        big = tn.RiskModel.marshall_olkin(17, "equal", 1.0)
        with pytest.raises(CapacityError):
            tn.sample(big, 10, seed=0)
        z = tn.sample(big, 4, seed=0, mo_dim_cap=17)
        assert z.shape == (4, 17)

    def test_sample_rejects_bad_n(self):
        with pytest.raises(DomainError):
            tn.sample(tn.RiskModel.iid(2, 1.0), 0, seed=0)


class TestBernsteinMixture:
    def test_marginal_cdf_and_threshold(self):
        mix = BernsteinMixture()
        z = mix.tail_threshold(0.25)
        assert mix.marginal_cdf(z) == pytest.approx(0.75, rel=1e-12)

    def test_pair_survival_closed_form_value(self):
        # frozen from the closed form (sqrt(1 + 3u) - 1)^2 at u = 0.01
        mix = BernsteinMixture()
        assert mix.pair_survival(0.01) == pytest.approx(2.2168698155610657e-04,
                                                        rel=1e-10)
        assert mix.triple_survival(0.01) == mix.pair_survival(0.01)

    def test_sampled_marginal_ks(self):
        z = tn.bernstein_mixture_sample(100_000, seed=2)
        mix = BernsteinMixture()
        for j in range(3):
            stat = kstest(z[:, j], mix.marginal_cdf).statistic
            assert stat < KS_99 / math.sqrt(100_000)

    def test_empirical_pair_and_triple_ratios(self):
        mix = BernsteinMixture()
        u = 0.01
        n = 2_000_000
        z = tn.bernstein_mixture_sample(n, seed=8)
        thr = mix.tail_threshold(u)
        exceed = z > thr
        trip = float(np.mean(np.all(exceed, axis=1)))
        pair = float(np.mean(exceed[:, 0] & exceed[:, 1]))
        exact = mix.pair_survival(u)
        se = math.sqrt(exact / n)
        assert abs(trip - exact) < 3 * se
        assert abs(pair - exact) < 3 * se
        # the u^2 rate: ratio near 9/4 already at u = 0.01
        assert trip / u ** 2 == pytest.approx(2.25, rel=0.2)

    def test_determinism(self):
        a = tn.bernstein_mixture_sample(10_000, seed=3)
        b = tn.bernstein_mixture_sample(10_000, seed=3, threads=2)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("alpha,theta", [(math.inf, 1.0), (1.0, math.inf),
                                         (math.nan, 1.0), (1.0, math.nan)])
def test_pareto_margin_rejects_non_finite_parameters(alpha, theta):
    with pytest.raises(ModelError, match="finite"):
        tn.ParetoMargin(alpha, theta)



KERNEL_MODELS = {
    "iid": tn.RiskModel.iid(2, 1.5, 2.0),
    "gauss": tn.RiskModel.gaussian(
        tn.CorrelationMatrix.equicorrelation(2, 0.5), 1.5, 2.0),
    "mo-equal": mo2(alpha=1.5, theta=2.0),
}


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_block_kernel_draw_is_the_finished_score(name):
    kernel = block_sampler(KERNEL_MODELS[name])
    for size in (1, 1000, rng.chunk_rows(3) + 7):
        got = kernel(rng.philox_stream(3, 0, 1), size)
        want = kernel.finish(kernel.score(rng.philox_stream(3, 0, 1), size))
        assert got.shape == (size, 2)
        assert got.tobytes() == want.tobytes()


def one_ulp_run(y, steps):
    """``steps`` + 1 consecutive doubles from ``y`` up."""
    run = [y]
    for _ in range(steps):
        run.append(np.nextafter(run[-1], np.inf))
    return np.array(run)


def misorders_beyond_band(finish, scores):
    """Rows of both columns where the finish of an ascending run of scores
    is below that of a score more than the SCORE_TOL band lower."""
    loss = finish(np.column_stack([scores, scores]))
    peak = np.maximum.accumulate(loss, axis=0)
    below = np.searchsorted(
        scores, scores - SCORE_TOL * np.maximum(1.0, np.abs(scores)))
    has = below > 0
    return np.count_nonzero(peak[below[has] - 1] > loss[has])


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_block_kernel_finish_is_non_decreasing_per_column(name):
    kernel = block_sampler(KERNEL_MODELS[name])
    run = np.sort(kernel.score(rng.philox_stream(5, 0, 2), 20_000), axis=0)
    assert np.all(np.diff(kernel.finish(run), axis=0) >= 0)
    # one-ulp runs: rounding may misorder neighbours (ndtr does, a few in
    # a thousand steps from 2.3), never beyond the band
    for y in (2.3, 3.7, 8.0):
        assert misorders_beyond_band(kernel.finish, one_ulp_run(y, 3000)) == 0


def test_quantile_tail_range_check():
    m = tn.ParetoMargin(1.0)
    for bad in (0.0, 1.0 + 1e-12, -1.0, [0.5, 0.0], [[0.5], [2.0]],
                [math.nan, 0.0]):
        with pytest.raises(DomainError):
            m.quantile_tail(bad)
    assert m.quantile_tail(np.empty((0, 2))).shape == (0, 2)
    assert m.quantile_tail(1.0) == 1.0
    # a NaN level passes through, as it always has
    assert np.isnan(m.quantile_tail([math.nan, 0.5])[0])
    with pytest.raises(ModelError):
        tn.ParetoMargin(math.inf).quantile_tail(0.5)


def enumerated_mo_survival(rates, u):
    """The Marshall-Olkin survival copula summed over all 2^d - 1 subsets."""
    logu = np.log(u)
    total = 0.0
    for size in range(1, rates.d + 1):
        for s in itertools.combinations(range(rates.d), size):
            total += min(rates.eta(j, s) * logu[j] for j in s)
    return math.exp(total)


def test_mo_survival_copula_refuses_past_the_cap_at_once():
    import time
    model = tn.RiskModel.marshall_olkin(40, "equal", 1.0)
    t0 = time.perf_counter()
    with pytest.raises(CapacityError) as err:
        tn.survival_copula(model, np.full(40, 0.1))
    assert time.perf_counter() - t0 < 1.0
    assert err.value.limit == tn.copula.MO_DIM_CAP
    five = tn.RiskModel.marshall_olkin(5, "proportional", 1.0)
    u = np.linspace(0.05, 0.5, 5)
    with pytest.raises(CapacityError):
        tn.survival_copula(five, u, mo_dim_cap=4)
    assert tn.survival_copula(five, u, mo_dim_cap=5) == \
        tn.survival_copula(five, u)


@pytest.mark.parametrize("d,variant", [(1, "equal"), (3, "proportional"),
                                       (3, "general"), (8, "equal"),
                                       (8, "proportional"), (16, "equal")])
def test_mo_survival_copula_values_up_to_the_cap(d, variant):
    rates = None
    if variant == "general":
        rates = {frozenset(s): 0.5 + 0.25 * len(s) + 0.1 * min(s)
                 for size in range(1, d + 1)
                 for s in itertools.combinations(range(d), size)}
    model = tn.RiskModel.marshall_olkin(d, variant, 1.0, rates=rates)
    u = np.random.default_rng(d).uniform(0.01, 0.9, d)
    assert tn.survival_copula(model, u) == \
        enumerated_mo_survival(model.dependence.rates, u)


def test_general_mo_survival_copula_at_d12_is_quick():
    import time
    d = 12
    rates = {frozenset(s): 0.5 + 0.25 * len(s) + 0.1 * min(s)
             for size in range(1, d + 1)
             for s in itertools.combinations(range(d), size)}
    model = tn.RiskModel.marshall_olkin(d, "general", 1.0, rates=rates)
    u = np.random.default_rng(d).uniform(0.01, 0.9, d)
    t0 = time.perf_counter()
    val = tn.survival_copula(model, u)
    assert time.perf_counter() - t0 < 1.0
    assert 0.0 < val < float(u.min())
