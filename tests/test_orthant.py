import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from tailnet.errors import DomainError
from tailnet.orthant import bivariate_normal_survival, normal_orthant_survival


@pytest.mark.parametrize("rho", [-0.6, -0.3, 0.0, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("hk", [(0.5, 1.0), (2.0, 2.0), (-1.0, 3.0)])
def test_bivariate_matches_scipy(rho, hk):
    h, k = hk
    mine = bivariate_normal_survival(h, k, rho)
    ref = float(multivariate_normal(mean=[0, 0],
                                    cov=[[1, rho], [rho, 1]]).cdf([-h, -k]))
    assert mine == pytest.approx(ref, rel=5e-6, abs=1e-12)


def test_bivariate_independence_is_exact_product():
    from scipy.special import ndtr
    h, k = 3.0, 4.0
    assert bivariate_normal_survival(h, k, 0.0) == float(ndtr(-h) * ndtr(-k))


def test_bivariate_deep_tail_positive_and_symmetric():
    a = bivariate_normal_survival(6.0, 5.0, 0.5)
    b = bivariate_normal_survival(5.0, 6.0, 0.5)
    assert a == pytest.approx(b, rel=1e-9)
    assert 0 < a < 1e-9


def test_bivariate_infinite_bounds():
    from scipy.special import ndtr
    assert bivariate_normal_survival(-math.inf, 1.0, 0.3) == float(ndtr(-1.0))
    assert bivariate_normal_survival(-math.inf, -math.inf, 0.3) == 1.0


def test_bivariate_rejects_degenerate_rho():
    with pytest.raises(DomainError):
        bivariate_normal_survival(1.0, 1.0, 1.0)


def test_orthant_marginalizes_minus_inf():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    got = normal_orthant_survival([0.7, -math.inf], cov)
    from scipy.special import ndtr
    assert got == pytest.approx(float(ndtr(-0.7)), rel=1e-12)


def test_orthant_dimension_four_vs_scipy():
    cov = np.array([[1, .3, .2, .1], [.3, 1, .4, .2],
                    [.2, .4, 1, .3], [.1, .2, .3, 1]], dtype=float)
    lo = np.array([0.5, 1.0, 0.2, 1.5])
    mine, err = normal_orthant_survival(lo, cov, return_error=True)
    ref = float(multivariate_normal(mean=np.zeros(4), cov=cov).cdf(-lo))
    assert mine == pytest.approx(ref, rel=5e-3)
    assert err < 1e-3 * mine


def test_orthant_is_pure_function():
    cov = np.array([[1, .4, .2], [.4, 1, .1], [.2, .1, 1]], dtype=float)
    lo = np.array([1.0, 0.5, 2.0])
    assert normal_orthant_survival(lo, cov) == normal_orthant_survival(lo, cov)


def test_central_orthant_d3_known_value():
    # equicorrelated central orthant: 1/8 + 3 asin(rho) / (4 pi)
    rho = 0.5
    cov = np.full((3, 3), rho)
    np.fill_diagonal(cov, 1.0)
    expect = 0.125 + 3.0 * math.asin(rho) / (4.0 * math.pi)
    got = normal_orthant_survival(np.zeros(3), cov)
    assert got == pytest.approx(expect, rel=2e-3)


def test_orthant_plus_inf_bound_is_zero():
    cov = np.array([[1, .4, .2], [.4, 1, .1], [.2, .1, 1]], dtype=float)
    assert normal_orthant_survival([1.0, math.inf, 0.5], cov,
                                   return_error=True) == (0.0, 0.0)


def test_orthant_rejects_singular_sigma():
    with pytest.raises(DomainError):
        normal_orthant_survival([0.5, 1.0, 1.5], np.ones((3, 3)))
