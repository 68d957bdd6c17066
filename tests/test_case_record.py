"""The one case record of ``covar`` and the one Marshall-Olkin variant check
of ``mrv`` return the bits of the per-family chains they replace, written
out in ``case_oracle``, and raise the same error types."""

import dataclasses

import numpy as np
import pytest

import tailnet as tn
from tailnet import covar, mrv
from tailnet import network as net
from tailnet.covar import GSpec
from tailnet.errors import ModelError

import case_oracle as oracle

ALPHAS = (0.3, 1.0, 1.7, 2.5, 7.0)
THETAS = (0.5, 1.0, 3.0)
DIMS = range(2, 33)
RHOS = (-0.4, 0.3, 0.8)
VARIANTS = ("equal", "proportional")
GENERAL2 = {frozenset({0}): 1.0, frozenset({1}): 2.0, frozenset({0, 1}): 0.5}


def outcome(fn, *args, **kw):
    """The exact repr of ``fn``'s value, or the type of what it raised."""
    try:
        return repr(fn(*args, **kw))
    except Exception as exc:            # compared by type below
        return type(exc)


def record(forms):
    return repr(dataclasses.astuple(forms))


def disjoint(d):
    """Agent 1 holds the first half of the assets, agent 2 the rest."""
    m = np.zeros((2, d))
    m[0, :d // 2] = 1.0
    m[1, d // 2:] = 1.0
    return m


def network_cases():
    """(model, law) pairs over every case: alpha, theta and d = 2..32 for
    the overlap, independence and Marshall-Olkin cases, the Gaussian case
    at d = 2 for each rho."""
    for a in ALPHAS:
        for th in THETAS:
            for d in DIMS:
                iid = tn.RiskModel.iid(d, a, th)
                yield iid, np.ones((2, d))
                yield iid, disjoint(d)
                for v in VARIANTS:
                    yield tn.RiskModel.marshall_olkin(d, v, a, th), disjoint(d)
            for rho in RHOS:
                sigma = tn.CorrelationMatrix.equicorrelation(2, rho)
                yield tn.RiskModel.gaussian(sigma, a, th), np.eye(2)


def bivariate_models():
    for a in ALPHAS:
        for th in THETAS:
            yield tn.RiskModel.iid(2, a, th)
            for v in VARIANTS:
                yield tn.RiskModel.marshall_olkin(2, v, a, th)
            for rho in RHOS:
                yield tn.RiskModel.gaussian(
                    tn.CorrelationMatrix.equicorrelation(2, rho), a, th)


def test_network_record_and_case_match_the_chains():
    n = 0
    for model, law in network_cases():
        case = net.resolve_case(law, model)
        assert case == oracle.resolve_case(law, model)
        want = oracle._case_forms(case, model, law)
        assert record(net._pair_forms(case, model, law)) == record(want)
        assert repr(net.network_alpha2(case, model, law)) == repr(want.alpha2)
        assert repr(net.network_b2_inv(case, model, law)) == repr(want.b2_inv)
        assert repr(net.network_g(case, model, law)) == repr(want.g)
        assert repr(net.network_eci(case, model, law)) == repr(want.eci)
        n += 1
    assert n == len(ALPHAS) * len(THETAS) * (4 * len(DIMS) + len(RHOS))


def test_mo_max_exponent_matches_the_chain():
    for v in VARIANTS:
        for d in DIMS:
            want = repr(oracle._mo_max_exponent(v, d))
            assert repr(net._mo_max_exponent(v, d)) == want
            assert repr(mrv.mo_max_exponent(v, d)) == want


def test_bivariate_closed_forms_match_the_chains():
    for a in ALPHAS:
        for th in THETAS:
            assert outcome(covar.b2_inv_independence, a, th) == \
                outcome(oracle.b2_inv_independence, a, th)
            for v in VARIANTS:
                assert outcome(covar.h_mo, v, a) == outcome(oracle.h_mo, v, a)
                assert outcome(covar.b2_inv_mo, v, a, th) == \
                    outcome(oracle.b2_inv_mo, v, a, th)
                for args in [(beta, ups, gam) for beta in (0.0, 0.2, 1 / 3,
                                                            0.5, 0.9)
                             for ups in (0.5, 2.0) for gam in (1e-2, 1e-4)]:
                    assert outcome(covar.covar_asymptotic_mo, v, a, th,
                                   *args) == \
                        outcome(oracle.covar_asymptotic_mo, v, a, th, *args)


def test_bivariate_model_dispatch_matches_the_chains():
    for model in bivariate_models():
        assert outcome(covar.eci_analytic_model, model) == \
            outcome(oracle.eci_analytic_model, model)
        for beta in (None, 0.4):
            for g in (None, GSpec(0.7), GSpec(0.5, q=-0.2, c=0.5)):
                for gam, ups in ((1e-2, 0.5), (1e-4, 0.9), (1e-3, 2.0)):
                    args = (model, gam, ups)
                    assert outcome(covar.covar_asymptotic_model, *args,
                                   beta=beta, g=g) == \
                        outcome(oracle.covar_asymptotic_model, *args,
                                beta=beta, g=g)


def test_general_variant_raises_model_error_everywhere():
    general = tn.RiskModel.marshall_olkin(2, "general", 1.0, rates=GENERAL2)
    rect = tn.RectSet(2, (0, 1), (1.0, 1.0))
    calls = [
        (covar.h_mo, oracle.h_mo, ("general", 1.0)),
        (covar.b2_inv_mo, oracle.b2_inv_mo, ("general", 1.0, 1.0)),
        (covar.covar_asymptotic_mo, oracle.covar_asymptotic_mo,
         ("general", 1.0, 1.0, 0.5, 0.5, 1e-3)),
        (covar.covar_asymptotic_model, oracle.covar_asymptotic_model,
         (general, 1e-3, 0.5)),
        (covar.eci_analytic_model, oracle.eci_analytic_model, (general,)),
        (net.resolve_case, oracle.resolve_case, (np.eye(2), general)),
    ]
    for new, old, args in calls:
        assert outcome(new, *args) is ModelError
        assert outcome(old, *args) is ModelError
    # the old network exponent returned d / (2(d + 1)) for it unchecked
    for fn, args in [(net._mo_max_exponent, ("general", 2)),
                     (mrv.mo_alpha_i, ("general", 1.0, 2, 2)),
                     (mrv.mo_mu, ("general", 1.0, 2, 2, rect)),
                     (mrv.mo_cone_spec, ("general", 1.0, 1.0, 2, 2)),
                     (mrv.mo_max_exponent_inverse, ("general", 2))]:
        with pytest.raises(ModelError):
            fn(*args)
