"""Reference one-vs-max asymptotics, written out case by case.

:func:`one_vs_max` is the direct implementation that
:func:`tailnet.network.one_vs_max` replaces: it resolves the regime of
agent k against the rest itself, builds every moment from ``a[:, k, :]`` and
the row maximum of the other agents, and writes out each case's conditional
probabilities, CoVaR displays and ECI.  The library version applies the
pairwise operations to the two-row law (a_k, max_{m != k} a_m) and to its
row swap; both must agree to rounding.  Test helper only.
"""

import math

import numpy as np

from tailnet.copula import Gaussian, Iid, MarshallOlkin
from tailnet.covar import EciReport, GSpec, gauss_level_function
from tailnet.errors import DomainError, ModelError
from tailnet.network import (CASE_GAUSS, CASE_IID, CASE_MO_EQUAL,
                             CASE_MO_PROP, CASE_OVERLAP, NetworkCovar,
                             OneVsMaxReport, _gauss_pair_mask,
                             _mo_max_exponent, _pair_thresholds, a_moment,
                             gauss_constant_c, law_shape, network_alpha2,
                             support)


def _max_others(a: np.ndarray, k: int) -> np.ndarray:
    others = [m for m in range(a.shape[1]) if m != k]
    return a[:, others, :].max(axis=1)


def one_vs_max_case(law, model, k: int) -> str:
    """Overlap/disjoint regime for agent k against the rest."""
    q, _ = law_shape(law)
    if not 0 <= k < q or q < 2:
        raise DomainError("need q >= 2 and a valid agent index")
    supp = support(law)
    others = [m for m in range(q) if m != k]
    shares = bool(np.any(supp[k] & supp[others].any(axis=0)))
    if shares:
        return CASE_OVERLAP
    dep = model.dependence
    if isinstance(dep, Iid):
        return CASE_IID
    if isinstance(dep, MarshallOlkin):
        variant = dep.rates.variant
        if variant == "equal":
            return CASE_MO_EQUAL
        if variant == "proportional":
            return CASE_MO_PROP
        raise ModelError("disjoint asymptotics need the equal or proportional variant")
    if isinstance(dep, Gaussian):
        return CASE_GAUSS
    raise ModelError(f"unsupported dependence {type(dep).__name__}")


def _one_vs_max_rho_star(law, model, k: int) -> float:
    sig = model.dependence.sigma.entries
    supp = support(law)
    q, d = law_shape(law)
    others = [m for m in range(q) if m != k]
    any_other = supp[others].any(axis=0)
    best = -np.inf
    for ell in range(d):
        for j in range(d):
            if ell != j and supp[k, ell] and any_other[j]:
                best = max(best, sig[ell, j])
    if best == -np.inf:
        raise ModelError("no asset pair connects agent k with the rest")
    return float(best)


def one_vs_max(law, model, k: int, x, t: float,
               gamma: float, upsilon: float, **kw) -> OneVsMaxReport:
    """Limit measures, conditional tail probabilities, CoVaR and ECI for
    one agent against the maximum of all the others."""
    case = one_vs_max_case(law, model, k)
    x1, x2 = _pair_thresholds(x)
    alpha, theta = model.margin.alpha, model.margin.theta
    if case != CASE_OVERLAP and not t > 1.0:
        raise DomainError("t must exceed 1 for the decaying factor")

    def mk(a):
        return (a[:, k, :] ** alpha).sum(axis=1)

    def mmax(a):
        return (_max_others(a, k) ** alpha).sum(axis=1)

    m_k = a_moment(law, mk, **kw)
    m_max = a_moment(law, mmax, **kw)
    var2 = (theta * m_max.value / gamma) ** (1.0 / alpha)
    var1 = (theta * m_k.value / gamma) ** (1.0 / alpha)

    def fn_mu1(a):
        ratio = np.maximum(a[:, k, :] / x1, _max_others(a, k) / x2)
        return (ratio ** alpha).sum(axis=1)

    mu1 = a_moment(law, fn_mu1, **kw)

    if case == CASE_OVERLAP:
        def fn_mu2(a):
            others = [m for m in range(a.shape[1]) if m != k]
            mins = np.minimum(a[:, k, None, :] / x1, a[:, others, :] / x2)
            return (mins.max(axis=1) ** alpha).sum(axis=1)

        mu2 = a_moment(law, fn_mu2, **kw)
        c12 = mu2.scaled(x2 ** alpha / m_max.value)
        c21 = mu2.scaled(x1 ** alpha / m_k.value)
        g = GSpec(0.0)
        cv12 = NetworkCovar(g, m_k.powered(1.0 / alpha).scaled(
            upsilon ** (-1.0 / alpha) * m_max.value ** (-1.0 / alpha) * var2),
            None, var2)
        cv21 = NetworkCovar(g, m_max.powered(1.0 / alpha).scaled(
            upsilon ** (-1.0 / alpha) * m_k.value ** (-1.0 / alpha) * var1),
            None, var1)
        rep = EciReport(math.inf, 0.0, alpha, alpha)
        return OneVsMaxReport(case, mu1, mu2, c12, c21, g, cv12, cv21, rep)

    if case == CASE_IID:
        def fn_t(a):
            return mk(a) * mmax(a)

        tsum = a_moment(law, fn_t, **kw)
        mu2 = tsum.scaled((x1 * x2) ** -alpha)
        c12 = tsum.scaled(theta * t ** -alpha * x1 ** -alpha / m_max.value)
        c21 = tsum.scaled(theta * t ** -alpha * x2 ** -alpha / m_k.value)
        g = GSpec(1.0)
        cv12 = NetworkCovar(g, tsum.powered(1.0 / alpha).scaled(
            upsilon ** (-1.0 / alpha) * m_max.value ** (-2.0 / alpha) * var2),
            None, var2)
        cv21 = NetworkCovar(g, tsum.powered(1.0 / alpha).scaled(
            upsilon ** (-1.0 / alpha) * m_k.value ** (-2.0 / alpha) * var1),
            None, var1)
        rep = EciReport(1.0, 1.0, alpha, 2.0 * alpha)
        return OneVsMaxReport(case, mu1, mu2, c12, c21, g, cv12, cv21, rep)

    if case in (CASE_MO_EQUAL, CASE_MO_PROP):
        d = model.d
        eta = _mo_max_exponent(model.dependence.rates.variant, d)

        def fn_mu2(a):
            r1 = a[:, k, :, None] / x1
            r2 = _max_others(a, k)[:, None, :] / x2
            return (np.minimum(r1, r2) ** alpha
                    * np.maximum(r1, r2) ** (alpha * eta)).sum(axis=(1, 2))

        mu2 = a_moment(law, fn_mu2, **kw)
        fac = (theta * t ** -alpha) ** eta
        c12 = mu2.scaled(fac * x2 ** alpha / m_max.value)
        c21 = mu2.scaled(fac * x1 ** alpha / m_k.value)
        g = GSpec(eta)

        def fn_low(a):
            return (a[:, k, :] ** alpha).sum(axis=1) \
                * (_max_others(a, k) ** (alpha * eta)).sum(axis=1)

        def fn_high(a):
            return (a[:, k, :] ** (alpha * eta)).sum(axis=1) \
                * (_max_others(a, k) ** alpha).sum(axis=1)

        low = a_moment(law, fn_low, **kw).powered(1.0 / alpha).scaled(
            upsilon ** (-1.0 / alpha) * m_max.value ** (-(1.0 + eta) / alpha) * var2)
        high = a_moment(law, fn_high, **kw).powered(1.0 / (alpha * eta)).scaled(
            upsilon ** (-1.0 / (alpha * eta))
            * m_max.value ** (-(1.0 + eta) / (alpha * eta)) * var2)
        cv12 = NetworkCovar(g, low, high, var2)
        a2 = network_alpha2(case, model)
        rep = EciReport(alpha / (a2 - alpha), (a2 - alpha) / alpha, alpha, a2)
        return OneVsMaxReport(case, mu1, mu2, c12, c21, g, cv12, None, rep)

    rho = _one_vs_max_rho_star(law, model, k)
    sigma = model.dependence.sigma.entries
    mask = _gauss_pair_mask(sigma, rho)
    c = alpha / (1.0 + rho)
    pre = (1.0 + rho) ** 1.5 / (2.0 * math.pi * math.sqrt(1.0 - rho))

    def fn_dstar(a):
        prod = (a[:, k, :, None] ** c) * (_max_others(a, k)[:, None, :] ** c)
        return (prod * mask).sum(axis=(1, 2))

    dstar = a_moment(law, fn_dstar, **kw).scaled(pre)
    cc = gauss_constant_c(rho, alpha)
    mu2 = dstar.scaled((x1 * x2) ** (-alpha / (1.0 + rho)))
    fac = (theta * t ** -alpha) ** ((1.0 - rho) / (1.0 + rho)) \
        * math.log(t) ** (-rho / (1.0 + rho)) / cc
    c12 = dstar.scaled(fac * x1 ** (-alpha / (1.0 + rho))
                       * x2 ** (alpha * rho / (1.0 + rho)) / m_max.value)
    c21 = dstar.scaled(fac * x2 ** (-alpha / (1.0 + rho))
                       * x1 ** (alpha * rho / (1.0 + rho)) / m_k.value)
    g = gauss_level_function(rho, alpha)
    core = dstar.powered((1.0 + rho) / alpha).scaled(
        upsilon ** (-(1.0 + rho) / alpha) * cc ** (-(1.0 + rho) / alpha))
    cv12 = NetworkCovar(g, core.scaled(m_max.value ** (-2.0 / alpha) * var2),
                        None, var2)
    cv21 = NetworkCovar(g, core.scaled(m_k.value ** (-2.0 / alpha) * var1),
                        None, var1)
    rep = EciReport((1.0 + rho) / (1.0 - rho), (1.0 - rho) / (1.0 + rho),
                    alpha, 2.0 * alpha / (1.0 + rho))
    return OneVsMaxReport(case, mu1, mu2, c12, c21, g, cv12, cv21, rep)
