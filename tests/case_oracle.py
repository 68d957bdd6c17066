"""Reference per-case closed forms, written out family by family.

These are the chains that the one case record of :mod:`tailnet.covar`
(``_case_forms``) and the one Marshall-Olkin variant check of
:mod:`tailnet.mrv` replace: the five bivariate functions that wrote the
Marshall-Olkin exponents and the independence scale out again,
:func:`eci_analytic_model`, the network exponent :func:`_mo_max_exponent`,
the dependence chain of :func:`resolve_case`, and the network record as it
took the law.  The library must return the same bits.  Test helper only.
"""

import math
from dataclasses import dataclass
from typing import Optional

from tailnet.copula import Gaussian, Iid, MarshallOlkin, RiskModel
from tailnet.covar import (CovarQuery, EciReport, GSpec, HFunction,
                           covar_asymptotic_gauss, gauss_level_function)
from tailnet.errors import DispatchError, DomainError, ModelError
from tailnet.mrv import PowerLog
from tailnet.network import (CASE_GAUSS, CASE_IID, CASE_MO_EQUAL,
                             CASE_MO_PROP, CASE_OVERLAP, gauss_constant_c,
                             overlap_profile)


def h_mo(variant: str, alpha: float) -> HFunction:
    """Bivariate Marshall-Olkin h: slope -alpha/2 (equal) or -alpha/3
    (proportional) below 1, slope -alpha above."""
    if variant == "equal":
        small = -alpha / 2.0
    elif variant == "proportional":
        small = -alpha / 3.0
    else:
        raise ModelError("bivariate h requires the equal or proportional variant")
    return HFunction(breakpoints=(1.0,), pieces=((1.0, small), (1.0, -alpha)))


def b2_inv_independence(alpha: float, theta: float) -> PowerLog:
    return PowerLog(c=theta ** -2.0, a=2.0 * alpha)


def b2_inv_mo(variant: str, alpha: float, theta: float) -> PowerLog:
    a2 = 1.5 * alpha if variant == "equal" else 4.0 * alpha / 3.0
    if variant not in ("equal", "proportional"):
        raise ModelError("bivariate scale requires the equal or proportional variant")
    return PowerLog(c=theta ** (-a2 / alpha), a=a2)


def covar_asymptotic_mo(variant: str, alpha: float, theta: float, beta: float,
                        upsilon: float, gamma: float) -> float:
    """Closed-form bivariate Marshall-Olkin CoVaR at level upsilon*gamma**beta.

    Two branches: beta above the boundary 1/2 (equal) resp. 1/3
    (proportional) gives the slowly-decaying-level branch, below it the fast
    branch.  The branch is selected by the composed argument
    upsilon * gamma^(beta - boundary) against the h breakpoint, which agrees
    with the beta-based selection as gamma -> 0 and keeps the value identical
    to the generic composition at every finite gamma.
    """
    if variant == "equal":
        eta = 0.5
    elif variant == "proportional":
        eta = 1.0 / 3.0
    else:
        raise ModelError("bivariate CoVaR requires the equal or proportional variant")
    if beta < 0:
        raise DomainError("beta must be >= 0")
    query = CovarQuery(gamma, upsilon, GSpec(beta))  # validates the level
    var_gamma = (theta / gamma) ** (1.0 / alpha)
    lev = query.level
    if upsilon * gamma ** (beta - eta) <= 1.0:
        return lev ** (-1.0 / alpha) * gamma ** (eta / alpha) * var_gamma
    return lev ** (-1.0 / (alpha * eta)) * gamma ** (1.0 / alpha) * var_gamma


def covar_asymptotic_model(model: RiskModel, gamma: float, upsilon: float,
                           beta: Optional[float] = None,
                           g: Optional[GSpec] = None) -> tuple:
    """Dispatch a bivariate risk model to its closed-form CoVaR.

    Returns ``(value, g_spec)`` where g_spec is the level function used.
    """
    if model.d != 2:
        raise DomainError("closed-form CoVaR is bivariate")
    a, th = model.margin.alpha, model.margin.theta
    dep = model.dependence
    if isinstance(dep, Iid):
        spec = g if g is not None else GSpec(beta if beta is not None else 1.0)
        level = CovarQuery(gamma, upsilon, spec).level
        return (th / level) ** (1.0 / a), spec
    if isinstance(dep, MarshallOlkin):
        variant = dep.rates.variant
        b = beta if beta is not None else (0.5 if variant == "equal" else 1.0 / 3.0)
        return covar_asymptotic_mo(variant, a, th, b, upsilon, gamma), GSpec(b)
    rho = float(dep.sigma.entries[0, 1])
    spec = g if g is not None else gauss_level_function(rho, a)
    return covar_asymptotic_gauss(a, th, rho, upsilon, gamma, spec), spec


def eci_analytic_model(model: RiskModel) -> EciReport:
    """Analytic ECI of a bivariate risk model.

    Returns the cancellation-free closed forms (1, 2, 3, (1+rho)/(1-rho))
    rather than routing them through the alpha1/(alpha2 - alpha1) quotient,
    so the table is exact in floating point; :func:`eci` applied to the
    reported cone indices agrees to rounding.
    """
    if model.d != 2:
        raise DomainError("analytic ECI is bivariate")
    a = model.margin.alpha
    dep = model.dependence
    if isinstance(dep, Iid):
        return EciReport(1.0, 1.0, a, 2.0 * a)
    if isinstance(dep, MarshallOlkin):
        variant = dep.rates.variant
        if variant == "equal":
            return EciReport(2.0, 0.5, a, 1.5 * a)
        if variant == "proportional":
            return EciReport(3.0, 1.0 / 3.0, a, 4.0 * a / 3.0)
        raise ModelError("analytic ECI requires the equal or proportional variant")
    rho = float(dep.sigma.entries[0, 1])
    return EciReport((1.0 + rho) / (1.0 - rho), (1.0 - rho) / (1.0 + rho),
                     a, 2.0 * a / (1.0 + rho))


def resolve_case(law, model: RiskModel, k: int = 0, m: int = 1) -> str:
    """Exactly one asymptotic regime applies to an agent pair."""
    prof = overlap_profile(law, model, k, m)
    if prof.overlap:
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
        if prof.rho_star is None:
            raise ModelError("no asset pair connects the two agents")
        return CASE_GAUSS
    raise ModelError(f"unsupported dependence {type(dep).__name__}")


def _mo_max_exponent(variant: str, d: int) -> float:
    """Decay exponent carried by the larger of the two asset ratios."""
    return 0.5 if variant == "equal" else d / (2.0 * (d + 1.0))


@dataclass(frozen=True)
class _CaseForms:
    """Closed forms of one asymptotic case: the joint-exceedance cone's index
    ``alpha2`` and inverse scale ``b2_inv``, the level function ``g`` keeping
    CoVaR of VaR's order, the ECI, and rho_star (Gaussian case only)."""

    alpha2: float
    b2_inv: PowerLog
    g: GSpec
    eci: EciReport
    rho: Optional[float] = None


def _case_forms(case: str, model: RiskModel,
                law=None) -> _CaseForms:
    a, th = model.margin.alpha, model.margin.theta
    if case == CASE_GAUSS:
        rho = overlap_profile(law, model).rho_star
        a2 = 2.0 * a / (1.0 + rho)
        cc = gauss_constant_c(rho, a)
        return _CaseForms(
            a2, PowerLog(c=cc * th ** (-2.0 / (1.0 + rho)), a=a2,
                         p=rho / (1.0 + rho), kappa=0.0, lam=1.0),
            gauss_level_function(rho, a),
            EciReport((1.0 + rho) / (1.0 - rho), (1.0 - rho) / (1.0 + rho),
                      a, 2.0 * a / (1.0 + rho)), rho)
    if case == CASE_OVERLAP:
        a2, g, eci = a, GSpec(0.0), EciReport(math.inf, 0.0, a, a)
    elif case == CASE_IID:
        a2, g, eci = 2.0 * a, GSpec(1.0), EciReport(1.0, 1.0, a, 2.0 * a)
    elif case == CASE_MO_EQUAL:
        a2 = 1.5 * a
        g = GSpec(_mo_max_exponent("equal", model.d))
        eci = EciReport(2.0, 0.5, a, 1.5 * a)
    elif case == CASE_MO_PROP:
        d = model.d
        a2 = a * (3.0 * d + 2.0) / (2.0 * (d + 1.0))
        g = GSpec(_mo_max_exponent("proportional", d))
        eci = EciReport(2.0 + 2.0 / d, d / (2.0 * d + 2.0), a,
                        a * (3.0 * d + 2.0) / (2.0 * (d + 1.0)))
    else:
        raise DispatchError(f"unknown case {case!r}")
    return _CaseForms(a2, PowerLog(c=th ** (-a2 / a), a=a2), g, eci)
