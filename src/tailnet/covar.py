"""Value-at-Risk / CoVaR estimators, the generic asymptotic-CoVaR machinery,
model-specific closed-form rates, and the extreme CoVaR index.

The empirical quantile convention throughout is the plain order-statistic
plug-in: VaR at level gamma = k-th smallest sample with k = ceil(n(1-gamma)),
no interpolation, so small-sample tests reproduce by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtri

from .copula import Gaussian, Iid, MarshallOlkin, RiskModel
from .errors import DomainError, ModelError, ReliabilityError
from .mrv import PowerLog
from .orthant import bivariate_normal_survival

MIN_EXCEEDANCES = 20


@dataclass(frozen=True)
class GSpec:
    """Level function g(gamma) = gamma**beta * (-c * log gamma)**q."""

    beta: float
    q: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        if self.beta < 0:
            raise DomainError("beta must be >= 0")
        if not self.c > 0:
            raise DomainError("c must be > 0")

    def __call__(self, gamma: float) -> float:
        if not 0 < gamma < 1:
            raise DomainError(f"gamma must lie in (0, 1), got {gamma}")
        val = gamma ** self.beta
        if self.q != 0.0:
            val *= (-self.c * math.log(gamma)) ** self.q
        return val


@dataclass(frozen=True)
class CovarQuery:
    """Conditioning level gamma, prefactor upsilon, and the level function."""

    gamma: float
    upsilon: float
    g: GSpec

    def __post_init__(self):
        if not 0 < self.gamma < 1:
            raise DomainError("gamma must lie in (0, 1)")
        if not self.upsilon > 0:
            raise DomainError("upsilon must be > 0")
        if not 0 < self.level < 1:
            raise DomainError("upsilon * g(gamma) must lie in (0, 1)")

    @property
    def level(self) -> float:
        return self.upsilon * self.g(self.gamma)


def _var_order(n: int, gamma: float) -> int:
    """k = ceil(n(1-gamma)) clamped into [1, n]: the VaR's order statistic."""
    return min(max(math.ceil(n * (1.0 - gamma)), 1), n)


def var_top_count(n: int, gamma: float) -> int:
    """How many of the largest of ``n`` samples hold their VaR at ``gamma``
    and every sample above it: n - k + 1."""
    return n - _var_order(n, gamma) + 1


def var_empirical(samples, gamma: float, n: Optional[int] = None) -> float:
    """k-th smallest sample with k = ceil(n(1-gamma)), clamped into [1, n].

    With ``n``, ``samples`` are only the largest of ``n`` samples; at least
    ``var_top_count(n, gamma)`` of them are needed."""
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size if n is None else n
    if n == 0:
        raise DomainError("empty sample")
    if not 0 < gamma < 1:
        raise DomainError("gamma must lie in (0, 1)")
    i = _var_order(n, gamma) - 1 - (n - x.size)
    if not 0 <= i < x.size <= n:
        raise DomainError(f"{x.size} top samples of {n} do not hold the VaR")
    return float(np.partition(x, i)[i])


def covar_empirical(y1, y2, gamma1: float, gamma2: float,
                    min_exceed: int = MIN_EXCEEDANCES,
                    n: Optional[int] = None) -> float:
    """Empirical CoVaR: VaR of y1 at gamma1 among pairs with y2 above its
    empirical VaR at gamma2.

    With ``n``, the pairs are only the rows of an ``n``-row sample with its
    ``var_top_count(n, gamma2)`` (or more) largest y2 values, in any order:
    they hold the VaR of y2 and every pair above it, so the result is that
    of the whole sample from O(n gamma2) memory."""
    y1 = np.asarray(y1, dtype=float).ravel()
    y2 = np.asarray(y2, dtype=float).ravel()
    if y1.shape != y2.shape:
        raise DomainError("paired samples must have equal length")
    v = var_empirical(y2, gamma2, n)
    cond = y1[y2 > v]
    if cond.size < min_exceed:
        raise ReliabilityError(
            f"only {cond.size} exceedances above VaR (need {min_exceed})",
            int(cond.size))
    return var_empirical(cond, gamma1)


@dataclass(frozen=True)
class HFunction:
    """Piecewise power descriptor of h(y) = mu_2((y, inf) x (1, inf)).

    ``breakpoints`` are the ascending interior breakpoints; piece k, a pair
    (coef, exponent), is valid between breakpoint k-1 and k (the first piece
    starts at 0, the last extends to infinity).  Exponents are <= 0, so h is
    nonincreasing; the inverse lives on the strictly decreasing branch.
    """

    breakpoints: tuple
    pieces: tuple

    def __post_init__(self):
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise DomainError("need exactly one piece per interval")
        if any(b <= 0 for b in self.breakpoints) or \
                list(self.breakpoints) != sorted(self.breakpoints):
            raise DomainError("breakpoints must be positive and ascending")
        if any(e > 0 for _, e in self.pieces):
            raise DomainError("exponents must be <= 0 for a nonincreasing h")

    def value(self, y: float) -> float:
        if not y > 0:
            raise DomainError("h is defined on (0, inf)")
        k = 0
        while k < len(self.breakpoints) and y > self.breakpoints[k]:
            k += 1
        c, e = self.pieces[k]
        return c * y ** e

    @property
    def r(self) -> float:
        """lim_{y -> 0+} h(y); the top of the inverse's domain."""
        c, e = self.pieces[0]
        return math.inf if e < 0 else c

    @property
    def l(self) -> float:
        """Left end of the strictly decreasing branch carrying the inverse."""
        left = 0.0
        for k, (_, e) in enumerate(self.pieces):
            if e == 0.0:
                left = self.breakpoints[k] if k < len(self.breakpoints) else math.inf
        return left

    def inverse(self, v: float) -> float:
        """h^{-1} on the strictly decreasing range (l, inf) -> (0, r)."""
        if not 0 < v < self.r:
            raise DomainError(f"inverse argument must lie in (0, {self.r})")
        n = len(self.pieces)
        for k in range(n - 1, -1, -1):
            c, e = self.pieces[k]
            if e == 0.0:
                continue
            lo_val = c * self.breakpoints[k] ** e if k < n - 1 else 0.0
            hi_val = c * self.breakpoints[k - 1] ** e if k > 0 else self.r
            if lo_val < v <= hi_val:
                return (v / c) ** (1.0 / e)
        raise DomainError(
            f"h^{{-1}}({v}) falls on a flat stretch; no strictly decreasing branch")


def h_strong_dependence(alpha: float) -> HFunction:
    """h(y) = max(y, 1)^(-alpha); inverse on (0, 1)."""
    return HFunction(breakpoints=(1.0,), pieces=((1.0, 0.0), (1.0, -alpha)))


def h_independence(alpha: float) -> HFunction:
    return HFunction(breakpoints=(), pieces=((1.0, -alpha),))


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


def h_gaussian(rho: float, alpha: float) -> HFunction:
    ups = (1.0 + rho) ** 1.5 / (2.0 * math.pi * math.sqrt(1.0 - rho))
    return HFunction(breakpoints=(), pieces=((ups, -alpha / (1.0 + rho)),))


def b2_inv_strong(alpha: float, theta: float) -> PowerLog:
    return PowerLog(c=1.0 / theta, a=alpha)


def b2_inv_independence(alpha: float, theta: float) -> PowerLog:
    return PowerLog(c=theta ** -2.0, a=2.0 * alpha)


def b2_inv_mo(variant: str, alpha: float, theta: float) -> PowerLog:
    a2 = 1.5 * alpha if variant == "equal" else 4.0 * alpha / 3.0
    if variant not in ("equal", "proportional"):
        raise ModelError("bivariate scale requires the equal or proportional variant")
    return PowerLog(c=theta ** (-a2 / alpha), a=a2)


def b2_inv_gaussian(rho: float, alpha: float, theta: float) -> PowerLog:
    g2 = 2.0 / (1.0 + rho)
    return PowerLog(c=(2.0 * math.pi) ** (-g2 / 2.0) * theta ** -g2,
                    a=alpha * g2, p=(2.0 - g2) / 2.0, kappa=0.0, lam=2.0 * alpha)


def covar_asymptotic_generic(h: HFunction, b2_inv: PowerLog, var_gamma: float,
                             query: CovarQuery) -> float:
    """VaR_gamma(Y2) * h^{-1}(upsilon g(gamma) gamma b2_inv(VaR_gamma(Y2))).

    The argument must fall inside (0, r) with r = lim_{y->0} h(y); an
    argument at or above a finite r is the regime where the level no longer
    vanishes relative to the conditional tail (uniform-convergence regime
    (c)), and is rejected.
    """
    x = query.level * query.gamma * float(b2_inv(var_gamma))
    if not x > 0:
        raise DomainError("composed level argument must be positive")
    if x >= h.r:
        raise DomainError(
            f"argument {x:.6g} >= r = {h.r:.6g}: outside regime (a); the "
            f"needed regime-(c) uniform convergence is not available here")
    return var_gamma * h.inverse(x)


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


def gauss_level_function(rho: float, alpha: float) -> GSpec:
    """The natural Gaussian level g(gamma) = gamma^((1-rho)/(1+rho))
    * (-log(gamma)/alpha)^(-rho/(1+rho))."""
    return GSpec(beta=(1.0 - rho) / (1.0 + rho), q=-rho / (1.0 + rho), c=1.0 / alpha)


def _gauss_growth_ok(rho: float, g: GSpec) -> bool:
    # g(gamma) = O(gamma^((1-rho)/(1+rho)) * (-log gamma)^(-rho/(1+rho)))
    beta_req = (1.0 - rho) / (1.0 + rho)
    q_req = -rho / (1.0 + rho)
    if g.beta > beta_req + 1e-12:
        return True
    if abs(g.beta - beta_req) <= 1e-12:
        return g.q <= q_req + 1e-12
    return False


def covar_asymptotic_gauss(alpha: float, theta: float, rho: float,
                           upsilon: float, gamma: float,
                           g: Optional[GSpec] = None) -> float:
    """Closed-form bivariate Gaussian-copula CoVaR at level upsilon*g(gamma).

    The log factor is evaluated at the exact Pareto quantile,
    log(theta/gamma) = alpha * log VaR_gamma, which reproduces the generic
    composition exactly; it coincides with log(1/gamma) when theta = 1.
    """
    if not -1.0 < rho < 1.0:
        raise DomainError("rho must lie in (-1, 1)")
    if g is None:
        g = gauss_level_function(rho, alpha)
    if not _gauss_growth_ok(rho, g):
        raise DomainError(
            "level function grows too fast: need g(gamma) = "
            "O(gamma^((1-rho)/(1+rho)) (-log gamma)^(-rho/(1+rho)))")
    query = CovarQuery(gamma, upsilon, g)
    var_gamma = (theta / gamma) ** (1.0 / alpha)
    bstar = (4.0 * math.pi) ** (-rho / alpha) \
        * (1.0 + rho) ** (1.5 * (1.0 + rho) / alpha) \
        * (1.0 - rho) ** (-(1.0 + rho) / (2.0 * alpha))
    log_term = math.log(theta / gamma)
    return bstar * query.level ** (-(1.0 + rho) / alpha) \
        * gamma ** ((1.0 - rho) / alpha) * log_term ** (-rho / alpha) * var_gamma


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


def gaussian_covar_exact(alpha: float, theta: float, rho: float,
                         gamma: float, level: float) -> float:
    """CoVaR from the exact bivariate law by root-finding (oracle).

    Solves P(Y1 > y | Y2 > VaR_gamma) = level with the joint probability
    evaluated by the bivariate-normal quadrature oracle; exact up to the
    quadrature tolerance, no Monte Carlo noise.
    """
    if not 0 < level < 1:
        raise DomainError("level must lie in (0, 1)")
    var2 = (theta / gamma) ** (1.0 / alpha)
    hk = -float(ndtri(gamma))
    target = level * gamma

    def joint_minus_target(logy):
        y = math.exp(logy)
        hy = -float(ndtri(min(theta * y ** -alpha, 1.0 - 1e-16)))
        return bivariate_normal_survival(hy, hk, rho) - target

    lo = math.log(max(theta ** (1.0 / alpha) * 1.0001, var2 * 1e-6))
    hi = math.log(var2) + 40.0 / alpha
    if joint_minus_target(lo) < 0:
        raise DomainError("level too high for the bracketing range")
    return math.exp(brentq(joint_minus_target, lo, hi, xtol=1e-12, rtol=1e-13))


@dataclass(frozen=True)
class EciReport:
    """Extreme CoVaR index: eci = alpha1 / (alpha2 - alpha1), with alpha1/0
    understood as infinity; beta = 1/eci is the decay rate of the level
    function keeping CoVaR of VaR's order."""

    eci: float
    beta: float
    alpha1: float
    alpha2: float
    band_factor: Optional[float] = None
    n_points: Optional[int] = None


def eci(alpha1: float, alpha2: float) -> EciReport:
    if not 0 < alpha1 <= alpha2:
        raise DomainError("need 0 < alpha1 <= alpha2")
    if alpha2 == alpha1:
        return EciReport(math.inf, 0.0, alpha1, alpha2)
    value = alpha1 / (alpha2 - alpha1)
    return EciReport(value, 1.0 / value, alpha1, alpha2)


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


def eci_empirical(y1, y2, gamma_grid: Sequence[float], upsilon: float,
                  band_factor: float = 2.0, min_points: int = 4) -> EciReport:
    """Slope-based ECI estimate.

    For each gamma, the largest level g_hat keeping the empirical CoVaR
    within a factor ``band_factor`` of VaR_gamma(Y2) is the conditional
    exceedance frequency of VaR/band divided by upsilon; the decay exponent
    beta is the log-log regression slope and ECI its reciprocal.
    """
    y1 = np.asarray(y1, dtype=float).ravel()
    y2 = np.asarray(y2, dtype=float).ravel()
    grid = [float(gv) for gv in gamma_grid]
    if any(not 0 < gv < 1 for gv in grid):
        raise DomainError("gamma grid must lie inside (0, 1)")
    if max(grid) / min(grid) < 10.0 ** 1.5:
        raise DomainError("gamma grid must span at least 1.5 decades")
    logs_g, logs_gamma = [], []
    for gv in grid:
        v = var_empirical(y2, gv)
        cond = y1[y2 > v]
        if cond.size < MIN_EXCEEDANCES:
            continue
        hits = int((cond >= v / band_factor).sum())
        if hits == 0:
            continue
        logs_g.append(math.log(hits / cond.size / upsilon))
        logs_gamma.append(math.log(gv))
    if len(logs_g) < min_points:
        raise ReliabilityError(
            f"only {len(logs_g)} usable grid points (need {min_points})",
            len(logs_g))
    slope = float(np.polyfit(logs_gamma, logs_g, 1)[0])
    if slope <= 1e-9:
        return EciReport(math.inf, max(slope, 0.0), math.nan, math.nan,
                         band_factor, len(logs_g))
    return EciReport(1.0 / slope, slope, math.nan, math.nan,
                     band_factor, len(logs_g))
