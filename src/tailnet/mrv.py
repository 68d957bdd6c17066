"""Cone-wise regular-variation data for the three dependence families.

The Gaussian side is driven entirely by the box-constrained quadratic
program min_{z >= 1} z' Sigma^{-1} z, solved as a nonnegative least-squares
problem whose active set is then confirmed by the KKT pass test
(:func:`solve_qp`).  The cone spectra solve only the C(d, i) programs of
size i, since no larger set attains the minimum; the mutual-independence
test solves all 2^d principal submatrices in one stacked solve per chunk of
each subset size.  Both refuse d > ``QP_DIM_CAP``.
The Marshall-Olkin exponents, closed form in d, are decided here alone,
behind one variant check (:func:`mo_variant`).
Scale functions are carried symbolically in power-log form
``c * t**a * (kappa + lam*log t)**p`` so tests can compare coefficients
exactly rather than sampling opaque closures.

Index convention: coordinates are 0-based internally; serialized output
(JSON, CLI) is 1-based.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Optional, Sequence

import numpy as np

from . import rng
from .copula import (BernsteinMixture, CorrelationMatrix, Gaussian, Iid,
                     MarshallOlkin, ParetoMargin, RiskModel, _mixture_block,
                     block_sampler, survival_copula)
from .errors import CapacityError, DegenerateQpError, DomainError, ModelError
from .orthant import normal_orthant_survival

QP_DIM_CAP = 20
QP_TOL = 1e-9
BORDERLINE_TOL = 1e-9
TIE_TOL = 1e-12
STACK_CHUNK = 512


@dataclass(frozen=True)
class QpSolution:
    """Solution of min_{z >= 1} z' Sigma^{-1} z.

    ``index_set`` holds the active coordinates I (where the minimizer is 1),
    ``h`` the positive weights Sigma_I^{-1} 1 indexed by I, and
    ``gamma = 1' Sigma_I^{-1} 1 = e*' Sigma^{-1} e* > 1``.
    """

    index_set: tuple
    e_star: np.ndarray
    gamma: float
    h: np.ndarray


@dataclass(frozen=True)
class PowerLog:
    """The scale form c * t**a * (kappa + lam * log t)**p."""

    c: float
    a: float
    p: float = 0.0
    kappa: float = 0.0
    lam: float = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.c * np.power(t, self.a)
        if self.p != 0.0:
            out = out * np.power(self.kappa + self.lam * np.log(t), self.p)
        return float(out) if out.ndim == 0 else out

    def to_json(self) -> dict:
        return {"c": self.c, "a": self.a, "p": self.p,
                "kappa": self.kappa, "lambda": self.lam}


@dataclass(frozen=True)
class ConeSpec:
    """Regular-variation data of one cone: index, inverse scale, argmin sets."""

    i: int
    alpha_i: float
    b_inv: PowerLog
    argmin_sets: Optional[tuple] = None
    card_i: Optional[int] = None

    def to_json(self) -> dict:
        sets = None
        if self.argmin_sets is not None:
            sets = [[j + 1 for j in s] for s in self.argmin_sets]
        return {"i": self.i, "alpha_i": self.alpha_i,
                "binv": self.b_inv.to_json(),
                "argmin_sets": sets, "cardI": self.card_i}


@dataclass(frozen=True)
class RectSet:
    """{v in R_+^d : v_s > z_s for s in S}; thresholds follow subset order."""

    d: int
    subset: tuple
    thresholds: tuple

    def __post_init__(self):
        s = tuple(sorted(self.subset))
        z = tuple(float(t) for t in self.thresholds)
        if not s or any(j < 0 or j >= self.d for j in s):
            raise DomainError(f"subset {s} invalid for dimension {self.d}")
        if len(set(s)) != len(s):
            raise DomainError("subset has repeated coordinates")
        if len(z) != len(s):
            raise DomainError("one threshold per subset coordinate required")
        if any(not t > 0 for t in z):
            raise DomainError("all thresholds must be strictly positive")
        object.__setattr__(self, "subset", s)
        object.__setattr__(self, "thresholds", z)


def _as_matrix(sigma) -> np.ndarray:
    if isinstance(sigma, CorrelationMatrix):
        return sigma.entries
    return CorrelationMatrix(np.asarray(sigma, dtype=float)).entries


def _principal(m: np.ndarray, subset) -> CorrelationMatrix:
    """Principal submatrix of the validated matrix ``m``, wrapped without
    re-validation: symmetry, unit diagonal and positive definiteness carry
    over from ``m``, so :func:`solve_qp` can skip the checks."""
    ii = list(subset)
    sub = object.__new__(CorrelationMatrix)
    object.__setattr__(sub, "entries", m[np.ix_(ii, ii)])
    return sub


def _qp_candidate(m: np.ndarray, idx: tuple, tol: float):
    """The active-set pass test for one index set I.

    Returns the QP solution with active set I when Sigma_I^{-1} 1 > tol and
    Sigma_{JI} Sigma_I^{-1} 1 >= 1 - tol componentwise, else None.
    """
    d = m.shape[0]
    ii = list(idx)
    try:
        h = np.linalg.solve(m[np.ix_(ii, ii)], np.ones(len(ii)))
    except np.linalg.LinAlgError:
        return None
    if np.min(h) <= tol:
        return None
    jj = [j for j in range(d) if j not in idx]
    if jj:
        e_j = m[np.ix_(jj, ii)] @ h
        if np.min(e_j) < 1.0 - tol:
            return None
    else:
        e_j = np.empty(0)
    e_star = np.ones(d)
    e_star[jj] = e_j
    return QpSolution(index_set=idx, e_star=e_star, gamma=float(h.sum()), h=h)


def nnls(a: np.ndarray, b: np.ndarray):
    """(y, |a y - b|) for y = argmin_{y >= 0} |a y - b|, a of full column rank.

    Lawson-Hanson active-set method (Lawson & Hanson 1974, *Solving Least
    Squares Problems*, ch. 23) on the normal equations.  The fixed
    coordinate with the largest gradient component enters the free set; a
    step that would take a free coordinate below zero stops where the first
    one reaches zero, and that one leaves the free set.  A coordinate that
    rounding would let in at a nonpositive value is passed over for that
    step.  Fixed coordinates are exact zeros.  Raises RuntimeError after 3n
    outer steps.
    """
    n = a.shape[1]
    gram, rhs = a.T @ a, a.T @ b
    tol = 10.0 * n * np.finfo(float).eps
    y = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    w = rhs.copy()

    def free_solve():
        p = np.flatnonzero(free)
        s = np.zeros(n)
        s[p] = np.linalg.solve(gram[np.ix_(p, p)], rhs[p])
        return s

    for _ in range(3 * n):
        w[free] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            return y, float(np.linalg.norm(a @ y - b))
        free[j] = True
        s = free_solve()
        if s[j] <= 0.0:
            free[j], w[j] = False, -np.inf
            continue
        while True:
            neg = np.flatnonzero(free & (s <= 0.0))
            if neg.size == 0:
                break
            ratio = y[neg] / (y[neg] - s[neg])
            k = int(np.argmin(ratio))
            y += ratio[k] * (s - y)
            free &= y > tol
            free[neg[k]] = False
            y[~free] = 0.0
            s = free_solve()
        y = s
        w = rhs - gram @ y
    raise RuntimeError("Maximum number of iterations reached.")


def solve_qp(sigma, tol: float = QP_TOL) -> QpSolution:
    """Unique minimizer of z' Sigma^{-1} z over z >= 1 by NNLS active-set search.

    With Sigma = C C' and A = C^{-1}, the substitution z = 1 + y turns the
    program into the nonnegative least-squares problem
    min_{y >= 0} |A y + A 1|^2 (Lawson-Hanson).  Its zero coordinates give a
    first guess I_0 of the active set.  I_0 and every set that differs from
    it by one coordinate are tested for Sigma_I^{-1} 1 > 0 and
    Sigma_{JI} Sigma_I^{-1} 1 >= 1 componentwise (within ``tol``); exactly
    one may pass, otherwise the search is reported as degenerate together
    with the passing sets.
    """
    m = _as_matrix(sigma)
    d = m.shape[0]
    a = np.linalg.inv(np.linalg.cholesky(m))
    try:
        y, _ = nnls(a, -a.sum(axis=1))
    except RuntimeError as err:
        raise DegenerateQpError(f"NNLS did not converge: {err}", []) from None
    base = tuple(j for j in range(d) if y[j] == 0.0)
    trial = [base]
    trial += [tuple(k for k in base if k != j) for j in base]
    trial += [tuple(sorted(base + (j,))) for j in range(d) if j not in base]
    passed = [c for c in (_qp_candidate(m, idx, tol) for idx in trial if idx)
              if c is not None]
    if len(passed) != 1:
        raise DegenerateQpError(
            f"active-set search found {len(passed)} candidates, expected 1",
            sorted((p.index_set for p in passed), key=lambda s: (len(s), s)))
    return passed[0]


def _check_subset_cap(d: int) -> None:
    """Refuse a subset search in dimension d > ``QP_DIM_CAP`` before it starts."""
    if d > QP_DIM_CAP:
        raise CapacityError(
            f"subset enumeration is 2^d; d = {d} exceeds cap {QP_DIM_CAP}",
            QP_DIM_CAP)


def _check_cone_order(d: int, i: int) -> None:
    if not 1 <= i <= d:
        raise DomainError(f"cone order must lie in 1..{d}")


def _subset_qp_cache(m: np.ndarray):
    """Memoised QP solution of the principal submatrix of ``m`` on a subset."""
    return functools.cache(lambda subset: solve_qp(_principal(m, subset)))


def _gaussian_cone_data(m: np.ndarray, i: int):
    """gamma_i, the argmin family S_i, and |I_i| for cone order i >= 2.

    gamma_i is the minimum of the QP value gamma(S) over |S| >= i, yet only
    the C(d, i) sets of size i are solved, because no larger set attains it.
    gamma grows under inclusion (Hashorva & Huesler 2003).  For |T| > i,
    T's dual maximiser puts a positive multiplier on some coordinate k, and
    the dual is strictly concave, so gamma(T - {k}) < gamma(T); monotonicity
    then gives a size-i S within T - {k} with gamma(S) < gamma(T).  Dropping
    a coordinate with a zero multiplier need not lower the value, even one
    at its bound.  The family keeps the size-i sets within ``TIE_TOL`` of
    gamma_i, in lexicographic order.
    """
    d = m.shape[0]
    _check_subset_cap(d)
    qp_of = _subset_qp_cache(m)
    gammas = {s: qp_of(s).gamma for s in combinations(range(d), i)}
    gamma_i = min(gammas.values())
    family = tuple(s for s, g in gammas.items()
                   if g <= gamma_i * (1.0 + TIE_TOL))
    card_i = min(len(qp_of(s).index_set) for s in family)
    return gamma_i, family, card_i, qp_of


def gaussian_cone_spec(sigma, alpha: float, theta: float, i: int) -> ConeSpec:
    """Cone-i regular-variation data for the Gaussian family.

    For i = 1 the index is alpha itself with b_1(t) = (theta t)^(1/alpha);
    for i >= 2 the index is alpha * gamma_i with gamma_i the minimum of the
    quadratic program over all principal submatrices of size >= i.
    """
    ParetoMargin(alpha, theta)
    m = _as_matrix(sigma)
    d = m.shape[0]
    _check_cone_order(d, i)
    if i == 1:
        singles = tuple((j,) for j in range(d))
        return ConeSpec(i=1, alpha_i=alpha, b_inv=PowerLog(c=1.0 / theta, a=alpha),
                        argmin_sets=singles, card_i=1)
    gamma_i, family, card_i, _ = _gaussian_cone_data(m, i)
    b_inv = PowerLog(c=(2.0 * math.pi) ** (-gamma_i / 2.0) * theta ** (-gamma_i),
                     a=alpha * gamma_i, p=(card_i - gamma_i) / 2.0,
                     kappa=0.0, lam=2.0 * alpha)
    return ConeSpec(i=i, alpha_i=alpha * gamma_i, b_inv=b_inv,
                    argmin_sets=family, card_i=card_i)


def upsilon_constant(m: np.ndarray, qp: QpSolution) -> float:
    """Prefactor of the Gaussian limit measure on one rectangle family of
    the correlation entries ``m``: (2 pi)^(-|I|/2) |Sigma_I|^(-1/2) times
    prod_{s in I} h_s^{-1} and the orthant probability, given I, of the
    inactive coordinates on the e* = 1 boundary (1 when there are none)."""
    ii = list(qp.index_set)
    bb = [j for j in range(m.shape[0]) if j not in qp.index_set
          and abs(qp.e_star[j] - 1.0) <= BORDERLINE_TOL]
    det_i = float(np.linalg.det(m[np.ix_(ii, ii)]))
    val = (2.0 * math.pi) ** (-len(ii) / 2.0) / math.sqrt(det_i)
    val /= float(np.prod(qp.h))
    if bb:
        warnings.warn("inactive coordinate sits on the e* = 1 boundary; "
                      "orthant threshold set to 0", RuntimeWarning)
        cond = m[np.ix_(bb, bb)] - m[np.ix_(bb, ii)] @ np.linalg.solve(
            m[np.ix_(ii, ii)], m[np.ix_(ii, bb)])
        val *= normal_orthant_survival(np.zeros(len(bb)), cond)
    return val


def gaussian_mu(sigma, alpha: float, i: int, rect: RectSet) -> float:
    """Limit-measure mass of a rectangle under the cone-i Gaussian measure."""
    ParetoMargin(alpha)
    m = _as_matrix(sigma)
    if rect.d != m.shape[0]:
        raise DomainError("rectangle dimension does not match Sigma")
    _check_cone_order(rect.d, i)
    if len(rect.subset) < i:
        raise DomainError("rectangle must constrain at least i coordinates")
    if i == 1:
        if len(rect.subset) > 1:
            return 0.0
        return rect.thresholds[0] ** (-alpha)
    gamma_i, family, card_i, qp_of = _gaussian_cone_data(m, i)
    subset = tuple(rect.subset)
    if subset not in family:
        return 0.0
    qp = qp_of(subset)
    if len(qp.index_set) != card_i:
        return 0.0
    sub = m[np.ix_(list(subset), list(subset))]
    ups = upsilon_constant(sub, qp)
    z = np.asarray(rect.thresholds)
    active = list(qp.index_set)
    return float(ups * np.prod(z[active] ** (-alpha * qp.h)))


def gaussian_tail_asymptotic(sigma, alpha: float, theta: float,
                             rect: RectSet, t: float) -> float:
    """Leading-order approximation of P(Z_s > t z_s for all s in S)."""
    floor = ParetoMargin(alpha, theta).support_floor
    m = _as_matrix(sigma)
    if rect.d != m.shape[0]:
        raise DomainError("rectangle dimension does not match Sigma")
    if not t > 1.0:
        raise DomainError("t must exceed 1 so the log factor is positive")
    if t * min(rect.thresholds) <= floor:
        raise DomainError("t too small: scaled thresholds below the margin floor")
    subset = list(rect.subset)
    if len(subset) == 1:
        return theta * (t * rect.thresholds[0]) ** (-alpha)
    sub = _principal(m, subset)
    qp = solve_qp(sub)
    ups = upsilon_constant(sub.entries, qp)
    z = np.asarray(rect.thresholds)
    gam = qp.gamma
    card = len(qp.index_set)
    val = ups * (2.0 * math.pi) ** (gam / 2.0) * theta ** gam * t ** (-alpha * gam)
    val *= (2.0 * alpha * math.log(t)) ** ((gam - card) / 2.0)
    val *= float(np.prod(z[list(qp.index_set)] ** (-alpha * qp.h)))
    return float(val)


def mo_variant(variant: str) -> str:
    """``variant`` if the Marshall-Olkin closed forms cover it (equal or
    proportional); ModelError for the general variant."""
    if variant not in ("equal", "proportional"):
        raise ModelError("closed forms need the equal or proportional variant")
    return variant


def mo_alpha_i(variant: str, alpha: float, d: int, i: int) -> float:
    _check_cone_order(d, i)
    if mo_variant(variant) == "equal":
        return (2.0 - 2.0 ** (-(i - 1))) * alpha
    return alpha * (2.0 * d - (d - i) / 2.0 ** (i - 1)) / (d + 1.0)


def mo_max_exponent(variant: str, d: int) -> float:
    """Exponent eta of the larger of two asset ratios in the cone-2 limit
    measure: 1/2 (equal) or d / (2(d + 1)) (proportional)."""
    return 0.5 if mo_variant(variant) == "equal" else d / (2.0 * (d + 1.0))


def mo_max_exponent_inverse(variant: str, d: int) -> float:
    """1 / eta, the ECI, as 2 or 2 + 2/d: 1.0 / eta rounds apart at d = 11."""
    return 2.0 if mo_variant(variant) == "equal" else 2.0 + 2.0 / d


def mo_cone_spec(variant: str, alpha: float, theta: float, d: int, i: int) -> ConeSpec:
    """Cone-i data for the Marshall-Olkin family: pure power scale, no logs."""
    ParetoMargin(alpha, theta)
    a_i = mo_alpha_i(variant, alpha, d, i)
    b_inv = PowerLog(c=theta ** (-a_i / alpha), a=a_i)
    return ConeSpec(i=i, alpha_i=a_i, b_inv=b_inv)


def mo_mu(variant: str, alpha: float, d: int, i: int, rect: RectSet) -> float:
    """Limit-measure mass of a rectangle: a product over the decreasing order
    statistics of the thresholds, nonzero only when |S| = i."""
    ParetoMargin(alpha)
    if rect.d != d:
        raise DomainError("rectangle dimension does not match d")
    if len(rect.subset) < i:
        raise DomainError("rectangle must constrain at least i coordinates")
    equal = mo_variant(variant) == "equal"
    if len(rect.subset) != i:
        return 0.0
    z = np.sort(np.asarray(rect.thresholds))[::-1]
    j = np.arange(1, i + 1)
    if equal:
        expo = alpha * 2.0 ** (-(j - 1.0))
    else:
        expo = alpha * (1.0 - (j - 1.0) / (d + 1.0)) * 2.0 ** (-(j - 1.0))
    return float(np.prod(z ** (-expo)))


def pairwise_ai_gaussian(sigma) -> bool:
    """Every positive-definite correlation matrix is pairwise asymptotically
    tail independent (all pairwise correlations below one)."""
    _as_matrix(sigma)
    return True


def mutual_ai_gaussian(sigma) -> bool:
    """True iff Sigma_S^{-1} 1 > 0 componentwise for every nonempty subset.

    The principal submatrices of each size are solved in stacks of at most
    ``STACK_CHUNK`` in ``combinations`` order; the first stack holding a
    subset with min h <= 0 ends the test.
    """
    m = _as_matrix(sigma)
    d = m.shape[0]
    _check_subset_cap(d)
    for size in range(2, d + 1):
        subsets = combinations(range(d), size)
        while chunk := list(islice(subsets, STACK_CHUNK)):
            idx = np.array(chunk)
            h = np.linalg.solve(m[idx[:, :, None], idx[:, None, :]],
                                np.ones((len(chunk), size, 1)))
            if np.min(h) <= 0.0:
                return False
    return True


def gaussian_support_mass(sigma, i: int, subset) -> bool:
    """True iff the cone-i limit measure charges the face spanned by S."""
    m = _as_matrix(sigma)
    _check_cone_order(m.shape[0], i)
    s = tuple(sorted(subset))
    if len(s) != i:
        raise DomainError("subset size must equal the cone order")
    if i == 1:
        return True
    gamma_i, family, card_i, qp_of = _gaussian_cone_data(m, i)
    return s in family and len(qp_of(s).index_set) == card_i


@dataclass(frozen=True)
class AiRatioPoint:
    u: float
    ratio: float
    stderr: float
    reliable: bool


def _exact_subset_survival(model: RiskModel, subset, u: float) -> float:
    vec = np.ones(model.d)
    vec[list(subset)] = u
    return survival_copula(model, vec)


def empirical_ai_ratio(model, subset, ell: int, u_grid: Sequence[float],
                       n: int, seed: int) -> list:
    """C_hat_S(u,..,u) / C_hat_{S minus ell}(u,..,u) along a decreasing grid.

    Exact survival-copula evaluation for the independence and Marshall-Olkin
    families; Monte Carlo counting with binomial standard errors otherwise.
    Points with fewer than 20 joint exceedances are flagged unreliable.
    """
    s = tuple(sorted(subset))
    if ell not in s or len(s) < 2:
        raise DomainError("need ell in S and |S| >= 2")
    u_grid = [float(u) for u in u_grid]
    if any(not 0 < u < 1 for u in u_grid) or \
            any(a <= b for a, b in zip(u_grid, u_grid[1:])):
        raise DomainError("u grid must be strictly decreasing inside (0, 1)")
    reduced = tuple(j for j in s if j != ell)

    if isinstance(model, RiskModel) and isinstance(model.dependence, (Iid, MarshallOlkin)):
        out = []
        for u in u_grid:
            num = _exact_subset_survival(model, s, u)
            den = _exact_subset_survival(model, reduced, u)
            out.append(AiRatioPoint(u, num / den, 0.0, True))
        return out

    if isinstance(model, RiskModel):
        thresholds = [float(model.margin.quantile_tail(u)) for u in u_grid]
        stream, kernel = rng.STREAM_RISK, block_sampler(model)
    elif isinstance(model, BernsteinMixture):
        thresholds = [model.tail_threshold(u) for u in u_grid]
        stream, kernel = rng.STREAM_MIXTURE, _mixture_block
    else:
        raise ModelError(f"unsupported model type {type(model).__name__}")

    counts = rng.reduce_blocked(
        n, seed, stream,
        lambda g, size: _count_hits(kernel(g, size), s, reduced, thresholds),
        combine=np.add, init=np.zeros((len(u_grid), 2), dtype=np.int64))
    out = []
    for (k_full, k_red), u in zip(counts, u_grid):
        if k_red == 0:
            out.append(AiRatioPoint(u, math.nan, math.nan, False))
            continue
        ratio = k_full / k_red
        stderr = math.sqrt(max(ratio * (1.0 - ratio), 0.0) / k_red)
        out.append(AiRatioPoint(u, ratio, stderr, k_full >= 20))
    return out


def _count_hits(z, subset, reduced, thresholds):
    counts = np.zeros((len(thresholds), 2), dtype=np.int64)
    for i, thr in enumerate(thresholds):
        exceed = z > thr
        red = np.all(exceed[:, list(reduced)], axis=1)
        counts[i, 1] = int(red.sum())
        counts[i, 0] = int((red & np.all(exceed[:, list(subset)], axis=1)).sum())
    return counts
