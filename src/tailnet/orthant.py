"""Multivariate normal survival (orthant-type) probabilities.

Two routes are provided on purpose:

* :func:`bivariate_normal_survival` integrates the classical one-dimensional
  correlation integral with adaptive quadrature.  It is deterministic,
  accurate to ~1e-10 relative even for joint probabilities far into the
  tail, and serves as the independent oracle for the d = 2 case.
* :func:`normal_orthant_survival` handles general dimension with the
  separation-of-variables transform, integrated by a shifted Kronecker
  lattice.  Three pieces make it reach its relative target in the tail:

  - Genz-Bretz variable prioritisation (Genz & Bretz 2009, *Computation of
    Multivariate Normal and t Probabilities*, section 4.1.3): the Cholesky
    factor is built one column at a time, each time for the remaining
    variable with the smallest conditional probability given the earlier
    ones at their truncated means.
  - Minimax exponential tilting (Botev 2017, "The normal law under linear
    restrictions", JRSS-B 79:125): each conditional truncated normal is
    drawn with its mean shifted by mu_k and reweighted.  mu solves the
    saddle-point equations of the log-weight psi(x, mu) by Newton's method
    (:func:`root`), which gives the estimator bounded relative error in the
    deep tail.  If that solve fails the estimator runs untilted (mu = 0).
  - A log-space truncated-normal inverse (``ndtri_exp`` of ``log_ndtr``),
    with the weights summed as logs, so conditional probabilities below
    1e-300 neither clip nor underflow.

  The twelve lattice shifts are drawn once from a fixed internal Philox
  stream, so the function is pure.  A Kronecker lattice is extensible (its
  first n points are the n-point rule), so a doubling adds only new points.

Both compute ``P(Y_j > lower_j for all j)`` for ``Y ~ N(0, sigma)``.
``-inf`` components are allowed and marginalised away exactly.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from scipy.special import log_ndtr, logsumexp, ndtr, ndtri_exp

from .errors import DomainError
from .rng import STREAM_ORTHANT, philox_stream

_INTERNAL_SEED = 0x0A7A  # fixed: orthant integration is a pure function

_PRIMES = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107,
                    109, 113, 127, 131], dtype=float)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

ROOT_STEPS = 100     # Newton steps before the tilt solve gives up
ROOT_XTOL = 1e-8     # converged once a full step is this small, relative


def bivariate_normal_survival(h: float, k: float, rho: float) -> float:
    """P(Y1 > h, Y2 > k) for standard bivariate normal with correlation rho.

    Uses the identity  P(Y1>h, Y2>k; rho) = Phi_bar(h) Phi_bar(k)
    + int_0^rho phi2(h, k; t) dt  with the bivariate normal density phi2.
    ``scipy.integrate`` is loaded on the first call that integrates.
    """
    if not -1.0 < rho < 1.0:
        raise DomainError(f"correlation must lie in (-1, 1), got {rho}")
    if math.isinf(h) and h < 0:
        return 1.0 if (math.isinf(k) and k < 0) else float(ndtr(-k))
    if math.isinf(k) and k < 0:
        return float(ndtr(-h))
    base = float(ndtr(-h) * ndtr(-k))
    if rho == 0.0:
        return base
    from scipy.integrate import quad

    def integrand(t):
        om = 1.0 - t * t
        return math.exp(-(h * h - 2.0 * t * h * k + k * k) / (2.0 * om)) \
            / (2.0 * math.pi * math.sqrt(om))

    corr, _ = quad(integrand, 0.0, rho, epsabs=0.0, epsrel=1e-11, limit=200)
    return max(base + corr, 0.0)


def _mills(a, log_sf):
    """phi(a) / Phi_bar(a), given log Phi_bar(a)."""
    return np.exp(-0.5 * a * a - log_sf - _LOG_SQRT_2PI)


def _prioritised_cholesky(lower, sigma):
    """Genz-Bretz ordering: (order, Cholesky factor of the reordered sigma,
    truncated means of the ordered standardised variables)."""
    d = lower.size
    rest = list(range(d))
    order = []
    chol = np.zeros((d, d))       # row = original index, column = step
    var = np.diag(sigma).copy()   # variance left after the earlier steps
    means = np.zeros(d)
    for j in range(d):
        idx = np.array(rest)
        if np.any(var[idx] <= 0.0):
            raise DomainError("sigma must be positive definite")
        t = (lower[idx] - chol[idx, :j] @ means[:j]) / np.sqrt(var[idx])
        log_sf = log_ndtr(-t)
        k = int(np.argmin(log_sf))          # first minimum: lowest index
        pick = rest.pop(k)
        order.append(pick)
        pivot = math.sqrt(var[pick])
        chol[pick, j] = pivot
        if rest:
            idx = np.array(rest)
            chol[idx, j] = (sigma[idx, pick]
                            - chol[idx, :j] @ chol[pick, :j]) / pivot
            var[idx] -= chol[idx, j] ** 2
        means[j] = _mills(t[k], log_sf[k])
    return order, chol[order], means


def _tilt_equations(y, off, bound):
    """Gradient of psi(x, mu) in (x_1..x_{d-1}, mu_1..mu_{d-1}) and its
    Jacobian, for psi = sum_k mu_k^2 / 2 - x_k mu_k + log Phi_bar(a_k - mu_k)
    with a_k = bound_k - sum_{j<k} off_kj x_j and x_d = mu_d = 0; ``off`` is
    the standardised factor minus the identity."""
    d = bound.size
    x = np.zeros(d)
    mu = np.zeros(d)
    x[:-1], mu[:-1] = y[:d - 1], y[d - 1:]
    a = bound - off @ x - mu
    p = _mills(a, log_ndtr(-a))
    grad = np.concatenate([(p @ off)[:-1] - mu[:-1], (mu - x + p)[:-1]])
    dp = a * p - p * p
    dl = dp[:, None] * off
    mx = (dl - np.eye(d))[:-1, :-1]
    jac = np.block([[(off.T @ dl)[:-1, :-1], mx.T],
                    [mx, np.diag(1.0 + dp[:-1])]])
    return grad, jac


def root(fun, x0, args=()):
    """Solve F(x) = 0 by Newton's method, ``fun(x, *args)`` returning F and
    its Jacobian.  Each step is halved until |F| falls (Armijo backtracking);
    the solve has converged, with ``success`` set, once a full Newton step is
    below ``ROOT_XTOL`` relative to x, and that last step is taken.  A
    singular Jacobian, a step along which |F| does not fall, or
    ``ROOT_STEPS`` steps end it unconverged."""
    x = np.asarray(x0, dtype=float)
    f, jac = fun(x, *args)
    norm = float(np.linalg.norm(f))
    for _ in range(ROOT_STEPS):
        try:
            step = np.linalg.solve(jac, f)
        except np.linalg.LinAlgError:
            break
        if np.abs(step).max() <= ROOT_XTOL * (1.0 + np.abs(x).max()):
            return SimpleNamespace(x=x - step, success=True)
        t = 1.0
        while t > 1e-9:
            trial = x - t * step
            f_trial, jac_trial = fun(trial, *args)
            norm_trial = float(np.linalg.norm(f_trial))
            if norm_trial <= (1.0 - 1e-4 * t) * norm:
                break
            t *= 0.5
        else:
            break
        x, f, jac, norm = trial, f_trial, jac_trial, norm_trial
    return SimpleNamespace(x=x, success=False)


def _tilt(off, bound, means):
    """Minimax tilt mu (length d, mu_d = 0); zeros if the solve fails."""
    d = bound.size
    y0 = np.concatenate([means[:-1], means[:-1]])
    sol = root(_tilt_equations, y0, args=(off, bound))
    mu = np.zeros(d)
    if sol.success and np.all(np.isfinite(sol.x)):
        mu[:-1] = sol.x[d - 1:]
    return mu


def _lattice_batch(dim: int, n: int, shift: np.ndarray) -> np.ndarray:
    alpha = np.sqrt(_PRIMES[:dim])
    k = np.arange(1, n + 1, dtype=float)[:, None]
    pts = k * alpha[None, :] + shift[None, :]
    pts -= np.floor(pts)
    return pts


def _tilted_log_weights(off, bound, mu, w):
    """Log importance weights psi(z, mu) of the tilted sequential draws z
    driven by the lattice points ``w`` (one row per point, d - 1 columns);
    the weights average to the orthant probability."""
    m, d = w.shape[0], bound.size
    z = np.empty((m, d - 1))
    logw = np.full(m, 0.5 * float(mu @ mu))
    for k in range(d):
        a = bound[k] - z[:, :k] @ off[k, :k]
        log_sf = log_ndtr(mu[k] - a)
        logw += log_sf
        if k < d - 1:
            z[:, k] = mu[k] - ndtri_exp(np.log1p(-w[:, k]) + log_sf)
            logw -= mu[k] * z[:, k]
    return logw


def normal_orthant_survival(lower, sigma, rel_tol: float = 1e-3,
                            return_error: bool = False):
    """P(Y > lower componentwise) for Y ~ N(0, sigma).

    Components with ``lower = -inf`` impose no constraint and are dropped
    before integration; one at ``+inf`` makes the probability 0.  For d >= 3
    each shift's tilted lattice is extended to twice its points, the points
    already evaluated kept, until the estimated error is below ``rel_tol``
    relative (or an internal cap of 2^17 points per shift is reached); the
    estimate and its error are returned when ``return_error`` is set.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    keep = ~np.isneginf(lower)
    lower = lower[keep]
    sigma = sigma[np.ix_(keep, keep)]
    d = lower.size
    if d == 0:
        return (1.0, 0.0) if return_error else 1.0
    if np.any(lower == np.inf):
        return (0.0, 0.0) if return_error else 0.0
    if d == 1:
        p = float(ndtr(-lower[0] / math.sqrt(sigma[0, 0])))
        return (p, 0.0) if return_error else p
    if d == 2:
        s0, s1 = math.sqrt(sigma[0, 0]), math.sqrt(sigma[1, 1])
        rho = sigma[0, 1] / (s0 * s1)
        p = bivariate_normal_survival(lower[0] / s0, lower[1] / s1, rho)
        return (p, 1e-10 * p) if return_error else p

    order, chol, means = _prioritised_cholesky(lower, sigma)
    scale = np.diag(chol)
    off = chol / scale[:, None] - np.eye(d)
    bound = lower[order] / scale
    mu = _tilt(off, bound, means)
    n_shifts, done, n_points = 12, 0, 512
    shifts = philox_stream(_INTERNAL_SEED, STREAM_ORTHANT).random(
        (n_shifts, d - 1))
    log_sums = np.full(n_shifts, -np.inf)
    while True:
        for j in range(n_shifts):
            w = _lattice_batch(d - 1, n_points, shifts[j])[done:]
            log_sums[j] = np.logaddexp(
                log_sums[j], logsumexp(_tilted_log_weights(off, bound, mu, w)))
        done = n_points
        log_means = log_sums - math.log(n_points)
        top = log_means.max()
        vals = np.exp(log_means - top)
        rel = 3.0 * float(vals.std(ddof=1)) / math.sqrt(n_shifts) \
            / float(vals.mean())
        if rel <= rel_tol or n_points >= (1 << 17):
            break
        n_points *= 2
    est = math.exp(top) * float(vals.mean())
    return (est, rel * est) if return_error else est
