"""One-factor orthant oracle for ``normal_orthant_survival``.

For Sigma = lam lam' + diag(1 - lam^2), Y_j = lam_j Z + sqrt(1 - lam_j^2) E_j
with Z, E_j independent standard normals, so

    P(Y > l) = int phi(z) prod_j Phi_bar((l_j - lam_j z) / sqrt(1 - lam_j^2)) dz.

The integrand is evaluated in log space relative to its peak and integrated
with adaptive quadrature on both sides of the peak, so the value keeps about
ten correct digits however far into the tail the bounds sit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import log_ndtr


def one_factor_sigma(lam):
    lam = np.asarray(lam, dtype=float)
    sigma = np.outer(lam, lam)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def one_factor_orthant(lower, lam) -> float:
    """P(Y > lower) for the one-factor correlation matrix with loadings lam."""
    lower = np.asarray(lower, dtype=float)
    lam = np.asarray(lam, dtype=float)
    s = np.sqrt(1.0 - lam * lam)

    def log_f(z):
        return -0.5 * z * z + float(log_ndtr(-(lower - lam * z) / s).sum())

    hi = float(np.max(np.abs(lower))) + 40.0
    peak = minimize_scalar(lambda z: -log_f(z), bounds=(-hi, hi),
                           method="bounded", options={"xatol": 1e-10}).x
    top = log_f(peak)

    def f(z):
        return math.exp(log_f(z) - top)

    left, _ = quad(f, -np.inf, peak, epsabs=0.0, epsrel=1e-11, limit=400)
    right, _ = quad(f, peak, np.inf, epsabs=0.0, epsrel=1e-11, limit=400)
    return math.exp(top - 0.5 * math.log(2.0 * math.pi)) * (left + right)


def bivariate_orthant(h: float, k: float, rho: float) -> float:
    """P(Y1 > h, Y2 > k) for correlation rho, as the one-dimensional

        int_h^inf phi(x) Phi_bar((k - rho x) / sqrt(1 - rho^2)) dx,

    for h > 0 and rho < 0, where the integrand falls from its peak at
    x = h.  It is evaluated in log space relative to that peak, with
    breakpoints at a few multiples of its decay length there."""
    s = math.sqrt(1.0 - rho * rho)

    def log_f(x):
        return -0.5 * x * x + float(log_ndtr(-(k - rho * x) / s))

    top = log_f(h)
    z = (k - rho * h) / s
    mills = math.exp(-0.5 * z * z - float(log_ndtr(-z))) / math.sqrt(2 * math.pi)
    scale = 1.0 / (h - rho / s * mills)

    def f(u):
        return math.exp(log_f(h + u) - top)

    near, _ = quad(f, 0.0, 60.0 * scale, points=[scale, 5.0 * scale],
                   epsabs=0.0, epsrel=1e-13, limit=400)
    far, _ = quad(f, 60.0 * scale, np.inf, epsabs=0.0, epsrel=1e-13,
                  limit=400)
    return math.exp(top - 0.5 * math.log(2.0 * math.pi)) * (near + far)
