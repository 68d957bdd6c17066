"""scipy references for the two numeric solves the package does itself.

* :func:`scipy_nnls` is ``scipy.optimize.nnls`` (the Lawson-Hanson routine),
  the reference for :func:`tailnet.mrv.nnls`.
* :func:`hybr_root` has the call of :func:`tailnet.orthant.root` and solves
  with ``scipy.optimize.root(method="hybr")`` (MINPACK's Powell hybrid), the
  reference for the Newton solve of the minimax tilt.
* :func:`tilt_system` builds the tilt equations' inputs exactly as
  ``normal_orthant_survival`` does.
* :func:`qp_matrices` yields the correlation families the solver checks run
  on.

Test helpers only: the package itself loads neither ``scipy.optimize`` nor
``scipy.integrate`` at import.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls as scipy_nnls  # noqa: F401  (re-exported)
from scipy.optimize import root as _scipy_root

from tailnet.orthant import _prioritised_cholesky

KINDS = ("wishart", "one-factor", "mixed-sign", "equicorrelation", "identity")


def hybr_root(fun, x0, args=()):
    return _scipy_root(fun, x0, args=args, jac=True, method="hybr")


def tilt_system(lower, sigma):
    """(off, bound, means) of the tilt equations for P(Y > lower)."""
    lower = np.asarray(lower, dtype=float)
    order, chol, means = _prioritised_cholesky(lower, sigma)
    scale = np.diag(chol)
    off = chol / scale[:, None] - np.eye(lower.size)
    return off, lower[order] / scale, means


def correlation(kind: str, d: int, g: np.random.Generator) -> np.ndarray:
    if kind == "wishart":
        a = g.standard_normal((d, d + 2))
        s = a @ a.T
        scale = 1.0 / np.sqrt(np.diag(s))
        return s * scale[:, None] * scale[None, :]
    if kind == "one-factor":
        lam = g.uniform(0.3, 0.8, d)
    elif kind == "mixed-sign":
        lam = g.uniform(0.2, 0.95, d) * g.choice([-1.0, 1.0], d)
    elif kind == "equicorrelation":
        lam = np.full(d, np.sqrt(g.uniform(0.0, 0.9)))
    else:
        lam = np.zeros(d)
    m = np.outer(lam, lam)
    np.fill_diagonal(m, 1.0)
    return m


def qp_matrices(dims, reps: int, seed: int):
    """(kind, d, Sigma) for every kind, every d in ``dims``, ``reps`` each."""
    g = np.random.default_rng(seed)
    for d in dims:
        for kind in KINDS:
            for _ in range(reps):
                yield kind, d, correlation(kind, d, g)
