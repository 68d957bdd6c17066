"""Reference checks for the Gaussian QP min_{z >= 1} z' Sigma^{-1} z.

:func:`enumerate_qp` tries every nonempty index set I (2^d - 1 of them)
with the same pass test and the same arithmetic as
:func:`tailnet.mrv.solve_qp`, so the two must agree to the bit wherever the
minimizer is unique.  :func:`assert_kkt` checks a solution directly, at any
dimension.  Test helpers only.
"""

from itertools import combinations

import numpy as np
import pytest

from tailnet.errors import DegenerateQpError
from tailnet.mrv import QP_TOL, QpSolution, _as_matrix


def enumerate_qp(sigma, tol: float = QP_TOL) -> QpSolution:
    """Keep every I with Sigma_I^{-1} 1 > tol and Sigma_JI Sigma_I^{-1} 1 >=
    1 - tol; exactly one may pass, otherwise raise DegenerateQpError with the
    passing sets in order of size, then lexicographically."""
    m = _as_matrix(sigma)
    d = m.shape[0]
    passed = []
    for size in range(1, d + 1):
        for idx in combinations(range(d), size):
            ii = list(idx)
            try:
                h = np.linalg.solve(m[np.ix_(ii, ii)], np.ones(size))
            except np.linalg.LinAlgError:
                continue
            if np.min(h) <= tol:
                continue
            jj = [j for j in range(d) if j not in idx]
            if jj:
                e_j = m[np.ix_(jj, ii)] @ h
                if np.min(e_j) < 1.0 - tol:
                    continue
            else:
                e_j = np.empty(0)
            e_star = np.ones(d)
            e_star[jj] = e_j
            passed.append((idx, e_star, float(h.sum()), h))
    if len(passed) != 1:
        raise DegenerateQpError(
            f"active-set enumeration found {len(passed)} candidates, expected 1",
            [p[0] for p in passed])
    idx, e_star, gamma, h = passed[0]
    return QpSolution(index_set=idx, e_star=e_star, gamma=gamma, h=h)


def assert_kkt(sigma, sol: QpSolution, tol: float = 1e-9) -> None:
    """h > 0, Sigma_II h = 1, e*_I = 1, e*_J = Sigma_JI h >= 1, gamma = sum h."""
    m = _as_matrix(sigma)
    ii = list(sol.index_set)
    jj = [j for j in range(m.shape[0]) if j not in sol.index_set]
    h = np.asarray(sol.h)
    e_star = np.asarray(sol.e_star)
    assert np.all(h > 0.0)
    assert np.allclose(m[np.ix_(ii, ii)] @ h, 1.0, rtol=0, atol=tol)
    assert np.all(e_star[ii] == 1.0)
    assert np.all(e_star[jj] >= 1.0 - tol)
    assert np.allclose(m[np.ix_(jj, ii)] @ h, e_star[jj], rtol=0, atol=tol)
    assert sol.gamma == pytest.approx(float(h.sum()), rel=1e-12)
