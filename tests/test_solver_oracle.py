"""The package's own Lawson-Hanson NNLS and Newton tilt solve against the
scipy routines they replace (``tests/solver_oracle.py``): the same NNLS zero
pattern and so the same QP bits, and the same minimax tilt and orthant
values, with neither tilt solve falling back to mu = 0."""

import numpy as np
import pytest
from scipy.special import ndtri

import tailnet as tn
import tailnet.mrv as mrv
import tailnet.orthant as orthant
from tailnet.errors import DegenerateQpError
from tailnet.orthant import normal_orthant_survival

from solver_oracle import (correlation, hybr_root, qp_matrices, scipy_nnls,
                           tilt_system)

QP_DIMS = range(2, 31)
TILT_CASES = [(kind, d, u) for kind in ("one-factor", "wishart", "mixed-sign")
              for d in range(3, 15) for u in (1e-3, 1e-6)]


def tilt_sigma(kind, d, u):
    g = np.random.default_rng(100 * d - round(np.log10(u)))
    return correlation(kind, d, g)


def nnls_system(sigma):
    """solve_qp's NNLS inputs: A = C^{-1} for Sigma = C C', b = -A 1."""
    a = np.linalg.inv(np.linalg.cholesky(sigma))
    return a, -a.sum(axis=1)


def qp_outcome(sigma):
    try:
        sol = tn.solve_qp(sigma)
    except DegenerateQpError as err:
        return ("degenerate", err.candidates)
    return (sol.index_set, sol.gamma, sol.e_star.tobytes(), sol.h.tobytes())


def test_nnls_zero_pattern_matches_scipy():
    for kind, d, sigma in qp_matrices(QP_DIMS, reps=4, seed=61):
        a, b = nnls_system(sigma)
        y, rnorm = mrv.nnls(a, b)
        ref, ref_rnorm = scipy_nnls(a, b)
        assert np.array_equal(y == 0.0, ref == 0.0), (kind, d)
        assert np.all(y >= 0.0)
        assert rnorm == pytest.approx(ref_rnorm, rel=1e-8, abs=1e-10)


def test_solve_qp_keeps_its_bits_under_either_nnls(monkeypatch):
    cases = list(qp_matrices(QP_DIMS, reps=2, seed=62))
    ours = [qp_outcome(sigma) for _, _, sigma in cases]
    monkeypatch.setattr(mrv, "nnls", scipy_nnls)
    theirs = [qp_outcome(sigma) for _, _, sigma in cases]
    for (kind, d, _), mine, ref in zip(cases, ours, theirs):
        assert mine == ref, (kind, d)


def test_nnls_is_exact_on_a_free_solution():
    # every coordinate free: the unconstrained least-squares solution
    g = np.random.default_rng(63)
    a = np.tril(g.uniform(0.5, 1.5, (6, 6)))
    y_true = g.uniform(0.5, 2.0, 6)
    y, rnorm = mrv.nnls(a, a @ y_true)
    assert np.allclose(y, y_true, rtol=1e-12) and rnorm < 1e-12


@pytest.mark.parametrize("kind,d,u", TILT_CASES)
def test_newton_tilt_matches_hybr(kind, d, u):
    off, bound, means = tilt_system(np.full(d, -ndtri(u)),
                                    tilt_sigma(kind, d, u))
    y0 = np.concatenate([means[:-1], means[:-1]])
    ours = orthant.root(orthant._tilt_equations, y0, args=(off, bound))
    ref = hybr_root(orthant._tilt_equations, y0, args=(off, bound))
    assert ours.success and ref.success
    mu, mu_ref = ours.x[d - 1:], ref.x[d - 1:]
    assert np.abs(mu - mu_ref).max() <= 1e-8 * np.abs(mu_ref).max()
    assert np.array_equal(orthant._tilt(off, bound, means)[:-1], mu)


@pytest.mark.parametrize("kind,d,u", TILT_CASES)
def test_orthant_value_matches_the_hybr_tilt(monkeypatch, kind, d, u):
    sigma = tilt_sigma(kind, d, u)
    lower = np.full(d, -ndtri(u))
    ours = normal_orthant_survival(lower, sigma)
    monkeypatch.setattr(orthant, "root", hybr_root)
    ref = normal_orthant_survival(lower, sigma)
    assert ours == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("x0", [1.0, 0.0], ids=["no-descent", "singular"])
def test_newton_reports_a_solve_without_a_root(x0):
    def no_root(x):
        return x * x + 1.0, np.diag(2.0 * x)

    sol = orthant.root(no_root, np.array([x0]))
    assert not sol.success
