"""The NNLS active-set search in solve_qp against the 2^d enumeration oracle,
its KKT conditions beyond the oracle's reach, and the subset-loop cap."""

import math
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailnet as tn
from tailnet.errors import CapacityError, DegenerateQpError

from conftest import random_correlation
from qp_oracle import assert_kkt, enumerate_qp

SQ2 = math.sqrt(2.0)


def one_factor(loadings) -> tn.CorrelationMatrix:
    lo = np.asarray(loadings, dtype=float)
    m = np.outer(lo, lo)
    np.fill_diagonal(m, 1.0)
    return tn.CorrelationMatrix(m)


def mixed_sign_loadings(d, g):
    return g.uniform(0.2, 0.9, d) * g.choice([-1.0, 1.0], d)


def assert_bit_identical(sol, ref):
    assert sol.index_set == ref.index_set
    assert all(type(j) is int for j in sol.index_set)
    assert sol.gamma == ref.gamma
    assert np.array_equal(sol.e_star, ref.e_star)
    assert np.array_equal(sol.h, ref.h)


class TestAgainstEnumeration:
    def test_random_correlation_d2_to_10(self, corr_rng):
        for d in range(2, 11):
            for _ in range(6):
                sigma = random_correlation(d, corr_rng)
                assert_bit_identical(tn.solve_qp(sigma), enumerate_qp(sigma))

    def test_one_factor_mixed_signs(self):
        g = np.random.default_rng(404)
        for d in range(2, 11):
            for _ in range(6):
                sigma = one_factor(mixed_sign_loadings(d, g))
                assert_bit_identical(tn.solve_qp(sigma), enumerate_qp(sigma))

    def test_borderline_e_star_one(self):
        rho = 1.0 / (2.0 * SQ2 - 1.0)
        sig = np.array([[1, rho, rho * SQ2], [rho, 1, rho * SQ2],
                        [rho * SQ2, rho * SQ2, 1]])
        sol = tn.solve_qp(sig)
        assert_bit_identical(sol, enumerate_qp(sig))
        assert sol.index_set == (0, 1)

    def test_degenerate_candidates_come_from_the_enumeration(self):
        # the search tests only sets next to its first guess, so it reports
        # a subset of the enumeration's candidates, in the same order
        for sigma, tol, n_found in (
                (np.eye(3), 2.0, 0),
                (tn.CorrelationMatrix.equicorrelation(3, 0.5), 0.6, 3)):
            with pytest.raises(DegenerateQpError) as got:
                tn.solve_qp(sigma, tol=tol)
            with pytest.raises(DegenerateQpError) as ref:
                enumerate_qp(sigma, tol=tol)
            found = got.value.candidates
            assert len(found) == n_found
            assert found == [c for c in ref.value.candidates if c in found]

    def test_nnls_failure_is_degenerate(self, monkeypatch):
        def stalled(a, b):
            raise RuntimeError("Maximum number of iterations reached.")
        monkeypatch.setattr(tn.mrv, "nnls", stalled)
        with pytest.raises(DegenerateQpError) as err:
            tn.solve_qp(np.eye(3))
        assert err.value.candidates == []

    def test_subset_solves_skip_validation_bit_identically(self, corr_rng):
        # the cone spectra solve principal submatrices of a validated matrix
        # without re-validating them; the answers must not move
        sigma = random_correlation(6, corr_rng)
        qp_of = tn.mrv._subset_qp_cache(sigma.entries)
        for size in range(2, 7):
            for subset in combinations(range(6), size):
                sub = sigma.submatrix(subset)
                assert_bit_identical(qp_of(subset), enumerate_qp(sub))

    @given(st.lists(st.floats(-0.95, 0.95), min_size=2, max_size=8))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_property_one_factor(self, loadings):
        sigma = one_factor(loadings)
        assert_bit_identical(tn.solve_qp(sigma), enumerate_qp(sigma))


class TestLargeDimension:
    @pytest.mark.parametrize("d", [50, 200])
    def test_kkt_one_factor(self, d):
        g = np.random.default_rng(d)
        for loadings in (g.uniform(0.3, 0.8, d), mixed_sign_loadings(d, g)):
            sigma = one_factor(loadings)
            assert_kkt(sigma, tn.solve_qp(sigma))

    def test_cone_spectrum_refuses_before_looping(self):
        t0 = time.perf_counter()
        with pytest.raises(CapacityError):
            tn.gaussian_cone_spec(np.eye(21), 1.0, 1.0, 2)
        assert time.perf_counter() - t0 < 1.0
