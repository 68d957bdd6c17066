"""The monotone cone search and the stacked mutual-independence test against
the full scans of ``cone_oracle``, their work and memory bounds, and the
cone-order and margin checks of the mrv closed forms."""

import math
import time
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest

import tailnet as tn
from tailnet import mrv
from tailnet.errors import CapacityError, DomainError, ModelError
from tailnet.mrv import RectSet

from conftest import random_correlation
from cone_oracle import full_scan, loop_mutual_ai, scan_cone_data

SQ2 = math.sqrt(2.0)


def one_factor(loadings) -> np.ndarray:
    lo = np.asarray(loadings, dtype=float)
    m = np.outer(lo, lo)
    np.fill_diagonal(m, 1.0)
    return tn.CorrelationMatrix(m).entries


def borderline_06() -> np.ndarray:
    """matrix_06's shape with rho chosen so that e*_3 = 1 exactly."""
    rho = 1.0 / (2.0 * SQ2 - 1.0)
    return np.array([[1, rho, rho * SQ2], [rho, 1, rho * SQ2],
                     [rho * SQ2, rho * SQ2, 1]])


def cone_answers(m, i, probes):
    """Everything the public cone functions say at order i, on ``probes``
    (the family plus a few other size-i sets)."""
    z = tuple(1.0 + 0.5 * k for k in range(i))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return (mrv._gaussian_cone_data(m, i)[:3],
                tn.gaussian_cone_spec(m, 1.3, 0.7, i),
                [tn.gaussian_mu(m, 1.3, i, RectSet(len(m), s, z)) for s in probes],
                [tn.gaussian_support_mass(m, i, s) for s in probes])


def assert_matches_scan(m, i, scan):
    _, family, _, _ = mrv._gaussian_cone_data(m, i)
    others = [s for s in combinations(range(len(m)), i) if s not in family]
    probes = list(family[:3]) + others[:2]
    got = cone_answers(m, i, probes)
    with scan:
        ref = cone_answers(m, i, probes)
    assert got == ref


def assert_all_orders_match(m):
    scan = full_scan()
    for i in range(2, len(m) + 1):
        assert_matches_scan(m, i, scan)


class TestAgainstFullScan:
    def test_random_correlation_d3_to_10(self, corr_rng):
        for d in range(3, 11):
            m = random_correlation(d, corr_rng).entries
            assert_all_orders_match(m)

    def test_one_factor_mixed_signs_d3_to_10(self):
        g = np.random.default_rng(505)
        for d in range(3, 11):
            m = one_factor(g.uniform(0.2, 0.9, d) * g.choice([-1.0, 1.0], d))
            assert_all_orders_match(m)

    @pytest.mark.parametrize("m", [borderline_06(), np.eye(6),
                                   tn.CorrelationMatrix.equicorrelation(6, 0.4).entries],
                             ids=["e_star_one", "identity", "equicorrelation"])
    def test_crafted_ties(self, m):
        d = len(m)
        assert_all_orders_match(m)
        if d == 6:
            # every size-i set ties, and no superset does
            for i in range(2, d + 1):
                _, family, card_i, _ = mrv._gaussian_cone_data(m, i)
                assert family == tuple(combinations(range(d), i))
                assert card_i == i

    def test_inactive_coordinate_grows_the_frontier(self, monkeypatch):
        # the argmin set (1, 2, 3, 4) at i = 4 leaves coordinate 2 inactive,
        # yet its superset is not solved: dropping a coordinate with a
        # positive multiplier from a size-(i+1) set lowers the value
        m = one_factor([0.05, -0.49, -0.97, -0.8, -0.61])
        sizes = []
        solve = mrv.solve_qp

        def counted(sigma, *args, **kwargs):
            sizes.append(sigma.entries.shape[0])
            return solve(sigma, *args, **kwargs)

        monkeypatch.setattr(mrv, "solve_qp", counted)
        gamma_i, family, card_i, _ = mrv._gaussian_cone_data(m, 4)
        assert family == ((1, 2, 3, 4),) and card_i == 3
        assert set(sizes) == {4}
        assert (gamma_i, family, card_i) == scan_cone_data(m, 4)[:3]
        assert_matches_scan(m, 4, full_scan())


class TestWork:
    def test_d18_solve_count_and_time(self, monkeypatch):
        g = np.random.default_rng(18)
        m = one_factor(g.uniform(0.3, 0.8, 18))
        calls = []
        solve = mrv.solve_qp

        def counted(sigma, *args, **kwargs):
            calls.append(1)
            return solve(sigma, *args, **kwargs)

        monkeypatch.setattr(mrv, "solve_qp", counted)
        t0 = time.perf_counter()
        spec = tn.gaussian_cone_spec(m, 1.0, 1.0, 2)
        assert time.perf_counter() - t0 < 1.0
        assert len(calls) <= math.comb(18, 2) + 16 * len(spec.argmin_sets)

    def test_cap_still_refuses(self):
        for call in (lambda: tn.gaussian_cone_spec(np.eye(21), 1.0, 1.0, 2),
                     lambda: tn.gaussian_support_mass(np.eye(21), 2, (0, 1)),
                     lambda: tn.mutual_ai_gaussian(np.eye(21))):
            t0 = time.perf_counter()
            with pytest.raises(CapacityError):
                call()
            assert time.perf_counter() - t0 < 1.0


def first_failing_size(m):
    d = len(m)
    for size in range(2, d + 1):
        for s in combinations(range(d), size):
            ii = list(s)
            if np.min(np.linalg.solve(m[np.ix_(ii, ii)], np.ones(size))) <= 0.0:
                return size
    return None


class TestMutualAi:
    @pytest.mark.parametrize("m, fails_at", [
        (np.block([[np.array([[1, 0.6, 0.6 * SQ2], [0.6, 1, 0.6 * SQ2],
                              [0.6 * SQ2, 0.6 * SQ2, 1]]), np.zeros((3, 5))],
                   [np.zeros((5, 3)), np.eye(5)]]), 3),
        (one_factor([0.95] + [0.3] * 9), 6),
        (one_factor([0.9] + [0.2] * 7), 8),
        # only the last of the C(16, 6) = 8,008 size-6 subsets fails: the
        # second stack
        (np.block([[np.eye(10), np.zeros((10, 6))],
                   [np.zeros((6, 10)), one_factor([0.95] + [0.3] * 5)]]), 6),
        (tn.CorrelationMatrix.equicorrelation(12, 0.3).entries, None),
        (one_factor(np.linspace(0.2, 0.6, 11)), None),
    ], ids=["size3", "size6_of_10", "size8_of_8", "last_of_size6_of_16",
         "equi12", "factor11"])
    def test_matches_loop(self, m, fails_at):
        # pairs never fail: h = 1 / (1 + rho) > 0 for |rho| < 1
        assert first_failing_size(m) == fails_at
        assert tn.mutual_ai_gaussian(m) is (fails_at is None)
        assert tn.mutual_ai_gaussian(m) == loop_mutual_ai(m)

    @pytest.mark.parametrize("chunk", [4096, 3])
    def test_random_matches_loop(self, corr_rng, monkeypatch, chunk):
        # stacks of 4,096 (like the default 512) hold every subset of a size
        # for d < 10 in one stack; stacks of 3 put most past the first stack
        monkeypatch.setattr(mrv, "STACK_CHUNK", chunk)
        for d in range(3, 10):
            for _ in range(6):
                m = random_correlation(d, corr_rng)
                assert tn.mutual_ai_gaussian(m) == loop_mutual_ai(m)

    def test_stacked_solve_bits_equal_single_solves(self, corr_rng):
        m = random_correlation(12, corr_rng).entries
        for size in (2, 5, 9):
            subsets = list(combinations(range(12), size))[:500]
            idx = np.array(subsets)
            stacked = np.linalg.solve(m[idx[:, :, None], idx[:, None, :]],
                                      np.ones((len(subsets), size, 1)))[..., 0]
            single = np.array([np.linalg.solve(m[np.ix_(s, s)], np.ones(size))
                               for s in subsets])
            assert np.array_equal(stacked, single)

    def test_d16_spans_chunks_in_bounded_memory(self):
        # C(16, 8) = 12,870 subsets: four stacks; one stack of them all
        # peaks at about 12 MiB, the 4,096-subset stacks at about 7 MiB
        assert math.comb(16, 8) > 3 * mrv.STACK_CHUNK
        m = tn.CorrelationMatrix.equicorrelation(16, 0.1)
        tracemalloc.start()
        try:
            assert tn.mutual_ai_gaussian(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2 ** 20


class TestArgumentChecks:
    @pytest.mark.parametrize("i", [0, -1, 4])
    def test_cone_order_outside_1_to_d(self, i):
        sig = tn.CorrelationMatrix.equicorrelation(3, 0.5)
        with pytest.raises(DomainError):
            tn.gaussian_mu(sig, 1.0, i, RectSet(3, (0, 1, 2), (1.0, 1.0, 1.0)))
        with pytest.raises(DomainError):
            tn.gaussian_support_mass(sig, i, tuple(range(max(i, 0))))

    @pytest.mark.parametrize("alpha, theta", [
        (-1.0, 1.0), (0.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
        (1.0, 0.0), (1.0, -1.0), (1.0, math.inf)])
    def test_margin_parameters(self, alpha, theta):
        sig = tn.CorrelationMatrix.equicorrelation(3, 0.5)
        rect = RectSet(3, (0, 1), (1.0, 2.0))
        calls = [lambda: tn.gaussian_cone_spec(sig, alpha, theta, 2),
                 lambda: tn.gaussian_tail_asymptotic(sig, alpha, theta, rect, 10.0),
                 lambda: tn.mo_cone_spec("equal", alpha, theta, 3, 2)]
        if theta == 1.0:
            calls += [lambda: tn.gaussian_mu(sig, alpha, 2, rect),
                      lambda: tn.mo_mu("equal", alpha, 3, 2, rect)]
        for call in calls:
            with pytest.raises(ModelError):
                call()


def assert_solves_only_size_i(m, monkeypatch):
    """One search per order solves exactly the C(d, i) size-i programs and
    gives the full scan's gamma_i, family and |I_i|."""
    d, scan, solve, sizes = len(m), full_scan(), mrv.solve_qp, []

    def counted(sigma, *args, **kwargs):
        sizes.append(sigma.entries.shape[0])
        return solve(sigma, *args, **kwargs)

    for i in range(2, d + 1):
        monkeypatch.setattr(mrv, "solve_qp", counted)
        sizes.clear()
        got = mrv._gaussian_cone_data(m, i)[:3]
        monkeypatch.setattr(mrv, "solve_qp", solve)
        assert sizes == [i] * math.comb(d, i)
        assert got == scan.scan(m, i)[:3]


class TestSizeIScanOnly:
    def test_random_correlation_d3_to_10(self, corr_rng, monkeypatch):
        for d in range(3, 11):
            m = random_correlation(d, corr_rng).entries
            assert_solves_only_size_i(m, monkeypatch)

    def test_one_factor_mixed_signs_d3_to_10(self, monkeypatch):
        g = np.random.default_rng(505)
        for d in range(3, 11):
            m = one_factor(g.uniform(0.2, 0.9, d) * g.choice([-1.0, 1.0], d))
            assert_solves_only_size_i(m, monkeypatch)
