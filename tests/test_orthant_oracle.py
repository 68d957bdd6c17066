"""normal_orthant_survival against the one-factor quadrature oracle: error
within the reported error, the reported error within the target, and the
work it takes to get there."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ndtri

import tailnet.orthant as orthant
from tailnet.orthant import normal_orthant_survival

from orthant_oracle import one_factor_orthant, one_factor_sigma


def loadings(kind, d):
    if kind == "equicorrelated":
        return np.full(d, math.sqrt(0.3))
    return np.random.default_rng(d).uniform(0.3, 0.8, d)


@pytest.mark.parametrize("u", [1e-3, 1e-5, 1e-8])
@pytest.mark.parametrize("d", [3, 6, 8, 12, 16])
@pytest.mark.parametrize("kind", ["equicorrelated", "random"])
def test_error_is_within_reported_error_and_target(kind, d, u):
    lam = loadings(kind, d)
    lower = np.full(d, -ndtri(u))
    est, err = normal_orthant_survival(lower, one_factor_sigma(lam),
                                       return_error=True)
    true = one_factor_orthant(lower, lam)
    assert abs(est - true) <= err <= 1e-3 * est


def test_covariance_scaling_gives_the_correlation_value():
    lam = loadings("random", 6)
    sigma = one_factor_sigma(lam)
    lower = np.full(6, -ndtri(1e-4))
    scale = np.array([0.5, 2.0, 1.0, 3.0, 0.25, 1.5])
    cov = sigma * np.outer(scale, scale)
    ref = normal_orthant_survival(lower, sigma)
    assert normal_orthant_survival(scale * lower, cov) == \
        pytest.approx(ref, rel=1e-9)


def test_first_bound_beyond_the_old_inverse_clip():
    # Phi_bar(37.3) is about 2.5e-304: below the 1e-300 floor at which a
    # linear-space inverse would clip, and still a normal double
    lam = np.array([0.6, 0.5, 0.4])
    lower = np.array([37.3, 11.5, 9.5])
    est, err = normal_orthant_survival(lower, one_factor_sigma(lam),
                                       return_error=True)
    true = one_factor_orthant(lower, lam)
    assert 0.0 < est < 1e-300 and math.isfinite(err)
    assert abs(est - true) <= err <= 1e-3 * est


@pytest.mark.parametrize("failed", [
    SimpleNamespace(success=False, x=np.zeros(6)),
    SimpleNamespace(success=True, x=np.full(6, np.nan)),
])
def test_failed_tilt_solve_falls_back_to_untilted(monkeypatch, failed):
    monkeypatch.setattr(orthant, "root", lambda *a, **k: failed)
    lam = np.array([0.4, 0.7, 0.5, 0.6])
    lower = np.full(4, -ndtri(1e-2))
    est, err = normal_orthant_survival(lower, one_factor_sigma(lam),
                                       return_error=True)
    assert abs(est - one_factor_orthant(lower, lam)) <= err


def test_one_factor_d8_meets_target_within_4096_points_per_shift(monkeypatch):
    sizes = []
    batch = orthant._lattice_batch

    def counted(dim, n, shift):
        sizes.append(n)
        return batch(dim, n, shift)

    monkeypatch.setattr(orthant, "_lattice_batch", counted)
    lam = np.array([0.528, 0.367, 0.46, 0.603, 0.367, 0.386, 0.575, 0.348])
    est, err = normal_orthant_survival(np.full(8, -ndtri(1e-3)),
                                       one_factor_sigma(lam),
                                       return_error=True)
    assert err <= 1e-3 * est
    assert sizes and max(sizes) <= 4096


D8_LOADINGS = np.array([0.528, 0.367, 0.46, 0.603, 0.367, 0.386, 0.575, 0.348])


def test_a_doubling_call_draws_its_shifts_from_block_zero_only(monkeypatch):
    blocks, sizes = [], []
    stream, batch = orthant.philox_stream, orthant._lattice_batch

    def spied(seed, stream_id, block=0):
        blocks.append((stream_id, block))
        return stream(seed, stream_id, block)

    def counted(dim, n, shift):
        sizes.append(n)
        return batch(dim, n, shift)

    monkeypatch.setattr(orthant, "philox_stream", spied)
    monkeypatch.setattr(orthant, "_lattice_batch", counted)
    normal_orthant_survival(np.full(8, -ndtri(1e-3)),
                            one_factor_sigma(D8_LOADINGS))
    assert max(sizes) > 512     # the call doubled
    assert blocks == [(orthant.STREAM_ORTHANT, 0)]


def test_each_lattice_point_is_weighted_once(monkeypatch):
    sizes, rows = [], []
    batch, weights = orthant._lattice_batch, orthant._tilted_log_weights

    def counted(dim, n, shift):
        sizes.append(n)
        return batch(dim, n, shift)

    def weighed(off, bound, mu, w):
        rows.append(w.shape[0])
        return weights(off, bound, mu, w)

    monkeypatch.setattr(orthant, "_lattice_batch", counted)
    monkeypatch.setattr(orthant, "_tilted_log_weights", weighed)
    normal_orthant_survival(np.full(8, -ndtri(1e-3)),
                            one_factor_sigma(D8_LOADINGS))
    assert max(sizes) > 512
    assert sum(rows) == 12 * max(sizes)


@pytest.mark.parametrize("lower, want", [
    (0.0, (0.24995415383312763, 0.00015805053053012904)),
    ((1.0, 0.5, 2.0), (0.011333166684107233, 3.36345029522048e-06)),
    (3.0, (1.5132015694581172e-05, 8.033777961043686e-09)),
])
def test_equicorrelated_d3_values_stay_pinned(lower, want):
    sigma = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
    got = normal_orthant_survival(np.broadcast_to(lower, 3), sigma,
                                  return_error=True)
    assert got == want
