"""Row reductions compose: a reduction of a random law is a random law that
every ``network`` operation takes, a further reduction included.  Its
draws, losses and moments are the reductions of its base network's, and
``AggregatedNetwork`` checks its row sets where it is built."""

import dataclasses
import math

import numpy as np
import pytest

import tailnet as tn
import tailnet.network as nw
from tailnet import rng
from tailnet.copula import block_sampler
from tailnet.errors import ModelError
from tailnet.network import (AggregatedNetwork, _draw_law, _row_reduction,
                             loss_sampler, sample_adjacency_batch,
                             sample_losses, select_rows, support)

import network_oracle

UNIFORM = tn.WeightSpec("uniform", 0.5, 1.5)
# every row is all-zero with probability at least 0.3, so the loss blocks
# redraw many matrices
EDGE_PROB = np.array([[0.5, 0.0, 0.4], [0.3, 0.0, 0.0],
                      [0.0, 0.7, 0.0], [0.0, 0.4, 0.4]])
MODELS = {"iid": tn.RiskModel.iid(3, 1.2),
          "mo-equal": tn.RiskModel.marshall_olkin(3, "equal", 1.0),
          "gaussian": tn.RiskModel.gaussian(
              np.array([[1.0, 0.3, 0.5], [0.3, 1.0, 0.2], [0.5, 0.2, 1.0]]),
              1.1)}


def base_law():
    """A fresh base network, so no memoised moment draws are shared."""
    return tn.BipartiteNetwork(4, 3, EDGE_PROB, UNIFORM)


def nested(base):
    """(X0 + X1 + X2 + X3, X2 + X3): sums over the sums (X0 + X1, X2 + X3)."""
    return tn.aggregate(tn.aggregate(base, [0, 1], [2, 3]), [0, 1], [1])


def nested_rows(a):
    """The rows of :func:`nested` from rows ``a`` of the base, summed in the
    order the reductions sum them."""
    s01, s23 = a[:, 0] + a[:, 1], a[:, 2] + a[:, 3]
    return np.stack([s01 + s23, s23], axis=1)


def max_of_nested(a):
    """(max(X0 + X1 + X2 + X3, X2 + X3), X2 + X3) from base rows ``a``."""
    s = nested_rows(a)
    return np.stack([np.maximum(s[:, 0], s[:, 1]), s[:, 1]], axis=1)


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def test_a_reduction_of_a_reduction_draws_the_reductions_of_the_base():
    base = base_law()
    law = nested(base)
    assert isinstance(law.base, AggregatedNetwork)
    assert nw.law_shape(law) == (2, 3)
    a = _draw_law(base, rng.philox_stream(5, 2), 500)
    assert same_bytes(_draw_law(law, rng.philox_stream(5, 2), 500),
                      nested_rows(a))
    top = _row_reduction(law, [0, 1], [1], "max")
    assert same_bytes(_draw_law(top, rng.philox_stream(5, 2), 500),
                      max_of_nested(a))
    assert np.array_equal(support(law),
                          np.vstack([EDGE_PROB.any(axis=0),
                                     EDGE_PROB[2:].any(axis=0)]))


@pytest.mark.parametrize("threads", [1, 2])
def test_losses_of_a_reduction_of_a_reduction_sum_the_base_losses(threads):
    model = MODELS["mo-equal"]
    n = rng.BLOCK_SIZE // 16 + 777
    x = sample_losses(base_law(), model, n, seed=9, threads=threads)
    got = sample_losses(nested(base_law()), model, n, seed=9, threads=threads)
    np.testing.assert_allclose(got, nested_rows(x), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["iid", "gaussian"])
def test_loss_blocks_of_a_max_over_sums_equal_the_reduced_exposures(name):
    # the reductions apply innermost first to each chunk and to the
    # redrawn matrices, so the bytes are those of the whole-block product
    model = MODELS[name]
    law = _row_reduction(nested(base_law()), [0, 1], [1], "max")
    draw = loss_sampler(law, model, 4, 6, 7)
    for b, size in ((0, 1), (1, 2), (2, 3000)):
        a = _draw_law(base_law(), rng.philox_stream(4, 7, b), size)
        z = block_sampler(model)(rng.philox_stream(4, 6, b), size)
        assert same_bytes(draw(b, size),
                          np.einsum("nqd,nd->nq", max_of_nested(a), z))


def test_moments_of_a_reduction_of_a_reduction_reuse_the_base_draws(
        monkeypatch):
    sizes = []
    real = nw._draw_base

    def counting(net, g, n):
        sizes.append(n)
        return real(net, g, n)

    monkeypatch.setattr(nw, "_draw_base", counting)
    base = base_law()
    law = nested(base)

    def fn(a):
        return (a[:, 0, :] ** 1.2).sum(axis=1) * a[:, 1, :].max(axis=1)

    got = nw.a_moment(law, fn, n_a=800, seed=3)
    want = nw.a_moment(base, lambda a: fn(nested_rows(a)), n_a=800, seed=3)
    assert sizes == [800]
    assert (got.value, got.stderr) == (want.value, want.stderr)
    assert got.stderr > 0


def test_select_rows_of_a_reduction_swaps_its_rows():
    base = base_law()
    agg = tn.aggregate(base, [0, 1], [2, 3])
    swap = select_rows(agg, 1, 0)
    assert nw.law_shape(swap) == (2, 3)
    a = sample_adjacency_batch(agg, seed=4, n=300)
    assert same_bytes(sample_adjacency_batch(swap, seed=4, n=300),
                      np.ascontiguousarray(a[:, ::-1]))
    assert np.array_equal(support(swap), support(agg)[::-1])
    assert tn.overlap_profile(agg, k=1, m=0) == tn.overlap_profile(swap)


def test_select_rows_of_a_fixed_matrix_keeps_its_bits():
    m = np.array([[0.1, 2.0 / 3.0, 0.0], [1e-300, 0.0, 7.3],
                  [np.pi, 0.0, 1.0 / 7.0]])
    for k, j in ((2, 0), (0, 1), (1, 2)):
        assert same_bytes(select_rows(m, k, j).entries, m[[k, j], :])


def assert_close(got, want, path="report"):
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), path
        for f in dataclasses.fields(want):
            assert_close(getattr(got, f.name), getattr(want, f.name),
                         f"{path}.{f.name}")
    elif isinstance(want, float) and not math.isinf(want):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    else:
        assert got == want, path


# (X0 + X1 + X2 + X3, X2 + X3) shares assets; (X2, X0 + X1) does not
LAWS = {"overlap": nested,
        "disjoint": lambda base: tn.aggregate(tn.aggregate(base, [0, 1], [2]),
                                              [1], [0])}


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("kind", sorted(LAWS))
def test_one_vs_max_of_a_reduction_of_a_reduction_matches_the_reference(
        kind, name):
    model = MODELS[name]
    for k in (0, 1):
        kw = dict(t=50.0, gamma=1e-3, upsilon=0.7, n_a=5_000, seed=k + 2)
        got = tn.one_vs_max(LAWS[kind](base_law()), model, k, (1.3, 0.8),
                            **kw)
        want = network_oracle.one_vs_max(LAWS[kind](base_law()), model, k,
                                         (1.3, 0.8), **kw)
        assert (got.case == "overlap") == (kind == "overlap")
        assert_close(got, want, f"{kind}/{name}/k={k}")


@pytest.mark.parametrize("rows_s, rows_t", [
    ((), (1,)), ((0,), ()), ((0,), (7,)), ((-1,), (1,)), ((0, 4), (1,)),
])
def test_bad_row_sets_are_refused_where_the_reduction_is_built(rows_s, rows_t):
    with pytest.raises(ModelError):
        AggregatedNetwork(base_law(), rows_s, rows_t)


def test_row_sets_are_checked_against_a_reduced_base():
    agg = tn.aggregate(base_law(), [0, 1], [2, 3])
    AggregatedNetwork(agg, (1,), (0, 1), "max")
    for rows in ((2,), (0, 2), (-1,)):
        with pytest.raises(ModelError):
            AggregatedNetwork(agg, (0,), rows, "max")
