"""The cache-blocked Marshall-Olkin and adjacency kernels return the same
bytes as the whole-block reference kernels in ``sampler_oracle``, across
chunk boundaries, rate variants, adjacency laws and thread counts."""

from itertools import combinations

import numpy as np
import pytest

import tailnet as tn
from tailnet import rng
from tailnet.copula import _draw_uniform_block, _mo_shock_layout
from tailnet.network import (AggregatedNetwork, _draw_law,
                             sample_adjacency_batch)

from sampler_oracle import draw_base, draw_law, mo_uniform_block


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def mo_model(d, variant):
    rates = None
    if variant == "general":
        g = np.random.default_rng(1000 + d)
        rates = {frozenset(s): float(g.uniform(0.1, 3.0))
                 for size in range(1, d + 1)
                 for s in combinations(range(d), size)}
    return tn.RiskModel.marshall_olkin(d, variant, 1.0, rates=rates)


class TestMoBlock:
    @pytest.mark.parametrize("variant", ["equal", "proportional", "general"])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_bit_identical_across_chunk_boundaries(self, d, variant):
        model = mo_model(d, variant)
        rates = model.dependence.rates
        layout = _mo_shock_layout(rates)
        c = rng.chunk_rows(2 ** d - 1)
        for size in (1, c - 1, c, c + 1, 2 * c + c // 3 + 5):
            got = _draw_uniform_block(model, rng.philox_stream(9, 0, d), size,
                                      layout)
            want = mo_uniform_block(rates, rng.philox_stream(9, 0, d), size)
            assert same_bytes(got, want), (d, variant, size)


def law(q, d, p, kind):
    w = tn.WeightSpec("uniform", 0.5, 1.5) if kind == "uniform" \
        else tn.WeightSpec("point", 2.0, 2.0)
    return tn.BipartiteNetwork(q, d, p, w)


class TestAdjacency:
    @pytest.mark.parametrize("kind", ["point", "uniform"])
    @pytest.mark.parametrize("p", [0.02, 0.3, 0.9])
    @pytest.mark.parametrize("d", [1, 3, 6])
    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_bit_identical_over_law_grid(self, q, d, p, kind):
        net = law(q, d, p, kind)
        n = rng.chunk_rows(q * d) + 3
        got = _draw_law(net, rng.philox_stream(4, 2), n)
        want = draw_base(net, rng.philox_stream(4, 2), n)
        assert same_bytes(got, want)

    def test_aggregated_network(self):
        base = tn.BipartiteNetwork(
            4, 3, np.array([[0.3, 0.0, 0.1], [0.0, 0.5, 0.0],
                            [0.2, 0.2, 0.2], [0.05, 0.05, 0.05]]),
            tn.WeightSpec("uniform", 0.5, 1.5))
        agg = tn.aggregate(base, [0, 3], [1, 2])
        assert isinstance(agg, AggregatedNetwork)
        n = rng.chunk_rows(12) * 2 + 1
        got = sample_adjacency_batch(agg, seed=6, n=n)
        want = draw_law(agg, rng.philox_stream(6, rng.STREAM_ADJACENCY), n)
        assert same_bytes(got, want)

    def test_sparse_law_many_redraw_rounds(self):
        # P(row = 0) = 0.99^4 ~ 0.96: hundreds of redraw rounds per batch
        net = law(2, 4, 0.01, "uniform")
        n = 1 << 14
        got = sample_adjacency_batch(net, seed=8, n=n)
        assert not np.any(np.all(got == 0.0, axis=2))
        want = draw_base(net, rng.philox_stream(8, rng.STREAM_ADJACENCY), n)
        assert same_bytes(got, want)


def test_sample_losses_matches_oracle_at_one_and_two_threads():
    model = tn.RiskModel.marshall_olkin(4, "equal", 1.0)
    net = tn.BipartiteNetwork(
        2, 4, np.array([[0.7, 0.7, 0.0, 0.0], [0.0, 0.0, 0.7, 0.7]]),
        tn.WeightSpec("uniform", 0.5, 1.5))
    n = rng.BLOCK_SIZE + 4099
    rates = model.dependence.rates
    z = rng.sample_blocked(
        n, 3, rng.STREAM_RISK,
        lambda g, s: model.margin.quantile_tail(mo_uniform_block(rates, g, s)))
    a = rng.sample_blocked(n, 3, rng.STREAM_ADJACENCY,
                           lambda g, s: draw_base(net, g, s))
    want = np.einsum("nqd,nd->nq", a, z)
    for threads in (1, 2):
        got = tn.sample_losses(net, model, n, seed=3, threads=threads)
        assert same_bytes(got, want), threads


def test_draw_law_of_a_max_law_matches_the_oracle():
    base = tn.BipartiteNetwork(
        4, 3, np.array([[0.3, 0.0, 0.1], [0.0, 0.5, 0.0],
                        [0.2, 0.2, 0.2], [0.05, 0.5, 0.5]]),
        tn.WeightSpec("uniform", 0.5, 1.5))
    n = rng.chunk_rows(12) * 2 + 1
    laws = {op: AggregatedNetwork(base, (0,), (1, 2, 3), op)
            for op in ("max", "sum")}
    got = {op: _draw_law(agg, rng.philox_stream(6, 2), n)
           for op, agg in laws.items()}
    want = draw_law(laws["max"], rng.philox_stream(6, 2), n)
    assert same_bytes(got["max"], want)
    assert not same_bytes(got["sum"], want)


@pytest.mark.parametrize("size", [1, 7, 100_000])
def test_mixture_block_matches_the_masked_scatter(size):
    from tailnet.copula import _mixture_block
    from sampler_oracle import mixture_block
    got = _mixture_block(rng.philox_stream(9, rng.STREAM_MIXTURE), size)
    want = mixture_block(rng.philox_stream(9, rng.STREAM_MIXTURE), size)
    assert same_bytes(got, want)


def test_mixture_sample_matches_the_masked_scatter_at_any_thread_count():
    from sampler_oracle import mixture_block
    n = (1 << 20) + 5    # past one rng block
    want = rng.sample_blocked(n, 12, rng.STREAM_MIXTURE, mixture_block)
    for threads in (1, 2):
        got = tn.bernstein_mixture_sample(n, seed=12, threads=threads)
        assert same_bytes(got, want), threads


def test_shock_layout_refuses_a_dimension_past_the_cap_before_the_walk():
    with pytest.raises(tn.CapacityError) as err:
        _mo_shock_layout(tn.MoRateFamily(17, "equal"))
    assert err.value.limit == 16 == tn.copula.MO_DIM_CAP
