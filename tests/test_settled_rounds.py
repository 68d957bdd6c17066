"""A random-law block settles its redraw rounds before it is walked: every
chunk ``network._draw_exposures`` visits is final (no all-zero agent row),
the draws equal the whole-block oracle however many rounds the law takes,
a block places a fixed number of generators whatever its rounds, and one
2^20-row block of a ``network-study`` point holds no kept matrices."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import tailnet as tn
from tailnet import harness, network, rng
from tailnet.copula import block_sampler
from tailnet.scenario import parse_scenario

from sampler_oracle import draw_base


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def weights(kind):
    return tn.WeightSpec("uniform", 0.5, 1.5) if kind == "uniform" else \
        tn.WeightSpec("point", 2.0, 2.0)


def redraw_rounds(net, g, n):
    """The redraw rounds ``sampler_oracle.draw_base`` takes on ``g``: its
    loop, counted."""
    edges = g.random((n, net.q, net.d)) < net.edge_prob
    net.weights.draw(g, edges.shape)
    dead = np.argwhere(~edges.any(axis=2))
    rounds = 0
    while len(dead):
        rounds += 1
        ne = g.random((len(dead), net.d)) < net.edge_prob[dead[:, 1]]
        net.weights.draw(g, ne.shape)
        dead = dead[~ne.any(axis=1)]
    return rounds


@pytest.mark.parametrize("kind", ["uniform", "point"])
def test_visit_never_sees_an_all_zero_agent_row(monkeypatch, kind):
    # one-row chunks on a law whose rows are all-zero with P = 0.96
    monkeypatch.setattr(rng, "_CHUNK_BYTES", 8)
    law = tn.BipartiteNetwork(2, 4, 0.01, weights(kind))
    n, seen = 777, []

    def visit(lo, a):
        assert lo == sum(len(part) for part in seen)
        assert len(a) == 1
        assert (a > 0).any(axis=2).all()
        seen.append(a.copy())

    network._draw_exposures(law, rng.philox_stream(5, 2), n, 8, visit)
    want = draw_base(law, rng.philox_stream(5, 2), n)
    assert same_bytes(np.concatenate(seen), want)


@pytest.mark.parametrize("kind", ["uniform", "point"])
def test_generators_per_block_do_not_grow_with_the_rounds(monkeypatch, kind):
    calls = []
    real = rng.positioned

    def counting(g, offset):
        calls.append(offset)
        return real(g, offset)

    monkeypatch.setattr(rng, "positioned", counting)
    model = tn.RiskModel.iid(4, 1.0)
    per_block = {}
    for p in (0.5, 0.005):
        law = tn.BipartiteNetwork(2, 4, p, weights(kind))
        size, blocks = 777, 3
        rounds = redraw_rounds(law, rng.philox_stream(5, 7, 1), size)
        assert rounds < 10 if p == 0.5 else rounds >= 200, rounds
        calls.clear()
        got = rng.concat_blocks(blocks * size,
                                network.loss_sampler(law, model, 5, 6, 7),
                                1, size)
        per_block[p] = len(calls) / blocks
        want = rng.concat_blocks(blocks * size, lambda b, n: np.einsum(
            "nqd,nd->nq", draw_base(law, rng.philox_stream(5, 7, b), n),
            block_sampler(model)(rng.philox_stream(5, 6, b), n)), 1, size)
        assert same_bytes(got, want), p
        calls.clear()
        adj = network.sample_adjacency_batch(law, 5, size)
        assert len(calls) == per_block[p]
        assert same_bytes(adj, draw_base(
            law, rng.philox_stream(5, rng.STREAM_ADJACENCY), size)), p
    assert per_block[0.5] == per_block[0.005] <= 2


NETWORK_TAIL_PAIR = {
    "margin": {"alpha": 1.0, "theta": 1.0},
    "dependence": {"kind": "mo", "d": 4, "mo_variant": "equal"},
    "network": {"q": 3, "d": 4,
                "edge_prob": [[0.7, 0.7, 0.0, 0.0], [0.0, 0.0, 0.7, 0.7],
                              [0.5, 0.5, 0.5, 0.5]],
                "weights": {"kind": "uniform", "lo": 0.5, "hi": 1.5}},
}


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("target, value, point", [
    ("covar", 0.01, harness._covar_point),
    ("cond", 10.0, harness._tail_point),
], ids=["covar", "cond"])
def test_network_point_block_holds_no_kept_matrices(target, value, point):
    # 25.1 (covar) and 24.5 MiB (cond) traced while the walk kept every
    # matrix with an all-zero agent row until the block's redraw rounds
    small = parse_scenario(dict(NETWORK_TAIL_PAIR, study={
        "grid": [value], "mc_budget": 10_000, "seed": 1, "target": target}))
    sc = dataclasses.replace(small, study=dataclasses.replace(
        small.study, mc_budget=rng.BLOCK_SIZE))
    pair = harness.study_pair(sc)
    point(small, pair, value, 0)         # the closed form's moment draws
    assert traced_peak(lambda: point(sc, pair, value, 0)) < 8 << 20
