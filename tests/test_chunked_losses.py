"""Random-law losses are drawn in row chunks: a generator placed by
``rng.positioned`` reads the straight stream, the chunkable risk kernels
give the same bytes in chunks as whole, the loss blocks equal the
whole-block oracle (``sampler_oracle.draw_base`` times the whole-block risk
rows), and a block holds no ``(size, q, d)`` array."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import tailnet as tn
from tailnet import harness, rng
from tailnet import network
from tailnet.copula import block_sampler
from tailnet.network import (AggregatedNetwork, loss_sampler,
                             sample_adjacency_batch)
from tailnet.scenario import parse_scenario

from sampler_oracle import draw_base


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


@pytest.mark.parametrize("block", [0, 3])
def test_positioned_generator_reads_the_straight_stream(block):
    big = 1_000_003
    straight = rng.philox_stream(5, 2, block).bit_generator.random_raw(big + 8)
    for offset in list(range(10)) + [big]:
        g = rng.positioned(rng.philox_stream(5, 2, block), offset)
        assert np.array_equal(g.bit_generator.random_raw(8),
                              straight[offset:offset + 8]), offset
    # from a generator part way through its buffer; it does not move
    g = rng.philox_stream(5, 2, block)
    head = g.random(3)
    for offset in range(10):
        h = rng.positioned(g, offset)
        assert np.array_equal(h.bit_generator.random_raw(4),
                              straight[3 + offset:7 + offset]), offset
    assert np.array_equal(np.concatenate([head, g.random(2)]),
                          rng.philox_stream(5, 2, block).random(5))


CHUNKED_MODELS = {
    "iid": tn.RiskModel.iid(3, 1.0),
    "mo-equal": tn.RiskModel.marshall_olkin(4, "equal", 1.0),
    "mo-proportional": tn.RiskModel.marshall_olkin(4, "proportional", 1.5),
}


@pytest.mark.parametrize("name", sorted(CHUNKED_MODELS))
def test_chunk_calls_give_the_bytes_of_one_call(name):
    kernel = block_sampler(CHUNKED_MODELS[name])
    assert kernel.row_width is not None
    n = 8738 + 777 + 2
    whole = kernel(rng.philox_stream(4, 0, 1), n)
    for step in (1, 777, 8738, n):
        g = rng.philox_stream(4, 0, 1)
        parts = [kernel(g, min(step, n - lo)) for lo in range(0, n, step)]
        assert same_bytes(np.concatenate(parts), whole), step


def uniform_net(q, d, p):
    return tn.BipartiteNetwork(q, d, p, tn.WeightSpec("uniform", 0.5, 1.5))


BASE = uniform_net(3, 3, np.array([[0.6, 0.5, 0.0], [0.0, 0.5, 0.6],
                                   [0.3, 0.3, 0.3]]))
MO3 = tn.RiskModel.marshall_olkin(3, "equal", 1.0)
GAUSS3 = tn.RiskModel.gaussian(tn.CorrelationMatrix.equicorrelation(3, 0.4),
                               1.0)
BIG, SMALL = 902_848, 777
LAWS = {
    "uniform": (uniform_net(2, 3, 0.5), MO3, BIG),
    "point": (tn.BipartiteNetwork(2, 3, 0.4, tn.WeightSpec("point", 2.0, 2.0)),
              tn.RiskModel.iid(3, 1.0), BIG),
    "sum": (AggregatedNetwork(BASE, (0, 2), (1,), "sum"), MO3, BIG),
    "max": (AggregatedNetwork(BASE, (0,), (1, 2), "max"), GAUSS3, BIG),
    # P(row = 0) = 0.99^4 ~ 0.96: hundreds of redraw rounds per block
    "sparse": (uniform_net(2, 4, 0.01), tn.RiskModel.iid(4, 1.0), SMALL),
}


def oracle_block(law, model, seed, b, size):
    """Block b of the losses from whole-block exposures and risk rows."""
    base = law.base if isinstance(law, AggregatedNetwork) else law
    a = draw_base(base, rng.philox_stream(seed, 7, b), size)
    if isinstance(law, AggregatedNetwork):
        a = np.stack([getattr(a[:, list(rows), :], law.op)(axis=1)
                      for rows in (law.rows_s, law.rows_t)], axis=1)
    z = block_sampler(model)(rng.philox_stream(seed, 6, b), size)
    return np.einsum("nqd,nd->nq", a, z)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_loss_blocks_equal_the_whole_block_oracle(name):
    law, model, block = LAWS[name]
    n = block + SMALL        # a block of ``block`` rows, then one of 777
    want = rng.concat_blocks(
        n, lambda b, size: oracle_block(law, model, 3, b, size), 1, block)
    for threads in (1, 2):
        got = rng.concat_blocks(n, loss_sampler(law, model, 3, 6, 7),
                                threads, block)
        assert same_bytes(got, want), threads


@pytest.mark.parametrize("law", [uniform_net(2, 3, 0.5), LAWS["sum"][0]],
                         ids=["plain", "sum"])
@pytest.mark.parametrize("model", [MO3, GAUSS3], ids=["mo", "gauss"])
def test_one_row_chunks(monkeypatch, law, model):
    # one-row chunks everywhere: a one-row Gaussian matmul moves about 4 in
    # 10 score rows by an ulp, so a split Gaussian score would show here
    monkeypatch.setattr(rng, "_CHUNK_BYTES", 8)
    assert rng.chunk_rows(1) == 1
    draw = loss_sampler(law, model, 5, 6, 7)
    for b, size in ((0, 1), (1, 2), (2, 1500)):
        assert same_bytes(draw(b, size), oracle_block(law, model, 5, b, size))


def test_loss_block_holds_no_exposure_block():
    model = tn.RiskModel.marshall_olkin(4, "equal", 1.0)
    law = uniform_net(2, 4, np.array([[0.7, 0.7, 0.0, 0.0],
                                      [0.0, 0.0, 0.7, 0.7]]))
    draw = loss_sampler(law, model, 1, 6, 7)
    draw(0, 100)
    tracemalloc.start()
    try:
        x = draw(1, rng.BLOCK_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (rng.BLOCK_SIZE, 2)
    assert peak < rng.BLOCK_SIZE * 2 * 4 * 8


def test_empty_adjacency_batch():
    net = uniform_net(2, 3, 0.5)
    assert sample_adjacency_batch(net, seed=1, n=0).shape == (0, 2, 3)


@pytest.mark.parametrize("kind", ["uniform", "point"])
def test_one_row_chunks_on_the_sparse_law(monkeypatch, kind):
    # hundreds of redraw rounds, each drawn one kept matrix at a time
    monkeypatch.setattr(rng, "_CHUNK_BYTES", 8)
    lo, hi = (0.5, 1.5) if kind == "uniform" else (2.0, 2.0)
    law = tn.BipartiteNetwork(2, 4, 0.01, tn.WeightSpec(kind, lo, hi))
    model = tn.RiskModel.iid(4, 1.0)
    want = draw_base(law, rng.philox_stream(5, rng.STREAM_ADJACENCY), SMALL)
    assert same_bytes(sample_adjacency_batch(law, 5, SMALL), want)
    draw = loss_sampler(law, model, 5, 6, 7)
    for b, size in ((0, 1), (1, SMALL)):
        assert same_bytes(draw(b, size), oracle_block(law, model, 5, b, size))


def whole_a_moment(law, fn, n_a=network.ADJ_MC_DRAWS, seed=0):
    """``a_moment`` with ``fn`` called once on all the draws."""
    vals = np.asarray(fn(network._moment_draws(law, seed, n_a)), dtype=float)
    return network.MomentEstimate(float(vals.mean()),
                                  float(vals.std(ddof=1) / math.sqrt(n_a)))


DISJOINT = uniform_net(2, 4, np.array([[0.7, 0.7, 0.0, 0.0],
                                       [0.0, 0.0, 0.7, 0.7]]))
OVERLAP = uniform_net(2, 4, 0.5)
IID4 = tn.RiskModel.iid(4, 1.5)
MO4 = tn.RiskModel.marshall_olkin(4, "equal", 1.0)
GAUSS4 = tn.RiskModel.gaussian(tn.CorrelationMatrix.equicorrelation(4, 0.4),
                               1.2)
X = (1.5, 2.0)
MOMENTS = {
    "row_moment_sum": lambda **kw: network.row_moment_sum(DISJOINT, 1, 1.5,
                                                          **kw),
    "mu_bar_1": lambda **kw: network.mu_bar_1(OVERLAP, MO4, X, **kw),
    "mu_bar_2_overlap": lambda **kw: network.mu_bar_2_overlap(OVERLAP, IID4,
                                                              X, **kw),
    "disjoint_iid": lambda **kw: network.disjoint_mu_bar_2(DISJOINT, IID4, X,
                                                           **kw),
    "disjoint_mo": lambda **kw: network.disjoint_mu_bar_2(DISJOINT, MO4, X,
                                                          **kw),
    "disjoint_gauss": lambda **kw: network.disjoint_mu_bar_2(DISJOINT, GAUSS4,
                                                             X, **kw),
    "gauss_constant_d": lambda **kw: network.gauss_constant_d(DISJOINT,
                                                              GAUSS4, 0.4,
                                                              **kw),
}


@pytest.mark.parametrize("chunk_bytes", [rng._CHUNK_BYTES, 8],
                         ids=["cache-chunks", "one-row-chunks"])
@pytest.mark.parametrize("name", sorted(MOMENTS))
def test_moments_in_row_chunks_equal_one_call(monkeypatch, name, chunk_bytes):
    monkeypatch.setattr(rng, "_CHUNK_BYTES", chunk_bytes)
    # one-row chunks call the moment's function once per draw
    n_a = network.ADJ_MC_DRAWS if chunk_bytes > 8 else 3001
    assert len(list(rng.row_chunks(n_a, 8))) > 1
    got = MOMENTS[name](n_a=n_a, seed=4)
    monkeypatch.setattr(network, "a_moment", whole_a_moment)
    want = MOMENTS[name](n_a=n_a, seed=4)
    assert (got.value.hex(), got.stderr.hex()) == \
        (want.value.hex(), want.stderr.hex())


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tail_point_block_and_closed_form_memory():
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "mo", "d": 4, "mo_variant": "equal"},
           "network": {"q": 2, "d": 4,
                       "edge_prob": DISJOINT.edge_prob.tolist(),
                       "weights": {"kind": "uniform", "lo": 0.5, "hi": 1.5}},
           "study": {"grid": [10.0], "mc_budget": 10_000, "seed": 1,
                     "target": "cond"}}
    sc = parse_scenario(doc)
    sc = dataclasses.replace(sc, study=dataclasses.replace(
        sc.study, mc_budget=rng.BLOCK_SIZE))
    law, case = pair = harness.study_pair(sc)
    # the first closed form on a law draws its moment draws too
    cold = traced_peak(lambda: network.network_cond_prob(
        case, law, sc.model, (1.0, 1.0), 10.0))
    assert cold < 16 << 20
    # one block of counts; the closed form reads the held draws
    peak = traced_peak(lambda: harness._tail_point(sc, pair, 10.0, 0))
    assert peak < rng.BLOCK_SIZE * 5 * 8


@pytest.mark.parametrize("n_a", [0, 1])
def test_random_law_moments_refuse_fewer_than_two_draws(n_a):
    with pytest.raises(tn.DomainError):
        network.row_moment_sum(DISJOINT, 0, 1.0, n_a=n_a)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gaussian_chunk_calls_give_the_bytes_of_one_call(d):
    # a one-row call is stacked with a zero row, so every row of every
    # call is computed on the gemm path of one whole-block call
    sigma = tn.CorrelationMatrix.equicorrelation(d, 0.4)
    kernel = block_sampler(tn.RiskModel.gaussian(sigma, 1.0))
    assert kernel.row_width == d
    n = 8738 + 777 + 2
    whole = kernel.score(rng.philox_stream(4, 0, 1), n)
    for step in (1, 2, 777, 8738, n):
        g = rng.philox_stream(4, 0, 1)
        parts = [kernel.score(g, min(step, n - lo))
                 for lo in range(0, n, step)]
        assert same_bytes(np.concatenate(parts), whole), step
        g = rng.philox_stream(4, 0, 1)
        parts = [kernel(g, min(step, n - lo)) for lo in range(0, n, step)]
        assert same_bytes(np.concatenate(parts),
                          kernel(rng.philox_stream(4, 0, 1), n)), step


def one_block_point(doc):
    """A scenario of ``doc`` whose points draw one whole block."""
    sc = parse_scenario(doc)
    return dataclasses.replace(sc, study=dataclasses.replace(
        sc.study, mc_budget=rng.BLOCK_SIZE))


def test_gaussian_covar_block_memory():
    # 32.7 MiB traced with a whole-block score, its normal draw and the
    # partition copy; the walk holds one row chunk and the kept rows
    sc = one_block_point({
        "margin": {"alpha": 1.0, "theta": 1.0},
        "dependence": {"kind": "gaussian",
                       "sigma": [[1.0, 0.5], [0.5, 1.0]]},
        "study": {"grid": [0.01], "mc_budget": 10_000, "seed": 1,
                  "target": "covar"}})
    pair = harness.study_pair(sc)
    assert traced_peak(lambda: harness._covar_point(sc, pair, 0.01, 0)) \
        < 8 << 20


def test_mo_tail_point_block_memory():
    # 96.0 MiB traced when the risk-model block was drawn whole
    sc = one_block_point({
        "margin": {"alpha": 1.0, "theta": 1.0},
        "dependence": {"kind": "mo", "d": 4, "mo_variant": "equal"},
        "study": {"grid": [10.0], "mc_budget": 10_000, "seed": 1}})
    pair = harness.study_pair(sc)
    assert traced_peak(lambda: harness._tail_point(sc, pair, 10.0, 0)) \
        < 8 << 20


def test_network_covar_block_memory():
    # 41.1 MiB traced when the walk filled the (size, 2) losses; the walk's
    # kept matrices (about 17% of the block, with their risk rows) stay
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "mo", "d": 4, "mo_variant": "equal"},
           "network": {"q": 3, "d": 4,
                       "edge_prob": [[0.7, 0.7, 0.0, 0.0],
                                     [0.0, 0.0, 0.7, 0.7],
                                     [0.5, 0.5, 0.5, 0.5]],
                       "weights": {"kind": "uniform", "lo": 0.5, "hi": 1.5}},
           "study": {"grid": [0.01], "mc_budget": 10_000, "seed": 1,
                     "target": "covar"}}
    sc = one_block_point(doc)
    pair = harness.study_pair(sc)
    harness._covar_point(parse_scenario(doc), pair, 0.01, 0)  # moment draws
    assert traced_peak(lambda: harness._covar_point(sc, pair, 0.01, 0)) \
        < 28 << 20
