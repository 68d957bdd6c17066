"""Every study kernel is a ``network.LossWalk`` over row chunks: a fixed
matrix's losses are the model's row walk times the matrix, with the bytes of
the whole-block product; a block of a fixed-matrix point, and a block of
``tailnet sample``, holds one row chunk, not the block; and every walk
hands over pieces of at most one chunk."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import tailnet as tn
from tailnet import harness, network, rng
from tailnet.cli import main
from tailnet.copula import block_sampler
from tailnet.harness import study_pair
from tailnet.scenario import parse_scenario

B = rng.BLOCK_SIZE
MATRIX = np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]])
MODELS = {
    "iid": tn.RiskModel.iid(3, 1.0),
    "mo-equal": tn.RiskModel.marshall_olkin(3, "equal", 1.0),
    "gauss": tn.RiskModel.gaussian(
        tn.CorrelationMatrix.equicorrelation(3, 0.4), 1.0),
}


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def oracle_losses(model, n, block_size):
    """The whole-block products ``block_sampler(model)(g, size) @ m.T``."""
    kernel = block_sampler(model)
    return rng.concat_blocks(n, lambda b, size: kernel(
        rng.philox_stream(3, 6, b), size) @ MATRIX.T, 1, block_size)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_fixed_matrix_blocks_equal_the_whole_block_product(name):
    model = MODELS[name]
    step = rng.chunk_rows(block_sampler(model).row_width)
    block = 2 * step + 1         # the last chunk of a block is one row
    n = 2 * block + 777
    want = oracle_losses(model, n, block)
    law = network.AdjacencyMatrix(MATRIX)
    for threads in (1, 2):
        got = rng.concat_blocks(n, network.loss_sampler(law, model, 3, 6, 7),
                                threads, block)
        assert same_bytes(got, want), threads


@pytest.mark.parametrize("name", sorted(MODELS))
def test_fixed_matrix_one_row_chunks_equal_the_whole_block_product(
        monkeypatch, name):
    monkeypatch.setattr(rng, "_CHUNK_BYTES", 8)
    assert rng.chunk_rows(1) == 1
    model, block, n = MODELS[name], 700, 2 * 700 + 301
    law = network.AdjacencyMatrix(MATRIX)
    want = oracle_losses(model, n, block)
    for threads in (1, 2):
        got = rng.concat_blocks(n, network.loss_sampler(law, model, 3, 6, 7),
                                threads, block)
        assert same_bytes(got, want), threads


def scenario(study, network_doc=None, n=B, dependence=None):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": dependence or {"kind": "mo", "d": 3,
                                        "mo_variant": "equal"},
           "study": dict(study, mc_budget=10_000, seed=11)}
    if network_doc is not None:
        doc["network"] = network_doc
    sc = parse_scenario(doc)
    # the parser asks for 1e4 draws at least; points take any size
    return dataclasses.replace(
        sc, study=dataclasses.replace(sc.study, mc_budget=n))


def point_peak(point, sc, value):
    pair = study_pair(sc)
    tracemalloc.start()
    try:
        point(sc, pair, value, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["covar", "tail"])
def test_fixed_matrix_point_block_holds_one_row_chunk(kind):
    # a whole-block MO d = 3 product peaked at about 72 MiB traced
    net_doc = {"matrix": MATRIX.tolist()}
    if kind == "covar":
        sc = scenario({"target": "covar", "upsilon": 0.5, "grid": [0.01]},
                      net_doc)
        peak = point_peak(harness._covar_point, sc, 0.01)
    else:
        sc = scenario({"grid": [3.0]}, net_doc)
        peak = point_peak(harness._tail_point, sc, 3.0)
    assert peak < 8 << 20, peak


def test_sample_cli_holds_one_row_chunk_and_writes_the_sample(tmp_path):
    # a whole MO d = 4 block of shocks peaked at about 96 MiB traced
    path = tmp_path / "mo4.json"
    path.write_text(json.dumps({
        "margin": {"alpha": 1.0, "theta": 1.0},
        "dependence": {"kind": "mo", "d": 4, "mo_variant": "equal"}}))
    out = tmp_path / "z.csv"
    tracemalloc.start()
    try:
        assert main(["sample", "--scenario", str(path), "--n", str(B),
                     "--seed", "5", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    z = tn.sample(tn.RiskModel.marshall_olkin(4, "equal", 1.0), B, seed=5)
    want = hashlib.sha256(b"z1,z2,z3,z4\n")
    for lo, hi in rng.row_chunks(B, 4):
        want.update("".join(",".join(map(repr, row)) + "\n"
                            for row in z[lo:hi].tolist()).encode())
    assert hashlib.sha256(out.read_bytes()).digest() == want.digest()


def uniform_net(edge_prob):
    return network.BipartiteNetwork(len(edge_prob), 3, np.array(edge_prob),
                                    tn.WeightSpec("uniform", 0.5, 1.5))


GAUSS2 = {"kind": "gaussian", "sigma": [[1.0, 0.5], [0.5, 1.0]]}
WALKED = {
    "risk-gauss": (GAUSS2, None),
    "risk-mo": (None, None),
    "fixed-matrix": (None, network.AdjacencyMatrix(MATRIX)),
    "bipartite": (None, uniform_net([[0.6, 0.5, 0.0], [0.0, 0.5, 0.6]])),
    "aggregated": (None, network.AggregatedNetwork(
        uniform_net([[0.6, 0.5, 0.0], [0.0, 0.5, 0.6], [0.4, 0.0, 0.7]]),
        (0, 2), (1,), "sum")),
}


@pytest.mark.parametrize("name", sorted(WALKED))
def test_every_study_kernel_walks_pieces_of_one_chunk(monkeypatch, name):
    dependence, law = WALKED[name]
    sc = scenario({"grid": [3.0]}, dependence=dependence)
    monkeypatch.setattr(rng, "_CHUNK_BYTES", 8 * 64)
    kernel = harness.loss_blocks(sc, law, 40, 41)
    assert isinstance(kernel, network.LossWalk)
    size, seen = 1000, []

    def take(rows, xs):
        rows = np.arange(size)[rows]
        assert len(rows) == len(xs) <= rng.chunk_rows(sc.model.d)
        seen.append(rows)

    kernel.visit(2, size, take)
    assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(size))
