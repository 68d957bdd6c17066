"""Study points fold their statistics over the loss blocks and return the
same row bytes as the whole-sample computation in ``point_oracle``, with a
memory peak that does not grow with the sample size."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from tailnet import harness, rng
from tailnet.cli import main
from tailnet.covar import var_empirical, var_top_count
from tailnet.harness import rows_to_csv, study_pair
from tailnet.scenario import parse_scenario

import point_oracle

B = rng.BLOCK_SIZE
MULTI = 2 * B + 12345          # three blocks; not a multiple of 32 either
GAUSS2 = {"kind": "gaussian", "sigma": [[1.0, 0.5], [0.5, 1.0]]}
MO3 = {"kind": "mo", "d": 3, "mo_variant": "equal"}
MATRIX = {"matrix": [[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]]}
RANDOM_LAW = {"q": 3, "d": 3, "weights": {"kind": "uniform", "lo": 0.5, "hi": 1.5},
              "edge_prob": [[0.6, 0.5, 0.0], [0.0, 0.5, 0.6], [0.4, 0.0, 0.7]]}
COVAR = {"target": "covar", "upsilon": 0.5}
# gamma = 0.6 keeps more top rows than one block holds
COVAR_GRID = [0.05, 0.6]


def scenario(dependence, n, study, network=None):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0}, "dependence": dependence,
           "study": dict(study, mc_budget=10_000, seed=11)}
    if network is not None:
        doc["network"] = network
    sc = parse_scenario(doc)
    # the parser asks for 1e4 draws at least; points take any size
    return dataclasses.replace(
        sc, study=dataclasses.replace(sc.study, mc_budget=n))


CASES = {
    "gauss-tail-multiblock": (scenario(GAUSS2, MULTI, {"grid": [3.0]}),
                              "tail"),
    "gauss-covar-multiblock": (scenario(GAUSS2, MULTI,
                                        dict(COVAR, grid=COVAR_GRID)), "covar"),
    # K ~ 1.3e6 rows: more than a block, and the kept rows are cut back once
    "gauss-covar-cut": (scenario(GAUSS2, 4 * B + 4321,
                                 dict(COVAR, grid=[0.3])), "covar"),
    "gauss-tail-tiny": (scenario(GAUSS2, 20, {"grid": [1.2, 3.0]}), "tail"),
    "gauss-covar-tiny": (scenario(GAUSS2, 20, dict(COVAR, grid=[0.3])),
                         "covar"),
    "matrix-tail": (scenario(MO3, B + 999, {"grid": [3.0, 10.0]}, MATRIX),
                    "tail"),
    "matrix-covar": (scenario(MO3, B + 999, dict(COVAR, grid=COVAR_GRID),
                              MATRIX), "covar"),
    "random-law-cond": (scenario({"kind": "iid", "d": 3}, B + 777,
                                 {"grid": [3.0, 10.0], "target": "cond",
                                  "agents": [1, 2]}, RANDOM_LAW), "tail"),
    "random-law-covar": (scenario({"kind": "iid", "d": 3}, B + 777,
                                  dict(COVAR, grid=[0.05, 0.01]), RANDOM_LAW),
                         "covar"),
}
POINTS = {"tail": (harness._tail_point, point_oracle.tail_point),
          "covar": (harness._covar_point, point_oracle.covar_point)}


def row_bytes(row) -> str:
    return rows_to_csv([row])


@pytest.mark.parametrize("name", sorted(CASES))
def test_streamed_rows_equal_materialised_rows(name):
    sc, kind = CASES[name]
    streamed, oracle = POINTS[kind]
    pair = study_pair(sc)
    for index, value in enumerate(sc.study.grid):
        want = row_bytes(oracle(sc, pair, value, index))
        for threads in (1, 2):
            got = row_bytes(streamed(sc, pair, value, index, threads))
            assert got == want, (value, threads)


def rounded(draw):
    """Losses rounded to one decimal: many rows tie at every order
    statistic."""
    return lambda *args, **kw: np.round(draw(*args, **kw), 1)


@pytest.mark.parametrize("kind", ["tail", "covar"])
def test_streamed_rows_equal_materialised_rows_with_ties(monkeypatch, kind):
    grid = {"tail": {"grid": [2.0, 5.0]}, "covar": dict(COVAR, grid=[0.1, 0.6])}
    sc = scenario(GAUSS2, B + 4099, grid[kind])
    pair = study_pair(sc)
    tied = rounded(harness.draw_losses)
    xs = tied(sc, None, rng.STREAM_STUDY_BASE, rng.STREAM_STUDY_BASE + 1)
    # ties at the covar VaR (gamma = 0.1) and at the tail cut t = 2.0
    for v in (var_empirical(xs[:, 1], 0.1), 2.0):
        assert np.count_nonzero(xs[:, 1] == v) > 100
    blocks = harness.loss_blocks
    monkeypatch.setattr(harness, "loss_blocks",
                        lambda *args: rounded(blocks(*args)))
    streamed, oracle = POINTS[kind]
    for index, value in enumerate(sc.study.grid):
        want = row_bytes(oracle(sc, pair, value, index, draw=tied))
        for threads in (1, 2):
            got = row_bytes(streamed(sc, pair, value, index, threads))
            assert got == want, (value, threads)


@pytest.mark.parametrize("k", [1, 7, 50, 130, 299])
def test_top_rows_fold_keeps_the_top_k_and_every_row_above_them(k):
    g = np.random.default_rng(5)
    # y2 rounded to 0.1: ties at every cut
    rows = np.column_stack([g.random(300), np.round(g.random(300), 1)])
    top = harness._TopRows(k, len(rows))
    for lo in range(0, len(rows), 40):
        top.add(harness._top_rows(rows[lo:lo + 40], k))
    y1, y2 = top.columns()
    # a top set: the len(y2) largest y2 values of the sample, k or more
    assert len(y2) >= k
    assert np.array_equal(np.sort(y2), np.sort(rows[:, 1])[-len(y2):])
    v = np.sort(rows[:, 1])[-k]

    def above(r):
        return sorted(map(tuple, r[r[:, 1] > v]))

    assert above(np.column_stack([y1, y2])) == above(rows)


def test_tiny_sample_has_no_batch_stderr():
    sc, _ = CASES["gauss-tail-tiny"]
    row = harness._tail_point(sc, study_pair(sc), 1.2, 0)
    assert np.isnan(row.stderr) and row.empirical > 0


def test_batch_cuts_tile_the_batches_across_blocks():
    n, size = 1000, 64           # 31 rows a batch, 8 rows past the last batch
    rows = [[] for _ in range(harness.N_BATCHES)]
    for lo in range(0, n, size):
        for batch, start, stop in harness._batch_cuts(lo, min(size, n - lo), n):
            rows[batch].extend(range(lo + start, lo + stop))
    per = n // harness.N_BATCHES
    assert rows == [list(range(b * per, (b + 1) * per))
                    for b in range(harness.N_BATCHES)]


def covar_point_peak(n: int) -> int:
    sc = scenario(GAUSS2, n, dict(COVAR, grid=[0.01]))
    pair = study_pair(sc)
    tracemalloc.start()
    try:
        harness._covar_point(sc, pair, 0.01, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_covar_point_memory_does_not_grow_with_the_sample():
    # numpy reports its buffers to tracemalloc; a whole-sample point peaks
    # about 10x higher at 1e7 draws than at 1e6
    small, large = covar_point_peak(1_000_000), covar_point_peak(10_000_000)
    assert large <= small + (16 << 20), (small, large)


def rescored(monkeypatch, transform):
    """Route the harness's Gaussian kernels through ``transform`` of their
    score, so the streamed points and the oracle (through
    ``harness.draw_losses``) both draw ``finish(transform(score))``."""
    real = harness.block_sampler

    def sampler(model, *args):
        kernel = real(model, *args)
        return harness.BlockKernel(
            lambda g, size: transform(kernel.score(g, size)), kernel.finish)

    monkeypatch.setattr(harness, "block_sampler", sampler)


def block_score_cut(sc, gamma):
    """Column-1 score of block 0 at the point's k-th largest, and its
    count."""
    kernel = harness.loss_blocks(sc, None, rng.STREAM_STUDY_BASE,
                                 rng.STREAM_STUDY_BASE + 1)
    s = np.sort(kernel.score(0, B)[:, 1])
    cut = s[B - var_top_count(sc.study.mc_budget, gamma)]
    return cut, np.count_nonzero(s == cut)


def assert_streamed_rows_equal_oracle(sc):
    pair = study_pair(sc)
    for index, value in enumerate(sc.study.grid):
        want = row_bytes(point_oracle.covar_point(sc, pair, value, index))
        for threads in (1, 2):
            got = row_bytes(harness._covar_point(sc, pair, value, index,
                                                 threads))
            assert got == want, (value, threads)


def test_score_picked_rows_equal_materialised_rows_with_score_ties(
        monkeypatch):
    sc = scenario(GAUSS2, B + 4099, dict(COVAR, grid=[0.1, 0.6]))
    rescored(monkeypatch, lambda y: np.round(y, 2))
    cut, count = block_score_cut(sc, 0.1)
    assert count > 100
    xs = harness.draw_losses(sc, None, rng.STREAM_STUDY_BASE,
                             rng.STREAM_STUDY_BASE + 1)
    assert np.count_nonzero(xs[:, 1] == var_empirical(xs[:, 1], 0.1)) > 100
    assert_streamed_rows_equal_oracle(sc)


def test_score_picked_rows_cover_rounding_inversions_below_the_cut(
        monkeypatch):
    sc = scenario(GAUSS2, B + 4099, dict(COVAR, grid=[0.1]))
    finish = harness.block_sampler(sc.model).finish
    # a < b one ulp apart with finish(a) > finish(b), near the 10% cut
    run = 1.28 + np.arange(100_000) * np.spacing(1.28)
    loss = finish(np.column_stack([run, run]))[:, 1]
    i = int(np.argmax(loss[:-1] > loss[1:]))
    a, b = run[i], run[i + 1]
    assert loss[i] > loss[i + 1] and b == np.nextafter(a, np.inf)

    def snap(y):
        # the rows between 1.2 and 1.36 move to b, every third one to a
        band = (y[:, 1] > 1.2) & (y[:, 1] < 1.36)
        third = np.arange(len(y)) % 3 == 0
        y[band, 1] = np.where(third[band], a, b)
        return y

    rescored(monkeypatch, snap)
    cut, count = block_score_cut(sc, 0.1)
    assert cut == b and count > 100
    assert_streamed_rows_equal_oracle(sc)


@pytest.mark.parametrize("n", [20, 50_000])
def test_single_block_whole_sample_rows_equal_materialised_rows(n):
    # gamma >= 1/2 keeps the whole sample, drawn in one block
    assert_streamed_rows_equal_oracle(
        scenario(GAUSS2, n, dict(COVAR, grid=[0.6, 0.5])))


@pytest.mark.parametrize("dependence, network", [
    (MO3, MATRIX), ({"kind": "iid", "d": 3}, RANDOM_LAW),
    ({"kind": "iid", "d": 2}, None)])
def test_blocks_keeping_every_row_equal_materialised_rows(dependence, network):
    # gamma = 0.4 keeps more rows than a block holds and fewer than half
    # the sample, with kernels whose score is their loss
    n = 3 * B + 4321
    assert 2 * var_top_count(n, 0.4) < n
    assert var_top_count(n, 0.4) > B
    assert_streamed_rows_equal_oracle(
        scenario(dependence, n, dict(COVAR, grid=[0.4]), network))


def eci_peak(tmp_path, n: int) -> int:
    doc = {"margin": {"alpha": 1.0, "theta": 1.0}, "dependence": GAUSS2,
           "study": {"grid": [0.01, 0.005, 0.002, 0.001, 0.0003],
                     "upsilon": 0.5, "mc_budget": n, "seed": 3}}
    path = tmp_path / f"eci{n}.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        assert main(["eci", "--scenario", str(path), "--empirical",
                     "--out", str(tmp_path / f"eci{n}.out.json")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_empirical_eci_memory_does_not_grow_with_the_sample(tmp_path):
    # the kept rows grow by 16 B per 100 draws here; the whole sample
    # would add 16 B per draw
    small, large = eci_peak(tmp_path, 1_000_000), eci_peak(tmp_path, 4_000_000)
    assert large <= small + (16 << 20), (small, large)


MO4 = {"kind": "mo", "d": 4, "mo_variant": "equal"}
DISJOINT_LAW = {"q": 2, "d": 4,
                "weights": {"kind": "uniform", "lo": 0.5, "hi": 1.5},
                "edge_prob": [[0.7, 0.7, 0.0, 0.0], [0.0, 0.0, 0.7, 0.7]]}


@pytest.mark.parametrize("target", ["cond", "joint"])
def test_walked_tail_points_equal_materialised_rows(target):
    # batch cuts fall inside the blocks and between the rows each chunk
    # keeps for its redraw, whose hits are counted after the chunk's others
    n = 2 * B + 4099
    assert B % (n // harness.N_BATCHES) != 0
    sc = scenario(MO4, n, {"grid": [3.0, 10.0], "target": target},
                  DISJOINT_LAW)
    pair = study_pair(sc)
    for index, value in enumerate(sc.study.grid):
        want = row_bytes(point_oracle.tail_point(sc, pair, value, index))
        for threads in (1, 2):
            got = row_bytes(harness._tail_point(sc, pair, value, index,
                                                threads))
            assert got == want, (value, threads)


def test_top_rows_grow_past_a_band_of_ties():
    # every y2 ties: each cut keeps the whole band, so the buffer doubles
    rows = np.column_stack([np.arange(1000.0), np.full(1000, 2.0)])
    top = harness._TopRows(10, len(rows))
    for lo in range(0, len(rows), 64):
        top.add(rows[lo:lo + 64])
    y1, y2 = top.columns()
    assert sorted(y1) == list(range(1000)) and np.all(y2 == 2.0)


def test_batch_pieces_of_index_rows_follow_the_row_batches():
    n, size = 1000, 64           # 31 rows a batch, 8 rows past the last batch
    per = n // harness.N_BATCHES
    g = np.random.default_rng(3)
    for start in range(0, n, size):
        rows = np.flatnonzero(g.random(min(size, n - start)) < 0.6)
        pieces = list(harness._batch_pieces(start, rows, n))
        got = np.full(len(rows), -1)
        for batch, lo, hi in pieces:
            assert lo < hi and np.all(got[lo:hi] == -1)
            got[lo:hi] = batch
        want = (start + rows) // per
        assert np.array_equal(got, np.where(want < harness.N_BATCHES,
                                            want, -1))
