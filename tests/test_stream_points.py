"""Study points fold their statistics over the loss blocks and return the
same row bytes as the whole-sample computation in ``point_oracle``, with a
memory peak that does not grow with the sample size."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from tailnet import harness, rng
from tailnet.covar import var_empirical
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
