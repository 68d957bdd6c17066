"""Each sampling rule is written once: :func:`tailnet.network._reduce`
applies a random law's chain of row reductions for its draws, losses,
moments and support; ``WeightSpec.draw`` is ``draw_on`` every entry; and
``--threads`` is checked at the command line and capped at the usable
cores by both thread pools, with the bytes of one thread."""

from concurrent.futures import Future

import numpy as np
import pytest

import tailnet as tn
import tailnet.cli as cli
import tailnet.harness as harness
import tailnet.network as nw
from tailnet import rng
from tailnet.errors import ModelError
from tailnet.network import _row_reduction, loss_sampler, support
from tailnet.scenario import parse_scenario

import sampler_oracle

EDGE_PROB = np.array([[0.5, 0.0, 0.4], [0.3, 0.0, 0.0],
                      [0.0, 0.7, 0.0], [0.0, 0.4, 0.4]])
MODELS = {"iid": tn.RiskModel.iid(3, 1.2),
          "gaussian": tn.RiskModel.gaussian(
              np.array([[1.0, 0.3, 0.5], [0.3, 1.0, 0.2], [0.5, 0.2, 1.0]]),
              1.1)}


def base_law():
    return tn.BipartiteNetwork(4, 3, EDGE_PROB,
                               tn.WeightSpec("uniform", 0.5, 1.5))


def max_over_sums(base):
    """max(X0 + X1 + X2 + X3, X2 + X3) against X2 + X3: three reductions
    of a 4-row network."""
    sums = tn.aggregate(tn.aggregate(base, [0, 1], [2, 3]), [0, 1], [1])
    return _row_reduction(sums, [0, 1], [1], "max")


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_three_level_reduction_walks_one_row_chunks_to_the_oracle(
        monkeypatch, name, threads):
    # 8 bytes a chunk: every chunk of the walk and of the redraw rounds is
    # one row, and 64-row blocks put several blocks in flight
    monkeypatch.setattr(rng, "_CHUNK_BYTES", 8)
    law, model = max_over_sums(base_law()), MODELS[name]
    n = 3 * 64 + 5
    got = rng.concat_blocks(n, loss_sampler(law, model, 4, 6, 7), threads,
                            block_size=64)
    assert same_bytes(got, sampler_oracle.losses(law, model, n, 4, 6, 7, 64))


def test_support_of_nested_reductions_is_the_any_over_each_row_set():
    base = tn.BipartiteNetwork(4, 3, np.array([[0.5, 0.0, 0.0],
                                               [0.0, 0.0, 0.2],
                                               [0.0, 0.7, 0.0],
                                               [0.0, 0.0, 1e-300]]),
                               tn.WeightSpec("point", 1.0, 1.0))
    sums = tn.aggregate(base, [0, 1], [2, 3])
    laws = [base, sums, tn.aggregate(sums, [0], [0, 1]),
            _row_reduction(sums, [1], [0], "max"),
            _row_reduction(base, [0, 2], [3], "max"),
            max_over_sums(base)]
    for law in laws:
        got = support(law)
        assert got.dtype == bool
        assert np.array_equal(got, sampler_oracle.support(law))


@pytest.mark.parametrize("spec", [tn.WeightSpec("uniform", 0.5, 1.5),
                                  tn.WeightSpec("uniform", 1e-3, 7.0),
                                  tn.WeightSpec("point", 0.3, 0.3),
                                  tn.WeightSpec("uniform", 2.5, 2.5)])
def test_weight_draw_keeps_the_bytes_of_its_own_formula(spec):
    for shape in ((7,), (33, 4, 3), (0, 2)):
        got = spec.draw(rng.philox_stream(3, 2), shape)
        want = sampler_oracle.draw_weights(spec, rng.philox_stream(3, 2),
                                           shape)
        assert same_bytes(got, want)


@pytest.mark.parametrize("q, d", [(0, 4), (2, 0), (-1, 3), (2.0, 3),
                                  (2, 1.5), (True, 3)])
def test_a_network_of_no_positive_integer_shape_is_refused(q, d):
    with pytest.raises(ModelError):
        tn.BipartiteNetwork(q, d, 0.5, tn.WeightSpec("point", 1.0, 1.0))


def test_a_network_takes_numpy_integer_shapes():
    net = tn.BipartiteNetwork(np.int64(2), np.int32(3), 0.5,
                              tn.WeightSpec("point", 1.0, 1.0))
    assert nw.law_shape(net) == (2, 3)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_refused_before_the_scenario_loads(
        monkeypatch, capsys, threads):
    def no_load(path):
        raise AssertionError("the scenario was loaded")

    monkeypatch.setattr(cli, "load_scenario", no_load)
    assert cli.main(["tailprob", "--scenario", "absent.json",
                     "--threads", threads]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "--threads" in err


class RecordingPool:
    """A ``ThreadPoolExecutor`` stand-in that records each pool's worker
    cap and runs every task at once in the calling thread, so it starts no
    thread."""

    caps = []

    def __init__(self, max_workers):
        self.caps.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done

    def map(self, fn, items):
        return [fn(item) for item in items]


def test_both_pools_take_at_most_the_usable_cores(monkeypatch):
    monkeypatch.setattr(RecordingPool, "caps", [])
    monkeypatch.setattr(rng, "_usable_cores", lambda: 3)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(rng, "ThreadPoolExecutor", RecordingPool)
    sc = parse_scenario({
        "margin": {"alpha": 1.0, "theta": 1.0},
        "dependence": {"kind": "iid", "d": 2},
        "study": {"grid": [3.0, 10.0], "mc_budget": 10_000, "seed": 5}})
    one = harness.rows_to_csv(harness.run_tail_study(sc, threads=1))
    assert RecordingPool.caps == []
    assert harness.rows_to_csv(harness.run_tail_study(sc, threads=16)) == one
    assert RecordingPool.caps == [3]
    # eight blocks of 16 draws, with at most three of them in flight
    flight, peak = [], []

    def work(b, size):
        flight.append(b)
        peak.append(len(flight))
        return np.full(size, b)

    def fold(acc, part):
        flight.pop(0)
        return acc + [int(part[0])]

    assert rng.fold_blocks(128, work, fold, [], threads=16,
                           block_size=16) == list(range(8))
    assert RecordingPool.caps == [3, 3]
    assert max(peak) == 3
