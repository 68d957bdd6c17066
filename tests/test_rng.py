import numpy as np
import pytest

from tailnet import rng


def test_stream_independence_and_reproducibility():
    a = rng.philox_stream(7, 0).random(8)
    b = rng.philox_stream(7, 0).random(8)
    c = rng.philox_stream(7, 1).random(8)
    d = rng.philox_stream(8, 0).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_blocks_cover_exactly():
    plan = list(rng.blocks(2_500_000, block_size=1 << 20))
    assert [s for _, s in plan] == [1 << 20, 1 << 20, 2_500_000 - 2 * (1 << 20)]
    assert [b for b, _ in plan] == [0, 1, 2]


def test_sample_blocked_thread_invariant():
    def draw(g, size):
        return g.random((size, 2))

    one = rng.sample_blocked(300_000, 3, 0, draw, threads=1, block_size=1 << 16)
    four = rng.sample_blocked(300_000, 3, 0, draw, threads=4, block_size=1 << 16)
    assert np.array_equal(one, four)


def test_reduce_blocked_matches_direct_count():
    def draw(g, size):
        return int((g.random(size) < 0.25).sum())

    total = rng.reduce_blocked(500_000, 11, 2, draw, combine=lambda a, p: a + p,
                               init=0, block_size=1 << 17)
    direct = sum(
        int((rng.philox_stream(11, 2, block=b).random(size) < 0.25).sum())
        for b, size in rng.blocks(500_000, 1 << 17))
    assert total == direct


@pytest.mark.parametrize("method", ["standard_exponential", "random"])
def test_consecutive_row_draws_equal_one_draw(method):
    # the cache-blocked samplers rely on this to keep the sampled bytes
    rows = [1, 4095, 4096, 4097, 333, 70_000]
    k = 15
    whole = getattr(rng.philox_stream(5, 0, block=2), method)((sum(rows), k))
    g = rng.philox_stream(5, 0, block=2)
    parts = np.concatenate([getattr(g, method)((m, k)) for m in rows])
    assert parts.tobytes() == whole.tobytes()


def test_fold_blocks_folds_in_order_with_a_bounded_window():
    import threading
    import time

    lock = threading.Lock()
    state = {"started": 0, "folded": 0, "most": 0}

    def work(b, size):
        with lock:
            state["started"] += 1
            state["most"] = max(state["most"],
                                state["started"] - state["folded"])
        time.sleep(0.001 * ((7 * b) % 5))       # finish out of order
        return b, size

    def combine(acc, part):
        state["folded"] += 1
        return acc + [part]

    n, size = 40 * 1000 + 17, 1000
    for threads in (1, 3):
        state.update(started=0, folded=0, most=0)
        got = rng.fold_blocks(n, work, combine, [], threads=threads,
                              block_size=size)
        assert got == list(rng.blocks(n, size))
        assert state["most"] <= threads


def test_concat_blocks_equals_concatenation():
    def work(b, size):
        return np.full((size, 2), float(b))

    n = 5 * 64 + 3
    want = np.concatenate([work(b, s) for b, s in rng.blocks(n, 64)])
    for threads in (1, 2):
        got = rng.concat_blocks(n, work, threads=threads, block_size=64)
        assert got.tobytes() == want.tobytes()


def test_block_runners_default_to_usable_cores_capped():
    import inspect
    import os

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    assert rng.DEFAULT_THREADS == min(cores, rng.MAX_DEFAULT_THREADS)
    for fn in (rng.fold_blocks, rng.concat_blocks, rng.sample_blocked,
               rng.reduce_blocked):
        default = inspect.signature(fn).parameters["threads"].default
        assert default == rng.DEFAULT_THREADS


@pytest.mark.parametrize("n", [0, -3])
def test_every_block_runner_refuses_an_empty_sample(n):
    from tailnet.errors import DomainError

    def work(b, size):
        raise AssertionError("a block was drawn for an empty sample")

    with pytest.raises(DomainError, match="sample size"):
        rng.concat_blocks(n, work)
    with pytest.raises(DomainError, match="sample size"):
        rng.sample_blocked(n, 1, rng.STREAM_RISK, work)
    with pytest.raises(DomainError, match="sample size"):
        rng.reduce_blocked(n, 1, rng.STREAM_RISK, work, np.add, 0)


def test_philox_stream_refuses_a_seed_outside_64_bits():
    from tailnet.errors import DomainError

    for seed in (-1, 1 << 64):
        with pytest.raises(DomainError, match="seed"):
            rng.philox_stream(seed, rng.STREAM_RISK)
    # the two ends of the key range are distinct streams
    lo = rng.philox_stream(0, rng.STREAM_RISK).random(4)
    hi = rng.philox_stream((1 << 64) - 1, rng.STREAM_RISK).random(4)
    assert not np.array_equal(lo, hi)


def test_blocks_refuses_an_empty_sample_when_called():
    from tailnet.errors import DomainError

    for n in (0, -3):
        with pytest.raises(DomainError, match="sample size must be >= 1"):
            rng.blocks(n)
