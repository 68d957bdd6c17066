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
