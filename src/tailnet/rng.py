"""Counter-based random streams.

Every random quantity in the package is drawn from a Philox-4x64 generator
keyed by ``(seed, stream)``.  Philox is a pure counter-based generator: the
key selects an independent stream and the 256-bit counter addresses a
position inside it, so draws are reproducible bit-for-bit across platforms
and numpy releases that ship the same Philox kernel.

Large sample jobs are split into fixed-size blocks.  Block ``b`` of a stream
reads from counter ``[0, 0, b, 0]``, i.e. blocks own disjoint 2^128-step
counter ranges.  Because the block layout depends only on the requested
sample size (never on the worker count), a job parallelised over blocks
returns the same bytes for any number of threads.

Stream ids used by the package (all under one user-facing seed):

====  ==========================================
   0  risk-vector sampling (iid / Gaussian / MO)
   1  three-coordinate uniform-mixture sampling
   2  adjacency-matrix sampling
   3  Monte Carlo moments of adjacency entries
   4  orthant-integration lattice shifts (fixed internal seed)
 32+  study grid points (32 + point index)
====  ==========================================
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

BLOCK_SIZE = 1 << 20
# Bytes of float64 per sampler chunk: small enough to stay in a core's cache.
_CHUNK_BYTES = 1 << 20

STREAM_RISK = 0
STREAM_MIXTURE = 1
STREAM_ADJACENCY = 2
STREAM_A_MOMENTS = 3
STREAM_ORTHANT = 4
STREAM_STUDY_BASE = 32


def philox_stream(seed: int, stream: int, block: int = 0) -> np.random.Generator:
    """Generator for one block of the (seed, stream) Philox stream."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    counter = np.array([0, 0, block & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def blocks(n: int, block_size: int = BLOCK_SIZE):
    """Yield ``(block_index, size)`` covering ``n`` draws."""
    b = 0
    while n > 0:
        size = min(block_size, n)
        yield b, size
        n -= size
        b += 1


def chunk_rows(row_width: int) -> int:
    """Rows of ``row_width`` float64 values that fit in one cache-sized chunk."""
    return max(1, _CHUNK_BYTES // (8 * row_width))


def row_chunks(n: int, row_width: int):
    """Yield ``(lo, hi)`` row ranges covering ``n`` rows in cache-sized chunks.

    Samplers draw and reduce a block chunk by chunk so that each pass over a
    chunk stays in cache.  Consecutive ``(m_i, k)`` draws from one Generator
    yield the same values as one ``(sum m_i, k)`` draw, so chunking does not
    change the sampled bytes.
    """
    step = chunk_rows(row_width)
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def _run_blocks(n, seed, stream, draw, threads, block_size):
    """Per-block results ``draw(generator, size)`` in block-index order."""
    plan = list(blocks(n, block_size))

    def work(item):
        b, size = item
        return draw(philox_stream(seed, stream, block=b), size)

    if threads > 1 and len(plan) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, plan))
    return [work(item) for item in plan]


def sample_blocked(n, seed, stream, draw, threads=1, block_size=BLOCK_SIZE):
    """Assemble ``n`` draws from per-block calls ``draw(generator, size)``.

    ``draw`` must return an array whose leading axis has length ``size``.
    Blocks are concatenated in index order, so the result is independent of
    ``threads``.
    """
    out = _run_blocks(n, seed, stream, draw, threads, block_size)
    if len(out) == 1:
        return out[0]
    return np.concatenate(out, axis=0)


def reduce_blocked(n, seed, stream, draw, combine, init, threads=1,
                   block_size=BLOCK_SIZE):
    """Fold per-block results ``draw(generator, size)`` in fixed block order.

    Used for counting/summing over sample sizes too large to materialise;
    ``combine`` is applied in block-index order regardless of thread count.
    """
    acc = init
    for part in _run_blocks(n, seed, stream, draw, threads, block_size):
        acc = combine(acc, part)
    return acc
