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
returns the same bytes for any number of threads, and the block runners
default to the cores this process may run on, at most
``MAX_DEFAULT_THREADS`` of them (each block in flight holds its draws).

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

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

BLOCK_SIZE = 1 << 20
# Default cap on blocks in flight: memory grows with it, speed stops growing.
MAX_DEFAULT_THREADS = 4
# Bytes of float64 per sampler chunk: small enough to stay in a core's cache.
_CHUNK_BYTES = 1 << 20

STREAM_RISK = 0
STREAM_MIXTURE = 1
STREAM_ADJACENCY = 2
STREAM_A_MOMENTS = 3
STREAM_ORTHANT = 4
STREAM_STUDY_BASE = 32


def _usable_cores() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


DEFAULT_THREADS = max(1, min(_usable_cores(), MAX_DEFAULT_THREADS))


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


def seeded(seed: int, stream: int, draw):
    """Block kernel ``(b, size) -> draw(generator of block b, size)`` on the
    ``(seed, stream)`` stream."""
    return lambda b, size: draw(philox_stream(seed, stream, block=b), size)


def fold_blocks(n, work, combine, init, threads=DEFAULT_THREADS,
                block_size=BLOCK_SIZE):
    """Fold ``acc = combine(acc, work(b, size))`` over the blocks of ``n``
    draws in block-index order.

    The one block-execution primitive.  At most ``threads`` blocks are in
    flight (submitted and not yet folded), so memory stays O(threads
    blocks) for any ``n``, and the fold order does not depend on
    ``threads``.
    """
    acc = init
    plan = blocks(n, block_size)
    if threads <= 1 or n <= block_size:
        for b, size in plan:
            acc = combine(acc, work(b, size))
        return acc
    window = deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for b, size in plan:
            window.append(pool.submit(work, b, size))
            if len(window) == threads:
                acc = combine(acc, window.popleft().result())
        while window:
            acc = combine(acc, window.popleft().result())
    return acc


def concat_blocks(n, work, threads=DEFAULT_THREADS, block_size=BLOCK_SIZE):
    """The arrays ``work(b, size)`` stacked along their leading axis in block
    order.  Each block is copied into the ``n``-row result as it is folded,
    so no list of blocks is held next to the result."""
    def put(acc, part):
        out, lo = acc
        if out is None:
            if len(part) == n:
                return part, n
            out = np.empty((n,) + part.shape[1:], dtype=part.dtype)
        out[lo:lo + len(part)] = part
        return out, lo + len(part)

    return fold_blocks(n, work, put, (None, 0), threads, block_size)[0]


def sample_blocked(n, seed, stream, draw, threads=DEFAULT_THREADS,
                   block_size=BLOCK_SIZE):
    """Assemble ``n`` draws from per-block calls ``draw(generator, size)``.

    ``draw`` must return an array whose leading axis has length ``size``.
    Blocks are stacked in index order, so the result is independent of
    ``threads``.
    """
    return concat_blocks(n, seeded(seed, stream, draw), threads, block_size)


def reduce_blocked(n, seed, stream, draw, combine, init,
                   threads=DEFAULT_THREADS, block_size=BLOCK_SIZE):
    """Fold per-block results ``draw(generator, size)`` in fixed block order.

    Used for counting/summing over sample sizes too large to materialise;
    ``combine`` is applied in block-index order regardless of thread count.
    """
    return fold_blocks(n, seeded(seed, stream, draw), combine, init, threads,
                       block_size)
