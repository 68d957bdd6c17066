"""Reference samplers for the Marshall-Olkin shocks and the adjacency draw.

:func:`mo_uniform_block` and :func:`draw_base` are the whole-block kernels
that :func:`tailnet.copula._draw_uniform_block` (Marshall-Olkin branch) and
:func:`tailnet.network._draw_base` replace: one ``(size, 2^d - 1)``
exponential draw reduced column by column, and one ``(n, q, d)`` edge and
weight draw followed by a full rescan for all-zero rows after every redraw
round.  The cache-blocked kernels must return the same bytes from the same
Generator.  Test helpers only.
"""

import functools

import numpy as np

from tailnet import rng
from tailnet.copula import _mo_shock_layout
from tailnet.copula import block_sampler
from tailnet.network import AggregatedNetwork


def mo_uniform_block(rates, g: np.random.Generator, size: int) -> np.ndarray:
    lam, member, totals = _mo_shock_layout(rates)
    d = rates.d
    shocks = g.standard_exponential((size, lam.size)) / lam
    t = np.empty((size, d))
    for j in range(d):
        t[:, j] = shocks[:, member[:, j]].min(axis=1)
    return np.exp(-t * totals)


def draw_base(net, g: np.random.Generator, n: int) -> np.ndarray:
    edges = g.random((n, net.q, net.d)) < net.edge_prob
    w = net.weights.draw(g, (n, net.q, net.d))
    a = np.where(edges, w, 0.0)
    # condition on no trivial rows: redraw offending rows until nonzero
    while True:
        dead = (a > 0).sum(axis=2) == 0
        if not dead.any():
            return a
        idx = np.argwhere(dead)
        ne = g.random((len(idx), net.d))
        nw = net.weights.draw(g, (len(idx), net.d))
        a[idx[:, 0], idx[:, 1]] = np.where(ne < net.edge_prob[idx[:, 1]], nw, 0.0)


def draw_law(law, g: np.random.Generator, n: int) -> np.ndarray:
    """:func:`draw_base` with the row reduction (sum or max) of an
    ``AggregatedNetwork``."""
    if isinstance(law, AggregatedNetwork):
        a = draw_base(law.base, g, n)
        return np.stack([getattr(a[:, list(rows), :], law.op)(axis=1)
                         for rows in (law.rows_s, law.rows_t)], axis=1)
    return draw_base(law, g, n)


def mixture_block(g: np.random.Generator, size: int) -> np.ndarray:
    """The masked-scatter form of :func:`tailnet.copula._mixture_block`:
    each branch's rows filled slot by slot through a boolean mask."""
    raw = g.random((size, 3))
    u, v = raw[:, 0], raw[:, 1]
    branch = np.minimum((raw[:, 2] * 3).astype(np.int64), 2)
    m = np.minimum(u, v)
    out = np.empty((size, 3))
    for b, cols in enumerate(((0, 1), (0, 2), (1, 2))):
        mask = branch == b
        out[mask, cols[0]] = u[mask]
        out[mask, cols[1]] = v[mask]
        out[mask, 3 - cols[0] - cols[1]] = m[mask]
    return out


def draw_weights(spec, g: np.random.Generator, shape) -> np.ndarray:
    """The weight draw written on its own: a constant array for fixed
    weights, ``lo + (hi - lo) u`` for uniform ones."""
    if not spec.draws:
        return np.full(shape, spec.lo)
    return spec.lo + (spec.hi - spec.lo) * g.random(shape)


def support(law) -> np.ndarray:
    """Which entries of a random law can be positive: a network's positive
    edge probabilities, and for a reduction the ``any`` over each row set
    of its base's support."""
    if not isinstance(law, AggregatedNetwork):
        return law.edge_prob > 0
    base = support(law.base)
    return np.vstack([base[list(law.rows_s)].any(axis=0),
                      base[list(law.rows_t)].any(axis=0)])


def reduce_rows(law, a: np.ndarray) -> np.ndarray:
    """Draws of ``law`` from draws ``a`` of the network under it: the base
    reduced first, then each row set folded row by row with ``np.add`` or
    ``np.maximum``."""
    if not isinstance(law, AggregatedNetwork):
        return a
    a = reduce_rows(law.base, a)
    op = np.add if law.op == "sum" else np.maximum
    return np.stack([functools.reduce(op, [a[:, i] for i in rows])
                     for rows in (law.rows_s, law.rows_t)], axis=1)


def losses(law, model, n: int, seed: int, z_stream: int, a_stream: int,
           block_size: int) -> np.ndarray:
    """(n, q) draws of X = A Z block by block: each block's matrices drawn
    whole by :func:`draw_base` on the network under ``law`` and reduced by
    :func:`reduce_rows`, times the block's risk rows drawn whole."""
    net = law
    while isinstance(net, AggregatedNetwork):
        net = net.base
    out = []
    for b, size in rng.blocks(n, block_size):
        a = draw_base(net, rng.philox_stream(seed, a_stream, block=b), size)
        z = block_sampler(model)(rng.philox_stream(seed, z_stream, block=b),
                                 size)
        out.append(np.einsum("nqd,nd->nq", reduce_rows(law, a), z))
    return np.concatenate(out)
