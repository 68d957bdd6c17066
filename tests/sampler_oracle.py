"""Reference samplers for the Marshall-Olkin shocks and the adjacency draw.

:func:`mo_uniform_block` and :func:`draw_base` are the whole-block kernels
that :func:`tailnet.copula._draw_uniform_block` (Marshall-Olkin branch) and
:func:`tailnet.network._draw_base` replace: one ``(size, 2^d - 1)``
exponential draw reduced column by column, and one ``(n, q, d)`` edge and
weight draw followed by a full rescan for all-zero rows after every redraw
round.  The cache-blocked kernels must return the same bytes from the same
Generator.  Test helpers only.
"""

import numpy as np

from tailnet.copula import _mo_shock_layout
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
