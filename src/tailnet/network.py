"""Bipartite bank-asset layer: adjacency laws, loss vectors X = A Z, the
cone-selection combinatorics, pairwise limit measures, conditional tail
probabilities, CoVaR rates, and the extreme CoVaR index.

Agent losses are X_k = sum_j A_kj Z_j with A independent of Z.  Every
operation is phrased for the two rows of a pair law; higher-q queries
reduce to one by row reductions of A, which compose: :func:`select_rows`,
the row sums of :func:`aggregate`, or agent k against the row maximum of
the others in :func:`one_vs_max`.  Each case's closed forms sit in one
record, :mod:`tailnet.covar`'s, which the bivariate layer reads too.

Moment terms over a random adjacency law are Monte Carlo estimates over
ADJ_MC_DRAWS draws of the conditioned (no-trivial-row) law, with reported
standard errors; deterministic matrices evaluate exactly.  A random law is
drawn once per (law, seed, count); its row reductions reduce those draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import threading
from functools import lru_cache
from itertools import combinations
from typing import Callable, Optional, Union

import numpy as np

from . import rng
# ``sample`` stays importable here: bench/tracing.py wraps network.sample
from .copula import (Gaussian, RiskModel, block_sampler, identity,  # noqa: F401
                     sample)
from .covar import (CASE_GAUSS, CASE_IID, CASE_MO_EQUAL, CASE_MO_PROP,
                    CASE_OVERLAP, EciReport, GSpec, _case_forms, _family_case,
                    gauss_constant_c)
from .errors import CapacityError, DispatchError, DomainError, ModelError
from .mrv import PowerLog, mo_max_exponent as _mo_max_exponent

ADJ_MC_DRAWS = 100_000
# Least P(agent row != 0) a random law may have when it is drawn: the
# no-trivial-row redraw loop takes about 1 / P rounds.
MIN_ROW_LIVE_PROB = 1e-6


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """Per-edge weight law with support bounded away from zero."""

    kind: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.kind not in ("point", "uniform"):
            raise ModelError(f"unknown weight kind {self.kind!r}")
        if not 0 < self.lo <= self.hi < math.inf:
            raise ModelError("weights need 0 < lo <= hi < inf")
        if self.kind == "point" and self.lo != self.hi:
            raise ModelError("point weights need lo == hi")

    def draw(self, g: np.random.Generator, shape):
        if self.kind == "point" or self.lo == self.hi:
            return np.full(shape, self.lo)
        return self.lo + (self.hi - self.lo) * g.random(shape)


@dataclass(frozen=True, eq=False)
class BipartiteNetwork:
    """Random bipartite exposure law: Bernoulli edges times weights."""

    q: int
    d: int
    edge_prob: np.ndarray
    weights: WeightSpec

    def __post_init__(self):
        p = np.broadcast_to(np.asarray(self.edge_prob, dtype=float),
                            (self.q, self.d)).copy()
        if not np.all((p >= 0) & (p <= 1)):
            raise ModelError("edge probabilities must lie in [0, 1]")
        if np.any(p.max(axis=1) <= 0):
            raise ModelError("every agent row needs some edge probability > 0")
        p.flags.writeable = False
        object.__setattr__(self, "edge_prob", p)


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """A realized exposure matrix; no agent row may be all zero."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2:
            raise ModelError("adjacency must be a matrix")
        if not np.all(np.isfinite(m) & (m >= 0)):
            raise ModelError("adjacency entries must be finite and nonnegative")
        if np.any((m > 0).sum(axis=1) == 0):
            raise ModelError("adjacency has an all-zero agent row")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True, eq=False)
class AggregatedNetwork:
    """Random two-row law (op_{k in S} a_k, op_{m in T} a_m) of the rows of
    a random law (a network or a reduction), ``op`` the row sum or max.  A
    fixed matrix is reduced to a fixed matrix (:func:`_row_reduction`), so
    it is refused as a base."""

    base: "ALaw"
    rows_s: tuple
    rows_t: tuple
    op: str = "sum"

    def __post_init__(self):
        if self.op not in ("sum", "max"):
            raise ModelError(f"unknown row reduction {self.op!r}")
        if is_deterministic(self.base):
            raise ModelError("a reduction's base must be a random law")
        q, _ = law_shape(self.base)
        if not all(rows and all(0 <= i < q for i in rows)
                   for rows in (self.rows_s, self.rows_t)):
            raise ModelError(f"reduced row sets must be nonempty in 0..{q - 1}")


ALaw = Union[AdjacencyMatrix, BipartiteNetwork, AggregatedNetwork, np.ndarray]


def law_shape(law: ALaw):
    if isinstance(law, BipartiteNetwork):
        return law.q, law.d
    if isinstance(law, AggregatedNetwork):
        return 2, law_shape(law.base)[1]
    m = law.entries if isinstance(law, AdjacencyMatrix) else np.asarray(law)
    return m.shape


def is_deterministic(law: ALaw) -> bool:
    return not isinstance(law, (BipartiteNetwork, AggregatedNetwork))


def law_matrix(law: ALaw) -> np.ndarray:
    if not is_deterministic(law):
        raise DomainError("random law has no fixed matrix")
    return law.entries if isinstance(law, AdjacencyMatrix) else \
        AdjacencyMatrix(np.asarray(law, dtype=float)).entries


def support(law: ALaw) -> np.ndarray:
    """Boolean q x d matrix: can entry (k, j) be positive?"""
    if isinstance(law, BipartiteNetwork):
        return law.edge_prob > 0
    if isinstance(law, AggregatedNetwork):
        base = support(law.base)
        return np.vstack([base[list(law.rows_s)].any(axis=0),
                          base[list(law.rows_t)].any(axis=0)])
    return law_matrix(law) > 0


def select_rows(law: ALaw, k: int, m: int) -> ALaw:
    q, _ = law_shape(law)
    if not (0 <= k < q and 0 <= m < q and k != m):
        raise DomainError("need two distinct agent rows")
    if isinstance(law, BipartiteNetwork):
        return BipartiteNetwork(2, law.d, law.edge_prob[[k, m], :], law.weights)
    return _row_reduction(law, [k], [m], "sum")      # one-row sums are exact


def _fold_columns(op, mask: np.ndarray) -> np.ndarray:
    """``op.reduce(mask, axis=-1)`` for a bool ``mask`` and a logical ufunc
    ``op``, one pass per column: numpy reduces a short last axis about 5x
    slower."""
    out = mask[..., 0].copy()
    for j in range(1, mask.shape[-1]):
        op(out, mask[..., j], out=out)
    return out


def _draw_exposures(net: BipartiteNetwork, g: np.random.Generator, n: int,
                    width: int, visit):
    """Draw ``n`` exposure matrices conditioned on no all-zero agent row in
    one pass over row chunks of ``rng.chunk_rows(width)`` rows, ``width``
    at least ``q d``.

    Each chunk's matrices go to ``visit(lo, a, dead)`` with their all-zero
    agent rows still in place; ``dead`` marks the chunk's matrices that
    have one.  Those matrices are kept, one part per chunk, and after the
    last chunk their all-zero rows are redrawn (edges, then weights) until
    none is left.  Returns the parts as ``(rows, a)`` pairs: the kept
    matrices' indices in ``[0, n)`` and the redrawn matrices.
    RNG-order contract (the block layout in :mod:`tailnet.rng`): the edges
    are drawn from ``g``, the weights and then the redraw rounds from a
    second generator placed ``n q d`` draws past ``g``, and each round
    visits the rows still dead in row-major order.  A round of ``R`` dead
    rows is drawn part by part, so in row chunks (a part holds at most one
    chunk's matrices): the edges from the round's start, the weights from a
    generator placed ``R d`` draws past it (a section of no draws for point
    weights).  So the bytes do not depend on the chunking, and a round holds
    no ``(R, d)`` array.  Weights are > 0, so a row is dead exactly
    when it has no edge.  A law with an agent row that is nonzero with
    probability below MIN_ROW_LIVE_PROB raises CapacityError before any
    draw, as its redraw loop would not end in practice.
    """
    q, d = net.q, net.d
    live = 1.0 - np.prod(1.0 - net.edge_prob, axis=1)
    if live.min() < MIN_ROW_LIVE_PROB:
        k = int(live.argmin())
        raise CapacityError(
            f"agent row {k} is nonzero with probability {live[k]:.3g}, "
            f"below {MIN_ROW_LIVE_PROB:g}: conditioning on no all-zero row "
            f"would redraw it about {1 / live[k]:.3g} times",
            MIN_ROW_LIVE_PROB)
    gw = rng.positioned(g, n * q * d)
    parts, pending = [], []             # pending: (part, its dead rows)
    for lo, hi in rng.row_chunks(n, width):
        edges = g.random((hi - lo, q, d)) < net.edge_prob
        a = net.weights.draw(gw, edges.shape) * edges
        has_edge = _fold_columns(np.logical_or, edges)
        dead = ~_fold_columns(np.logical_and, has_edge)
        visit(lo, a, dead)
        if dead.any():
            # compress copies the rows about 3x faster than a boolean index
            kept = np.compress(dead, a, axis=0)
            parts.append((lo + np.flatnonzero(dead), kept))
            pending.append((kept, np.argwhere(
                ~np.compress(dead, has_edge, axis=0))))
    while pending:
        gw_next = rng.positioned(gw, d * sum(len(idx) for _, idx in pending))
        left = []
        for a, idx in pending:
            ne = gw.random((len(idx), d)) < net.edge_prob[idx[:, 1]]
            nw = net.weights.draw(gw_next, (len(idx), d))
            # a row drawn without an edge is written as the zeros it holds
            a[idx[:, 0], idx[:, 1]] = np.where(ne, nw, 0.0)
            dead = ~_fold_columns(np.logical_or, ne)
            if dead.any():
                left.append((a, np.compress(dead, idx, axis=0)))
        pending, gw = left, gw_next
    return parts


def _draw_base(net: BipartiteNetwork, g: np.random.Generator, n: int) -> np.ndarray:
    """``n`` exposure matrices conditioned on no all-zero agent row: the
    :func:`_draw_exposures` chunks with their kept matrices redrawn."""
    out = np.empty((n, net.q, net.d))
    parts = _draw_exposures(net, g, n, net.q * net.d,
                            lambda lo, part, dead:
                            np.copyto(out[lo:lo + len(part)], part))
    for rows, a in parts:
        out[rows] = a
    return out


def _reduce(law: AggregatedNetwork, a: np.ndarray) -> np.ndarray:
    """Draws of ``law`` from draws ``a`` of its base law."""
    return np.stack([getattr(a[:, list(rows), :], law.op)(axis=1)
                     for rows in (law.rows_s, law.rows_t)], axis=1)


def _row_reduction(law: ALaw, rows_s, rows_t, op: str) -> ALaw:
    """Two-row law (op over rows_s, op over rows_t) of a q-row law."""
    if not is_deterministic(law):
        return AggregatedNetwork(law, tuple(rows_s), tuple(rows_t), op)
    m = law_matrix(law)
    return AdjacencyMatrix(np.vstack([getattr(m[list(rows)], op)(axis=0)
                                      for rows in (rows_s, rows_t)]))


def _draw_law(law: ALaw, g: np.random.Generator, n: int) -> np.ndarray:
    if is_deterministic(law):
        return np.broadcast_to(law_matrix(law), (n,) + law_matrix(law).shape)
    if isinstance(law, AggregatedNetwork):
        return _reduce(law, _draw_law(law.base, g, n))
    return _draw_base(law, g, n)


def sample_adjacency(net: BipartiteNetwork, seed: int) -> AdjacencyMatrix:
    """One exposure matrix draw conditioned on no trivial rows."""
    return AdjacencyMatrix(sample_adjacency_batch(net, seed, 1)[0])


def sample_adjacency_batch(law: ALaw, seed: int, n: int) -> np.ndarray:
    return _draw_law(law, rng.philox_stream(seed, rng.STREAM_ADJACENCY), n)


@dataclass(frozen=True)
class LossWalk:
    """A loss block as a walk over its row chunks: ``visit(b, size, take)``
    hands ``take(rows, xs)`` the score rows ``xs`` of block b's rows
    ``rows`` (a slice or an ascending index array into the block), piece
    by piece, each row once, and ``finish`` maps score rows to losses
    elementwise (a random law's pieces are already its losses).  Called as
    ``(b, size)``, it returns the ``(size, q)`` losses of the block, and
    :meth:`score` their scores."""

    visit: Callable
    q: int
    finish: Callable = identity

    def _fill(self, b: int, size: int, fn) -> np.ndarray:
        x = np.empty((size, self.q))

        def put(rows, xs):
            x[rows] = fn(xs)

        self.visit(b, size, put)
        return x

    def score(self, b: int, size: int) -> np.ndarray:
        return self._fill(b, size, identity)

    def __call__(self, b: int, size: int) -> np.ndarray:
        return self._fill(b, size, self.finish)


def loss_sampler(law: ALaw, model: RiskModel, seed: int, z_stream: int,
                 a_stream: int):
    """Per-block kernel ``(b, size) -> (size, q)`` draws of X = A Z: block b
    of the z stream, times block b of the a stream when A is random (a fresh
    (A, Z) per draw).  Per-block matmul and einsum return the same bytes as
    over the whole sample.

    A random law's kernel is a :class:`LossWalk`: one pass over the
    :func:`_draw_exposures` row chunks of the network its reductions start
    from (they apply innermost first), each chunk's risk rows drawn by the
    model's kernel on that chunk (every kernel's score may be split into row
    chunks).  Each chunk hands over the losses of its matrices with no
    all-zero agent row; the others' losses follow part by part, from their
    kept risk rows, once their dead rows are redrawn (in row chunks, the
    block layout unchanged).  So a walk holds one row chunk and the kept
    matrices, never a ``(size, q, d)`` or ``(size, q)`` array."""
    q, d = law_shape(law)
    if d != model.d:
        raise ModelError("network object count must match model dimension")
    kernel = block_sampler(model)
    if is_deterministic(law):
        draw_z = rng.seeded(seed, z_stream, kernel)
        m_t = law_matrix(law).T
        return lambda b, size: draw_z(b, size) @ m_t
    chain, base = [], law           # the reductions, outermost first
    while isinstance(base, AggregatedNetwork):
        chain.append(base)
        base = base.base
    width = max(base.q * d, kernel.row_width)

    def losses(a, z):
        for red in reversed(chain):
            a = _reduce(red, a)
        return np.einsum("nqd,nd->nq", a, z)

    def visit(b, size, take):
        gz = rng.philox_stream(seed, z_stream, block=b)
        kept_z = []

        def chunk(lo, a, dead):
            z = kernel(gz, len(a))
            live = ~dead
            take(lo + np.flatnonzero(live),
                 np.compress(live, losses(a, z), axis=0))
            if dead.any():
                kept_z.append(np.compress(dead, z, axis=0))

        parts = _draw_exposures(
            base, rng.philox_stream(seed, a_stream, block=b), size, width,
            chunk)
        for (rows, a), z in zip(parts, kept_z):
            take(rows, losses(a, z))

    return LossWalk(visit, q)


def sample_losses(law: ALaw, model: RiskModel, n: int, seed: int,
                  threads: int = 1, z_stream: int = rng.STREAM_RISK,
                  a_stream: int = rng.STREAM_ADJACENCY) -> np.ndarray:
    """(n, q) draws of X = A Z: the :func:`loss_sampler` blocks stacked."""
    return rng.concat_blocks(
        n, loss_sampler(law, model, seed, z_stream, a_stream), threads)


def cover_index(law: ALaw, k: int) -> int:
    """Minimum number of asset columns whose positive entries jointly cover
    at least k agent rows; equivalently, the largest cone order whose row-k
    scaling norm of A stays finite."""
    m = law_matrix(law)
    q, d = m.shape
    if not 1 <= k <= q:
        raise DomainError(f"k must lie in 1..{q}")
    col_rows = [frozenset(np.nonzero(m[:, c] > 0)[0].tolist()) for c in range(d)]
    for size in range(1, d + 1):
        for combo in combinations(range(d), size):
            covered = frozenset().union(*(col_rows[c] for c in combo))
            if len(covered) >= k:
                return size
    raise ModelError("columns cannot cover the requested number of rows")


@dataclass(frozen=True)
class OverlapProfile:
    """Whether two agents can share an asset, plus for Gaussian models the
    maximal correlation rho_vee and its agent-connected counterpart
    rho_star (the largest rho_lj over asset pairs the two agents can hold
    simultaneously)."""

    overlap: bool
    rho_vee: Optional[float] = None
    rho_star: Optional[float] = None


def overlap_profile(law: ALaw, model: Optional[RiskModel] = None,
                    k: int = 0, m: int = 1) -> OverlapProfile:
    supp = support(select_rows(law, k, m))
    shares = bool(np.any(supp[0] & supp[1]))
    rho_vee = rho_star = None
    if model is not None and isinstance(model.dependence, Gaussian):
        sig = model.dependence.sigma.entries
        off = ~np.eye(len(sig), dtype=bool)
        rho_vee = float(sig[off].max())
        linked = off & supp[0][:, None] & supp[1][None, :]
        rho_star = float(sig[linked].max()) if linked.any() else None
    return OverlapProfile(shares, rho_vee, rho_star)


def resolve_case(law: ALaw, model: RiskModel, k: int = 0, m: int = 1) -> str:
    """Exactly one asymptotic regime applies to an agent pair."""
    prof = overlap_profile(law, model, k, m)
    if prof.overlap:
        return CASE_OVERLAP
    case = _family_case(model)
    if case == CASE_GAUSS and prof.rho_star is None:
        raise ModelError("no asset pair connects the two agents")
    return case


def _check_case(case: str, law: ALaw, model: RiskModel) -> None:
    actual = resolve_case(law, model)
    if case != actual:
        raise DispatchError(f"case {case!r} does not match the scenario ({actual!r})")


@dataclass(frozen=True)
class MomentEstimate:
    """A moment value with its Monte Carlo standard error (0 when exact)."""

    value: float
    stderr: float = 0.0

    def scaled(self, factor: float) -> "MomentEstimate":
        return MomentEstimate(self.value * factor, self.stderr * abs(factor))

    def powered(self, p: float) -> "MomentEstimate":
        val = self.value ** p
        se = abs(p * val / self.value) * self.stderr if self.value > 0 else 0.0
        return MomentEstimate(val, se)


# held around memo lookups, so that concurrent study points draw a law once
_MOMENT_LOCK = threading.Lock()


@lru_cache(maxsize=4)
def _moment_draws(law: ALaw, seed: int, n_a: int) -> np.ndarray:
    """The ``n_a`` draws of a random law behind its moments at ``seed``,
    shared read-only: a base network is drawn once, and a row reduction
    reduces its base's draws."""
    if isinstance(law, AggregatedNetwork):
        a = _reduce(law, _moment_draws(law.base, seed, n_a))
    else:
        a = _draw_base(law, rng.philox_stream(seed, rng.STREAM_A_MOMENTS), n_a)
    a.flags.writeable = False
    return a


def a_moment(law: ALaw, fn, n_a: int = ADJ_MC_DRAWS, seed: int = 0) -> MomentEstimate:
    """E[fn(A)] over the adjacency law; fn maps (m, q, d) batches to per-draw
    scalars.  Deterministic laws evaluate exactly (stderr 0).  A random
    law's draws go to ``fn`` in row chunks (``rng.row_chunks``), so its
    temporaries stay chunk-sized; the per-draw values are those of one
    call on all the draws.  A random law needs two draws for its stderr."""
    if is_deterministic(law):
        val = fn(law_matrix(law)[None, :, :])
        return MomentEstimate(float(np.asarray(val).ravel()[0]), 0.0)
    if n_a < 2:
        raise DomainError(f"a random law's moments need n_a >= 2, got {n_a}")
    with _MOMENT_LOCK:      # not re-entered: the base recursion is inside
        a = _moment_draws(law, seed, n_a)
    vals = np.concatenate([np.asarray(fn(a[lo:hi]), dtype=float) for lo, hi
                           in rng.row_chunks(n_a, a[0].size)])
    return MomentEstimate(float(vals.mean()),
                          float(vals.std(ddof=1) / math.sqrt(n_a)))


def row_moment_sum(law: ALaw, row: int, c: float, **kw) -> MomentEstimate:
    """sum_l E[a_{row,l}^c]."""
    return a_moment(law, lambda a: (a[:, row, :] ** c).sum(axis=1), **kw)


def _pair_product_sum(law, c1: float, c2: float, **kw) -> MomentEstimate:
    """sum_{l,j} E[a_{1l}^{c1} a_{2j}^{c2}] over rows (0, 1)."""
    return a_moment(
        law,
        lambda a: (a[:, 0, :] ** c1).sum(axis=1) * (a[:, 1, :] ** c2).sum(axis=1),
        **kw)


def _pair_thresholds(x):
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (2,) or np.any(x <= 0):
        raise DomainError("x must be a strictly positive 2-vector")
    return float(x[0]), float(x[1])


def mu_bar_1(law: ALaw, model: RiskModel, x, **kw) -> MomentEstimate:
    """Limit mass of [0, x]^c at the one-large-asset order:
    sum_l E[max(a_{1l}/x1, a_{2l}/x2)^alpha]."""
    x1, x2 = _pair_thresholds(x)
    alpha = model.margin.alpha
    return a_moment(
        law,
        lambda a: (np.maximum(a[:, 0, :] / x1, a[:, 1, :] / x2) ** alpha).sum(axis=1),
        **kw)


def mu_bar_2_overlap(law: ALaw, model: RiskModel, x, **kw) -> MomentEstimate:
    """Joint-exceedance limit mass when the agents can share an asset:
    sum_l E[min(a_{1l}/x1, a_{2l}/x2)^alpha]."""
    if not overlap_profile(law).overlap:
        raise DispatchError(
            "agents share no asset almost surely; the shared-asset joint "
            "measure is identically zero - use the disjoint-case operations")
    x1, x2 = _pair_thresholds(x)
    alpha = model.margin.alpha
    return a_moment(
        law,
        lambda a: (np.minimum(a[:, 0, :] / x1, a[:, 1, :] / x2) ** alpha).sum(axis=1),
        **kw)


def _gauss_pair_mask(sigma: np.ndarray, rho: float) -> np.ndarray:
    d = sigma.shape[0]
    mask = np.abs(sigma - rho) <= 1e-12
    mask[np.eye(d, dtype=bool)] = False
    return mask


def gauss_constant_d(law: ALaw, model: RiskModel, rho: float,
                     **kw) -> MomentEstimate:
    """Pair-sum constant of the disjoint Gaussian limit measure at
    correlation level rho: (2 pi)^{-1} (1+rho)^{3/2} (1-rho)^{-1/2}
    sum_{(l,j): rho_lj = rho} E[a_{1l}^{alpha/(1+rho)} a_{2j}^{alpha/(1+rho)}]."""
    alpha = model.margin.alpha
    sigma = model.dependence.sigma.entries
    mask = _gauss_pair_mask(sigma, rho)
    c = alpha / (1.0 + rho)
    pre = (1.0 + rho) ** 1.5 / (2.0 * math.pi * math.sqrt(1.0 - rho))

    def fn(a):
        prod = (a[:, 0, :, None] ** c) * (a[:, 1, None, :] ** c)
        return (prod * mask).sum(axis=(1, 2))

    return a_moment(law, fn, **kw).scaled(pre)


def gaussian_mu_bar_2_thm_dispatch(law: ALaw, model: RiskModel, x,
                                   **kw) -> MomentEstimate:
    """Disjoint Gaussian joint-exceedance mass as the plain cone-2 dispatch
    computes it: the connected pair sum at the global maximum correlation.
    Identically zero when no maximally-correlated asset pair links the two
    agents, even though a slower nontrivial rate exists."""
    prof = overlap_profile(law, model)
    if prof.overlap:
        raise DispatchError("dispatch-level measure is for the disjoint case")
    x1, x2 = _pair_thresholds(x)
    rho = prof.rho_vee
    alpha = model.margin.alpha
    return gauss_constant_d(law, model, rho, **kw).scaled(
        (x1 * x2) ** (-alpha / (1.0 + rho)))


def disjoint_mu_bar_2(law: ALaw, model: RiskModel, x, **kw) -> MomentEstimate:
    """Joint-exceedance limit mass for agents holding a.s. disjoint assets,
    at the dependence-determined two-large-assets order.  For the Gaussian
    family the effective correlation is rho_star, the largest correlation
    among asset pairs the agents actually co-hold (unconnected columns drop
    out of the pair sum automatically)."""
    case = resolve_case(law, model)
    if case == CASE_OVERLAP:
        raise DispatchError("agents can share an asset; use the overlap measure")
    x1, x2 = _pair_thresholds(x)
    alpha = model.margin.alpha
    if case == CASE_IID:
        return _pair_product_sum(law, alpha, alpha, **kw).scaled((x1 * x2) ** -alpha)
    if case in (CASE_MO_EQUAL, CASE_MO_PROP):
        emax = alpha * _mo_max_exponent(model.dependence.rates.variant, model.d)

        def fn(a):
            r1 = a[:, 0, :, None] / x1
            r2 = a[:, 1, None, :] / x2
            return (np.minimum(r1, r2) ** alpha
                    * np.maximum(r1, r2) ** emax).sum(axis=(1, 2))

        return a_moment(law, fn, **kw)
    rho = _pair_forms(case, model, law).rho
    return gauss_constant_d(law, model, rho, **kw).scaled(
        (x1 * x2) ** (-alpha / (1.0 + rho)))


def _pair_forms(case: str, model: RiskModel, law: Optional[ALaw] = None):
    """The case record of an agent pair, at its rho_star if Gaussian."""
    rho = overlap_profile(law, model).rho_star if case == CASE_GAUSS else None
    return _case_forms(case, model.margin.alpha, model.margin.theta,
                       model.d, rho)


def network_alpha2(case: str, model: RiskModel,
                   law: Optional[ALaw] = None) -> float:
    """Regular-variation index of the joint-exceedance cone per case."""
    return _pair_forms(case, model, law).alpha2


def network_b2_inv(case: str, model: RiskModel,
                   law: Optional[ALaw] = None) -> PowerLog:
    """Inverse scale function of the joint-exceedance cone per case."""
    return _pair_forms(case, model, law).b2_inv


def network_g(case: str, model: RiskModel, law: Optional[ALaw] = None) -> GSpec:
    """Level function keeping the case's CoVaR of VaR's order."""
    return _pair_forms(case, model, law).g


def network_eci(case: str, model: RiskModel,
                law: Optional[ALaw] = None) -> EciReport:
    """Closed-form extreme CoVaR index per case."""
    return _pair_forms(case, model, law).eci


def network_cond_prob(case: str, law: ALaw, model: RiskModel, x, t: float,
                      **kw) -> MomentEstimate:
    """Asymptotic conditional exceedance P(X1 > t x1 | X2 > t x2)."""
    _check_case(case, law, model)
    x1, x2 = _pair_thresholds(x)
    alpha, theta = model.margin.alpha, model.margin.theta
    if case != CASE_OVERLAP and not t > 1.0:
        raise DomainError("t must exceed 1 for the decaying factor")
    m2 = row_moment_sum(law, 1, alpha, **kw)
    if case == CASE_OVERLAP:
        return mu_bar_2_overlap(law, model, (x1, x2), **kw).scaled(
            x2 ** alpha / m2.value)
    if case == CASE_IID:
        return _pair_product_sum(law, alpha, alpha, **kw).scaled(
            theta * t ** -alpha * x1 ** -alpha / m2.value)
    if case in (CASE_MO_EQUAL, CASE_MO_PROP):
        eta = _mo_max_exponent(model.dependence.rates.variant, model.d)
        return disjoint_mu_bar_2(law, model, (x1, x2), **kw).scaled(
            (theta * t ** -alpha) ** eta * x2 ** alpha / m2.value)
    rho = _pair_forms(case, model, law).rho
    fac = (theta * t ** -alpha) ** ((1.0 - rho) / (1.0 + rho)) \
        * math.log(t) ** (-rho / (1.0 + rho)) \
        * x1 ** (-alpha / (1.0 + rho)) * x2 ** (alpha * rho / (1.0 + rho)) \
        / (gauss_constant_c(rho, alpha) * m2.value)
    return gauss_constant_d(law, model, rho, **kw).scaled(fac)


@dataclass(frozen=True)
class NetworkCovar:
    """Asymptotic CoVaR of X1 given X2 at level upsilon * g(gamma).

    ``low_upsilon`` is the branch valid below the (uncomputed) threshold
    upsilon_1*, ``high_upsilon`` the branch above upsilon_2* (Marshall-Olkin
    cases only; None elsewhere).  Studies report which branch the Monte
    Carlo estimate matches and flag the ambiguous middle region.
    """

    g: GSpec
    low_upsilon: MomentEstimate
    high_upsilon: Optional[MomentEstimate]
    var_gamma: float


def network_covar(case: str, law: ALaw, model: RiskModel, gamma: float,
                  upsilon: float, **kw) -> NetworkCovar:
    """Asymptotic CoVaR displays per case; see :class:`NetworkCovar`."""
    _check_case(case, law, model)
    forms = _pair_forms(case, model, law)
    alpha, theta = model.margin.alpha, model.margin.theta
    if not 0 < gamma < 1 or not upsilon > 0:
        raise DomainError("need gamma in (0, 1) and upsilon > 0")
    m2 = row_moment_sum(law, 1, alpha, **kw).value
    var_gamma = (theta * m2 / gamma) ** (1.0 / alpha)
    u = upsilon
    if case == CASE_OVERLAP:
        m1 = row_moment_sum(law, 0, alpha, **kw)
        val = m1.powered(1.0 / alpha).scaled(
            u ** (-1.0 / alpha) * m2 ** (-1.0 / alpha) * var_gamma)
        return NetworkCovar(forms.g, val, None, var_gamma)
    if case == CASE_IID:
        num = _pair_product_sum(law, alpha, alpha, **kw)
        val = num.powered(1.0 / alpha).scaled(
            u ** (-1.0 / alpha) * m2 ** (-2.0 / alpha) * var_gamma)
        return NetworkCovar(forms.g, val, None, var_gamma)
    if case in (CASE_MO_EQUAL, CASE_MO_PROP):
        eta = _mo_max_exponent(model.dependence.rates.variant, model.d)
        low = _pair_product_sum(law, alpha, alpha * eta, **kw).powered(
            1.0 / alpha).scaled(
            u ** (-1.0 / alpha) * m2 ** (-(1.0 + eta) / alpha) * var_gamma)
        high = _pair_product_sum(law, alpha * eta, alpha, **kw).powered(
            1.0 / (alpha * eta)).scaled(
            u ** (-1.0 / (alpha * eta))
            * m2 ** (-(1.0 + eta) / (alpha * eta)) * var_gamma)
        return NetworkCovar(forms.g, low, high, var_gamma)
    rho = forms.rho
    val = gauss_constant_d(law, model, rho, **kw).powered(
        (1.0 + rho) / alpha).scaled(
        u ** (-(1.0 + rho) / alpha)
        * gauss_constant_c(rho, alpha) ** (-(1.0 + rho) / alpha)
        * m2 ** (-2.0 / alpha) * var_gamma)
    return NetworkCovar(forms.g, val, None, var_gamma)


def aggregate(law: ALaw, agents_s, agents_t) -> ALaw:
    """Two-row exposure of the aggregate pair (sum_{k in S} X_k,
    sum_{m in T} X_m); the pair equals A* Z with A* the row sums, so every
    pairwise operation applies to the result unchanged."""
    q, _ = law_shape(law)
    s = sorted(set(int(i) for i in agents_s))
    t = sorted(set(int(i) for i in agents_t))
    if not s or not t or not all(0 <= i < q for i in s + t):
        raise DomainError(f"agent subsets must be nonempty in 0..{q - 1}")
    return _row_reduction(law, s, t, "sum")


@dataclass(frozen=True)
class OneVsMaxReport:
    """Asymptotics of Y = (X_k, max_{m != k} X_m).

    Conditional probabilities are evaluated at the supplied (x, t); CoVaR
    values at (gamma, upsilon).  ``covar_2_given_1`` is None in the
    Marshall-Olkin disjoint cases, where only one direction has a stated
    display.  ECI applies to both directions.
    """

    case: str
    mu1_star: MomentEstimate
    mu2_star: MomentEstimate
    cond_prob_1_given_2: MomentEstimate
    cond_prob_2_given_1: MomentEstimate
    g: GSpec
    covar_1_given_2: NetworkCovar
    covar_2_given_1: Optional[NetworkCovar]
    eci: EciReport


def one_vs_max(law: ALaw, model: RiskModel, k: int, x, t: float,
               gamma: float, upsilon: float, **kw) -> OneVsMaxReport:
    """Limit measures, conditional tail probabilities, CoVaR and ECI for
    one agent against the maximum of all the others: the pairwise
    operations on the two-row law (a_k, max_{m != k} a_m), and on its row
    swap for the reverse direction."""
    q, _ = law_shape(law)
    if not 0 <= k < q or q < 2:
        raise DomainError("need q >= 2 and a valid agent index")
    others = [m for m in range(q) if m != k]
    pair = _row_reduction(law, [k], others, "max")
    swap = _row_reduction(law, others, [k], "max")
    case = resolve_case(pair, model)
    x1, x2 = _pair_thresholds(x)
    mu_bar_2 = mu_bar_2_overlap if case == CASE_OVERLAP else disjoint_mu_bar_2
    one_way = case in (CASE_MO_EQUAL, CASE_MO_PROP)
    return OneVsMaxReport(
        case, mu_bar_1(pair, model, (x1, x2), **kw),
        mu_bar_2(pair, model, (x1, x2), **kw),
        network_cond_prob(case, pair, model, (x1, x2), t, **kw),
        network_cond_prob(case, swap, model, (x2, x1), t, **kw),
        network_g(case, model, pair),
        network_covar(case, pair, model, gamma, upsilon, **kw),
        None if one_way else network_covar(case, swap, model, gamma,
                                           upsilon, **kw),
        network_eci(case, model, pair))
