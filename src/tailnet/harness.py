"""Experiment runner: convergence studies comparing Monte Carlo estimates
against the closed-form asymptotics, plus the brute-force oracle for the
quadratic program.

Reproducibility contract: a study is a pure function of its scenario.  Each grid
point owns a derived stream (STREAM_STUDY_BASE + 2 * index for the risk
vectors, + 2 * index + 1 for adjacency draws), samples are drawn in
fixed-size counter blocks, and rows are emitted in grid order, so the CSV
bytes do not depend on the thread count.

A point never holds its whole sample, nor a whole block: it walks each loss
block, a :class:`tailnet.network.LossWalk`, in row chunks (:func:`_walk`;
every production walk hands over whole chunks as slices, a random law's
with its redraw rounds already settled) over :func:`rng.fold_blocks`,
counting tail hits per piece and batch (:func:`_batch_bounds`), or admitting
CoVaR rows per piece into buffers behind a running floor on the score.  It
gets the same bytes as the statistics of the whole sample.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import network as net
from . import rng
# ``sample`` and ``BlockKernel`` stay importable here: bench/tracing.py
# wraps harness.sample, and tests build stand-in kernels from BlockKernel
from .copula import (SCORE_TOL, BlockKernel, Iid, MarshallOlkin,  # noqa: F401
                     RiskModel, block_sampler, identity, sample)
from .covar import (GSpec, covar_asymptotic_model, covar_empirical,
                    var_top_count)
from .errors import DomainError, ReliabilityError
from .mrv import RectSet, gaussian_tail_asymptotic, mo_cone_spec, mo_mu
from .scenario import Scenario

N_BATCHES = 32
MIN_HITS = 20


@dataclass(frozen=True)
class StudyRow:
    grid_value: float
    empirical: float
    stderr: float
    asymptotic: float
    ratio: Optional[float]
    flag: str = ""


def _batch_bounds(start: int, rows, n: int) -> np.ndarray:
    """The N_BATCHES + 1 bounds of an ``n``-row sample's batches of
    ``n // N_BATCHES`` rows as positions in a piece, rows ``rows`` (a slice,
    or an ascending index array from a test's stand-in walk) of a block
    from sample row ``start``: batch i holds ``[bounds[i], bounds[i + 1])``,
    and rows past the last, none."""
    cuts = n // N_BATCHES * np.arange(N_BATCHES + 1) - start
    if isinstance(rows, slice):
        return np.clip(cuts - rows.start, 0, rows.stop - rows.start)
    return np.searchsorted(rows, cuts)


def _batch_pieces(start: int, rows, n: int) -> list:
    """``(batch, lo, hi)``: a piece's positions ``[lo, hi)`` in each batch
    it reaches (:func:`_batch_bounds`)."""
    bounds = _batch_bounds(start, rows, n)
    return [(batch, lo, hi) for batch, (lo, hi)
            in enumerate(zip(bounds[:-1], bounds[1:])) if lo < hi]


def _batch_cuts(lo: int, size: int, n: int) -> list:
    """``(batch, start, stop)``: rows ``[lo, lo + size)`` of an ``n``-row
    sample in each batch they reach, as offsets from ``lo``."""
    return _batch_pieces(lo, slice(0, size), n)


def _batch_stderr(counts: np.ndarray, per: int) -> float:
    """Batch-means standard error of a hit indicator from its hit counts in
    N_BATCHES batches of ``per`` rows."""
    if per == 0:
        return float("nan")
    means = counts / per
    return float(means.std(ddof=1) / math.sqrt(N_BATCHES))


def _ratio(empirical: float, asymptotic: float) -> Optional[float]:
    if math.isfinite(empirical) and math.isfinite(asymptotic) \
            and empirical > 0 and asymptotic > 0:
        return empirical / asymptotic
    return None


def _thresholds(study, d: int) -> np.ndarray:
    x = np.asarray(study.thresholds, dtype=float)
    if x.size == 1:
        return np.full(d, x[0])
    if x.size != d:
        raise DomainError(f"study needs {d} thresholds (or one to broadcast)")
    return x


def study_pair(scenario: Scenario) -> tuple:
    """``(law, case)`` of the agent pair a scenario studies: the two-row law
    of X = A Z for the study's agents (agents 1 and 2 without a study) and
    its asymptotic case, or ``(None, None)`` for a plain risk model."""
    law = scenario.network
    if law is None:
        return None, None
    agents = scenario.study.agents if scenario.study else (0, 1)
    if net.law_shape(law)[0] != 2 or agents != (0, 1):
        law = net.select_rows(law, *agents)
    return law, net.resolve_case(law, scenario.model)


def loss_blocks(scenario: Scenario, law, z_stream: int, a_stream: int):
    """Per-block kernel ``(b, size)`` of the study's losses: block b of the
    (n, 2) agent losses of the pair law ``law``, or of the (n, d) risk
    vectors when ``law`` is None, each a :class:`tailnet.network.LossWalk`;
    the risk vectors' is the :func:`tailnet.network.row_walk` of this
    module's ``block_sampler``."""
    seed = scenario.study.seed
    if law is not None:
        return net.loss_sampler(law, scenario.model, seed, z_stream, a_stream)
    return net.row_walk(block_sampler(scenario.model), seed, z_stream,
                        scenario.model.d)


def _walk(kernel) -> tuple:
    """``(visit, finish)`` of a :func:`loss_blocks` kernel:
    ``visit(b, size, take)`` hands ``take(rows, xs)`` block b's score rows
    piece by piece, and ``finish`` maps them to losses.  A plain callable
    (only a test's stand-in) is one whole-block piece of its losses."""
    if isinstance(kernel, net.LossWalk):
        return kernel.visit, kernel.finish
    return (lambda b, size, take: take(slice(0, size), kernel(b, size))), \
        identity


def draw_losses(scenario: Scenario, law, z_stream: int = rng.STREAM_RISK,
                a_stream: int = rng.STREAM_ADJACENCY,
                threads: int = 1) -> np.ndarray:
    """The study's ``mc_budget`` loss draws at once: the
    :func:`loss_blocks` blocks stacked."""
    return rng.concat_blocks(scenario.study.mc_budget,
                             loss_blocks(scenario, law, z_stream, a_stream),
                             threads)


def _joint_tail_asymptotic_model(model: RiskModel, x, t: float) -> float:
    """Closed-form approximation of P(Z_j > t x_j for all j)."""
    alpha, theta = model.margin.alpha, model.margin.theta
    d = model.d
    x = np.asarray(x, dtype=float)
    if t * x.min() <= model.margin.support_floor:
        raise DomainError("t too small: scaled thresholds below the margin floor")
    dep = model.dependence
    if isinstance(dep, Iid):
        return float(np.prod(theta * (t * x) ** -alpha))
    rect = RectSet(d, tuple(range(d)), tuple(x))
    if isinstance(dep, MarshallOlkin):
        variant = dep.rates.variant
        mu = mo_mu(variant, alpha, d, d, rect)
        return mu / float(mo_cone_spec(variant, alpha, theta, d, d).b_inv(t))
    return gaussian_tail_asymptotic(dep.sigma, alpha, theta, rect, t)


def _tail_asymptotic(scenario: Scenario, pair: tuple, x, t: float) -> float:
    """The closed form a tail point compares with: the model's joint tail,
    or the agent pair's conditional or joint tail.  A network joint tail
    needs t > 1 in every case, as the conditional one does."""
    model, (law, case) = scenario.model, pair
    if law is None:
        return _joint_tail_asymptotic_model(model, x, t)
    if scenario.study.target == "cond":
        return net.network_cond_prob(case, law, model, x, t).value
    if not t > 1.0:
        raise DomainError("t must exceed 1 for the decaying factor")
    mu2 = net.mu_bar_2_overlap(law, model, x) if case == net.CASE_OVERLAP \
        else net.disjoint_mu_bar_2(law, model, x)
    return mu2.value / float(net.network_b2_inv(case, model, law)(t))


def _tail_point(scenario: Scenario, pair: tuple, t: float, index: int,
                threads: int = 1) -> StudyRow:
    """Monte Carlo tail probability of one grid point next to its closed
    form.  The joint, marginal and per-batch joint hits are counted piece by
    piece over the loss kernel's walk (:func:`_walk`), each piece a row
    chunk finished to losses.  So a block holds one row chunk (and, for a
    random law, its packed edges and the rows its later redraw rounds
    settled).  Integer counts do not depend on the order of the pieces."""
    study, model, law = scenario.study, scenario.model, pair[0]
    x = _thresholds(study, model.d if law is None else 2)
    # the closed form may refuse its domain, so it comes before the draws
    asym = _tail_asymptotic(scenario, pair, x, t)
    n, cut = study.mc_budget, t * x
    z_stream = rng.STREAM_STUDY_BASE + 2 * index
    visit, finish = _walk(loss_blocks(scenario, law, z_stream, z_stream + 1))

    def counts(b, size):
        """[joint hits, marginal hits, joint hits per batch] of block b"""
        out = np.zeros(2 + N_BATCHES, dtype=np.int64)

        def take(rows, xs):
            xs = finish(xs)
            joint = xs[:, 0] > cut[0]
            for j in range(1, xs.shape[1]):
                joint &= xs[:, j] > cut[j]
            hit = np.flatnonzero(joint)
            out[0] += len(hit)
            if study.target == "cond":
                out[1] += np.count_nonzero(xs[:, 1] > cut[1])
            out[2:] += np.diff(np.searchsorted(
                hit, _batch_bounds(b * rng.BLOCK_SIZE, rows, n)))

        visit(b, size, take)
        return out

    total = rng.fold_blocks(n, counts, np.add,
                            np.zeros(2 + N_BATCHES, dtype=np.int64), threads)
    hits, m = int(total[0]), int(total[1])
    emp = hits / n
    se = _batch_stderr(total[2:], n // N_BATCHES)
    if study.target == "cond":
        emp = hits / m if m else math.nan
        se /= max(m / n, 1e-300)
    flag = "low-hits" if hits < MIN_HITS else ""
    return StudyRow(t, float(emp), se, float(asym), _ratio(emp, asym), flag)


def run_tail_study(scenario: Scenario, threads: int = 1) -> list:
    """Per grid point: Monte Carlo joint (or conditional) tail probability
    with batch-means standard error, next to the closed-form asymptotic."""
    if scenario.study is None:
        raise DomainError("scenario has no study section")
    if scenario.network is None and scenario.study.target == "cond":
        raise DomainError("conditional target needs a network scenario")
    if scenario.study.target == "covar":
        raise DomainError("covar target needs a covar study")
    return _run_points(_tail_point, scenario, threads)


def _run_points(point_fn, scenario: Scenario, threads: int) -> list:
    """``point_fn`` at every grid point, with the agent pair resolved once.
    Points run in parallel on at most ``threads`` threads, and no more than
    the usable cores; the threads left over (a grid shorter than
    ``threads``) go to each point's block fold."""
    pair = study_pair(scenario)
    points = list(enumerate(scenario.study.grid))
    threads = min(threads, rng._usable_cores())
    block_threads = max(1, threads // len(points))
    if threads > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(
                lambda it: point_fn(scenario, pair, it[1], it[0],
                                    block_threads), points))
    # in this thread: one-thread studies run on a pool peaked 5% higher in RSS
    return [point_fn(scenario, pair, gv, i, block_threads) for i, gv in points]


def _covar_level(scenario: Scenario, pair: tuple, gamma: float) -> float:
    """The CoVaR level upsilon * g(gamma) a covar study targets at gamma."""
    study, (law, case) = scenario.study, pair
    if law is None:
        _, g = covar_asymptotic_model(scenario.model, gamma, study.upsilon,
                                      beta=study.beta)
    else:
        g = net.network_g(case, scenario.model, law)
    if study.beta is not None and g != GSpec(study.beta):
        raise DomainError(f"beta {study.beta} does not apply: g here is {g}")
    return study.upsilon * g(gamma)


def _top_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` rows of ``rows`` with the largest column-1 (y2) values,
    ties cut anywhere, in any order; all rows when there are fewer."""
    cut = len(rows) - k
    if cut <= 0:
        return rows
    return rows[np.argpartition(rows[:, 1], cut)[cut:]]


class _TopRows:
    """Score rows of an ``n``-row sample that hold the rows with its ``k``
    largest y2 losses, ``finish(score)``, in one buffer behind a running
    floor.

    The floor is the k-th largest column-1 score added so far, less the
    SCORE_TOL band in which ``finish`` may misorder, so it only rises: a
    row below it has k rows that finish at or above it.  :meth:`add`
    admits the rows at or above the floor, and a full buffer is cut back,
    in place, to the rows at or above the new floor, so n rows cost O(n)
    time in all.  The buffer holds k rows and a slack of k/4, at least
    2^16 and at most k rows (and n rows in all): a large buffer touches
    less memory than 2k rows and is still cut only a few times.  A band of
    ties that fills it doubles it.
    """

    def __init__(self, k: int, n: int, finish=identity):
        self.k, self.finish, self.size = k, finish, 0
        self.rows = np.empty((min(n, k + min(k, max(k // 4, 1 << 16))), 2))
        self.floor = -math.inf

    def add(self, rows: np.ndarray) -> None:
        while True:
            if self.floor > -math.inf:
                rows = np.compress(rows[:, 1] >= self.floor, rows, axis=0)
            room = len(self.rows) - self.size
            fit = rows[:room]
            self.rows[self.size:self.size + len(fit)] = fit
            self.size += len(fit)
            if len(rows) <= room:
                return
            rows = rows[room:]
            self._cut()
            if self.size == len(self.rows):
                self.rows = np.concatenate([self.rows,
                                            np.empty_like(self.rows)])

    def _cut(self) -> None:
        """Raise the floor to the k-th largest score, less its band, and
        keep the rows at or above it."""
        s = self.rows[:self.size, 1]
        thr = np.partition(s, self.size - self.k)[self.size - self.k]
        self.floor = thr - SCORE_TOL * max(1.0, abs(thr))
        self._keep(s >= self.floor)

    def _keep(self, mask: np.ndarray) -> None:
        """Keep the buffered rows where ``mask`` is set, moved down chunk by
        chunk: no row is written before it is read."""
        size = 0
        for lo, hi in rng.row_chunks(len(mask), 2):
            part = np.compress(mask[lo:hi], self.rows[lo:hi], axis=0)
            self.rows[size:size + len(part)] = part
            size += len(part)
        self.size = size

    def columns(self) -> tuple:
        """(y1, y2) losses of the kept rows with y2 at or above the k-th
        largest (the top k and the rows tied with the smallest of them), or
        of all of them when there are at most k.  The rows at or above the
        final floor are finished here, once, in row chunks within the
        buffer; the columns are copied out and the buffer let go."""
        if self.size > self.k:
            self._cut()
        rows = self.rows[:self.size]
        for lo, hi in rng.row_chunks(self.size, 2):
            rows[lo:hi] = self.finish(rows[lo:hi])
        cut = self.size - self.k
        if cut > 0:
            self._keep(rows[:, 1] >= np.partition(rows[:, 1], cut)[cut])
        rows, self.rows = self.rows[:self.size], None
        return rows[:, 0].copy(), rows[:, 1].copy()


def top_loss_rows(scenario: Scenario, law, gamma: float,
                  z_stream: int = rng.STREAM_RISK,
                  a_stream: int = rng.STREAM_ADJACENCY,
                  threads: int = 1) -> list:
    """(y1, y2) of the rows of the :func:`draw_losses` sample with its
    ``var_top_count(n, gamma)`` largest y2 values, then of each of its
    N_BATCHES batches (``var_top_count(n // N_BATCHES, gamma)`` rows
    each).  They hold the VaR of y2 at gamma and every row above it, so
    CoVaR at gamma, or at any smaller level, on them equals the
    whole-sample computation, with memory O(n gamma).  Each piece of the
    loss kernel's walk (:func:`_walk`) goes to one :class:`_TopRows` per
    target, the sample's and its batch's, which admit rows on the score
    (the latent normal of a Gaussian copula) and finish only the rows they
    keep, once, at the end.  Blocks on several threads add under a lock;
    which rows tied at a VaR are kept does not change a CoVaR."""
    n = scenario.study.mc_budget
    per = n // N_BATCHES
    visit, finish = _walk(loss_blocks(scenario, law, z_stream, a_stream))
    kept = [_TopRows(var_top_count(n, gamma), n, finish)] + [
        _TopRows(var_top_count(per, gamma), per, finish)
        for _ in range(N_BATCHES)]
    lock = threading.Lock()

    def walk(b, size):
        def take(rows, xs):
            with lock:
                kept[0].add(xs)
                for batch, lo, hi in _batch_pieces(b * rng.BLOCK_SIZE, rows,
                                                   n):
                    kept[1 + batch].add(xs[lo:hi])

        visit(b, size, take)

    rng.fold_blocks(n, walk, lambda acc, _: acc, None, threads)
    return [rows.columns() for rows in kept]


def _covar_point(scenario: Scenario, pair: tuple, gamma: float, index: int,
                 threads: int = 1) -> StudyRow:
    """Empirical CoVaR of the point's sample and of each of its batches,
    from the :func:`top_loss_rows` of the sample and of each batch."""
    study, (law, case) = scenario.study, pair
    if law is None:
        value, _ = covar_asymptotic_model(scenario.model, gamma,
                                          study.upsilon, beta=study.beta)
        branches = [("", value)]
    else:
        asym = net.network_covar(case, law, scenario.model, gamma,
                                 study.upsilon)
        branches = [("", asym.low_upsilon.value)]
        if asym.high_upsilon is not None:
            branches = [("branch:low-upsilon", asym.low_upsilon.value),
                        ("branch:high-upsilon", asym.high_upsilon.value)]
    level = _covar_level(scenario, pair, gamma)
    n, z_stream = study.mc_budget, rng.STREAM_STUDY_BASE + 2 * index
    (y1, y2), *batches = top_loss_rows(scenario, law, gamma, z_stream,
                                       z_stream + 1, threads)
    try:
        emp = covar_empirical(y1, y2, level, gamma, n=n)
        flag = ""
    except ReliabilityError as exc:
        emp, flag = math.nan, f"low-hits:{exc.count}"
    se = _covar_batch_stderr(batches, n // N_BATCHES, level, gamma)
    if len(branches) > 1 and math.isfinite(emp) and emp > 0:
        dists = sorted((abs(math.log(emp / val)), tag, val)
                       for tag, val in branches)
        _, tag, asym_val = dists[0]
        # between the two branch cutoffs neither formula is established;
        # flag the row when the estimate does not clearly prefer one
        if dists[1][0] - dists[0][0] < 0.1:
            tag = "branch:ambiguous"
        flag = (flag + ";" if flag else "") + tag
    else:
        tag, asym_val = branches[0]
        if len(branches) > 1:
            flag = (flag + ";" if flag else "") + "branch:undecided"
    return StudyRow(gamma, emp, se, asym_val, _ratio(emp, asym_val), flag)


def _covar_batch_stderr(batches, per, level, gamma) -> float:
    """Batch-means standard error from each batch's (y1, y2) top rows."""
    vals = []
    for y1, y2 in batches:
        try:
            vals.append(covar_empirical(y1, y2, level, gamma,
                                        min_exceed=2, n=per))
        except (ReliabilityError, DomainError):
            continue
    if len(vals) < 2:
        return float("nan")
    return float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


def run_covar_study(scenario: Scenario, threads: int = 1) -> list:
    """Per gamma grid point: empirical CoVaR at level upsilon * g(gamma) with
    batch-means standard error, next to the closed-form asymptotic.  When a
    low/high-upsilon branch pair exists, the row reports the branch the
    Monte Carlo estimate matches."""
    if scenario.study is None:
        raise DomainError("scenario has no study section")
    if scenario.network is None and scenario.model.d != 2:
        raise DomainError("covar study needs a bivariate model or a network")
    return _run_points(_covar_point, scenario, threads)


def brute_force_qp(sigma, grid_step: float = 0.1):
    """Independent minimizer of z' Sigma^{-1} z over z >= 1: coarse grid scan
    of [1, 3]^d refined by bounded quasi-Newton descent (the objective is
    strictly convex, so the refined minimum is global).  Test oracle only,
    d <= 5; ``scipy.optimize`` is loaded on the first call."""
    from scipy.optimize import minimize

    m = np.asarray(sigma.entries if hasattr(sigma, "entries") else sigma,
                   dtype=float)
    d = m.shape[0]
    if d > 5:
        raise DomainError("brute-force oracle is capped at d = 5")
    prec = np.linalg.inv(m)
    axes = [np.arange(1.0, 3.0 + grid_step / 2, grid_step)] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    vals = np.einsum("ni,ij,nj->n", mesh, prec, mesh)
    best = mesh[int(np.argmin(vals))]

    def f(z):
        return float(z @ prec @ z)

    def grad(z):
        return 2.0 * prec @ z

    opts = {"ftol": 1e-16, "gtol": 1e-12, "maxiter": 500}
    res = minimize(f, best, jac=grad, method="L-BFGS-B",
                   bounds=[(1.0, None)] * d, options=opts)
    res2 = minimize(f, np.ones(d), jac=grad, method="L-BFGS-B",
                    bounds=[(1.0, None)] * d, options=opts)
    pick = res if res.fun <= res2.fun else res2
    return float(pick.fun), np.asarray(pick.x)


def _rows_csv(lead: str, rows, leading) -> str:
    """The study CSV: the ``lead`` columns, filled by ``leading(row)``, then
    each row's statistics.  Floats print by repr, an absent ratio empty."""
    out = [f"{lead},empirical,stderr,asymptotic,ratio,flag"]
    for r in rows:
        ratio = "" if r.ratio is None else repr(float(r.ratio))
        nums = leading(r) + [r.empirical, r.stderr, r.asymptotic]
        out.append(",".join([repr(float(v)) for v in nums] + [ratio, r.flag]))
    return "\n".join(out) + "\n"


def rows_to_csv(rows) -> str:
    return _rows_csv("grid", rows, lambda r: [r.grid_value])


def covar_rows_to_csv(rows, scenario: Scenario) -> str:
    pair = study_pair(scenario)
    return _rows_csv("gamma,level", rows, lambda r: [
        r.grid_value, _covar_level(scenario, pair, r.grid_value)])


def study_to_json(scenario: Scenario, rows, kind: str) -> str:
    doc = {
        "kind": kind,
        "scenario": scenario.raw,
        "rows": [{"grid": r.grid_value, "empirical": r.empirical,
                  "stderr": r.stderr, "asymptotic": r.asymptotic,
                  "ratio": r.ratio, "flag": r.flag} for r in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"
