"""Experiment runner: convergence studies comparing Monte Carlo estimates
against the closed-form asymptotics, plus the brute-force oracle for the
quadratic program.

Reproducibility contract: a study is a pure function of its scenario.  Each grid
point owns a derived stream (STREAM_STUDY_BASE + 2 * index for the risk
vectors, + 2 * index + 1 for adjacency draws), samples are drawn in
fixed-size counter blocks, and rows are emitted in grid order, so the CSV
bytes do not depend on the thread count.

A point never holds its whole sample: it folds its statistics over the loss
blocks in block order (:func:`_fold_point`), from per-block counts for tail
probabilities and per-block top rows for CoVaR, and gets the same bytes as
the statistics of the whole sample.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from . import network as net
from . import rng
# ``sample`` stays importable here: bench/tracing.py wraps harness.sample
from .copula import (Iid, MarshallOlkin, RiskModel, block_sampler,  # noqa: F401
                     sample)
from .covar import covar_asymptotic_model, covar_empirical, var_top_count
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


def _batch_cuts(lo: int, size: int, n: int):
    """``(batch, start, stop)``: the pieces of rows ``[lo, lo + size)`` of an
    ``n``-row sample in each of its N_BATCHES consecutive batches of
    ``n // N_BATCHES`` rows, as offsets into the block.  Rows past the last
    batch belong to none."""
    per = n // N_BATCHES
    stop = min(lo + size, per * N_BATCHES)
    row = lo
    while row < stop:
        batch = row // per
        end = min((batch + 1) * per, stop)
        yield batch, row - lo, end - lo
        row = end


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
    vectors when ``law`` is None."""
    seed = scenario.study.seed
    if law is None:
        return rng.seeded(seed, z_stream, block_sampler(scenario.model))
    return net.loss_sampler(law, scenario.model, seed, z_stream, a_stream)


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
    dep = model.dependence
    if isinstance(dep, Iid):
        return float(np.prod(theta * (t * x) ** -alpha))
    rect = RectSet(d, tuple(range(d)), tuple(x))
    if isinstance(dep, MarshallOlkin):
        variant = dep.rates.variant
        mu = mo_mu(variant, alpha, d, d, rect)
        return mu / float(mo_cone_spec(variant, alpha, theta, d, d).b_inv(t))
    return gaussian_tail_asymptotic(dep.sigma, alpha, theta, rect, t)


def _fold_point(scenario: Scenario, law, index: int, stats, combine, init,
                threads: int):
    """Fold ``stats(lo, losses)`` of grid point ``index``'s loss blocks (rows
    ``lo`` onwards of its sample) in block order."""
    z_stream = rng.STREAM_STUDY_BASE + 2 * index
    draw = loss_blocks(scenario, law, z_stream, z_stream + 1)
    return rng.fold_blocks(
        scenario.study.mc_budget,
        lambda b, size: stats(b * rng.BLOCK_SIZE, draw(b, size)),
        combine, init, threads=threads, block_size=rng.BLOCK_SIZE)


def _tail_point(scenario: Scenario, pair: tuple, t: float, index: int,
                threads: int = 1) -> StudyRow:
    study, model = scenario.study, scenario.model
    law, case = pair
    x = _thresholds(study, model.d if law is None else 2)
    n, cut = study.mc_budget, t * x

    def counts(lo, xs):
        """[joint hits, marginal hits, joint hits per batch]"""
        joint = np.all(xs > cut, axis=1)
        out = np.zeros(2 + N_BATCHES, dtype=np.int64)
        out[0] = np.count_nonzero(joint)
        if study.target == "cond":
            out[1] = np.count_nonzero(xs[:, 1] > cut[1])
        for batch, start, stop in _batch_cuts(lo, len(xs), n):
            out[2 + batch] = np.count_nonzero(joint[start:stop])
        return out

    total = _fold_point(scenario, law, index, counts, np.add,
                        np.zeros(2 + N_BATCHES, dtype=np.int64), threads)
    hits, m = int(total[0]), int(total[1])
    emp = hits / n
    se = _batch_stderr(total[2:], n // N_BATCHES)
    if study.target == "cond":
        emp = hits / m if m else math.nan
        se /= max(m / n, 1e-300)
    if law is None:
        asym = _joint_tail_asymptotic_model(model, x, t)
    elif study.target == "cond":
        asym = net.network_cond_prob(case, law, model, x, t).value
    else:
        mu2 = (net.mu_bar_2_overlap(law, model, x)
               if case == net.CASE_OVERLAP
               else net.disjoint_mu_bar_2(law, model, x))
        asym = mu2.value / float(net.network_b2_inv(case, model, law)(t))
    flag = "low-hits" if hits < MIN_HITS else ""
    return StudyRow(t, float(emp), se, float(asym), _ratio(emp, asym), flag)


def run_tail_study(scenario: Scenario, threads: int = 1) -> list:
    """Per grid point: Monte Carlo joint (or conditional) tail probability
    with batch-means standard error, next to the closed-form asymptotic."""
    if scenario.study is None:
        raise DomainError("scenario has no study section")
    if scenario.network is None and scenario.study.target == "cond":
        raise DomainError("conditional target needs a network scenario")
    return _run_points(_tail_point, scenario, threads)


def _run_points(point_fn, scenario: Scenario, threads: int) -> list:
    """``point_fn`` at every grid point, with the agent pair resolved once.
    Points run in parallel; the threads left over (a grid shorter than
    ``threads``) go to each point's block fold."""
    pair = study_pair(scenario)
    points = list(enumerate(scenario.study.grid))
    block_threads = max(1, threads // len(points))
    if threads > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(
                lambda it: point_fn(scenario, pair, it[1], it[0],
                                    block_threads), points))
    return [point_fn(scenario, pair, gv, i, block_threads) for i, gv in points]


def _covar_level(scenario: Scenario, pair: tuple, gamma: float) -> float:
    """The CoVaR level upsilon * g(gamma) a covar study targets at gamma."""
    study, (law, case) = scenario.study, pair
    if law is None:
        _, g = covar_asymptotic_model(scenario.model, gamma, study.upsilon,
                                      beta=study.beta)
    else:
        g = net.network_g(case, scenario.model, law)
    return study.upsilon * g(gamma)


def _top_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` rows of ``rows`` with the largest column-1 (y2) values,
    ties cut anywhere, in any order; all rows when there are fewer."""
    cut = len(rows) - k
    if cut <= 0:
        return rows
    return rows[np.argpartition(rows[:, 1], cut)[cut:]]


class _TopRows:
    """The rows with the ``k`` largest y2 values among the rows added so far
    from an ``n``-row sample, held as (y1, y2) columns.

    Rows are buffered up to 2k (or n) and cut back to the top k when the
    buffer is full, so n rows cost O(n) time in all and the buffer O(k)
    memory.  After a cut, a row whose y2 is at or below the smallest kept
    y2 can only tie with the final smallest value, whose rows CoVaR does not
    use (it conditions on y2 strictly above it), so such rows are dropped
    on arrival.  Added parts hold at most k rows.
    """

    def __init__(self, k: int, n: int):
        self.k, self.n, self.cap = k, n, min(2 * k, n)
        self.y1 = self.y2 = None
        self.size, self.floor = 0, -math.inf

    def add(self, rows: np.ndarray) -> None:
        if self.y1 is None:
            self.y1, self.y2 = np.empty(self.cap), np.empty(self.cap)
        elif self.floor > -math.inf:
            rows = rows[rows[:, 1] > self.floor]
        if self.size + len(rows) > self.cap:
            cut = self.size - self.k
            keep = np.argpartition(self.y2[:self.size], cut)[cut:]
            for col in (self.y1, self.y2):
                col[:self.k] = col[keep]
            self.size = self.k
            self.floor = float(self.y2[:self.k].min())
        stop = self.size + len(rows)
        self.y1[self.size:stop], self.y2[self.size:stop] = rows[:, 0], rows[:, 1]
        self.size = stop

    def columns(self) -> tuple:
        """(y1, y2) of the whole sample when every row was kept; else of the
        kept rows with y2 at or above the k-th largest (the top k and the
        rows tied with the smallest of them)."""
        if self.y1 is None:
            return np.empty(0), np.empty(0)
        y1, y2 = self.y1[:self.size], self.y2[:self.size]
        cut = self.size - self.k
        if cut <= 0 or self.size == self.n:
            return y1, y2
        top = y2 >= np.partition(y2, cut)[cut]
        return y1[top], y2[top]


def _covar_point(scenario: Scenario, pair: tuple, gamma: float, index: int,
                 threads: int = 1) -> StudyRow:
    """Empirical CoVaR of the point's sample and of each of its batches,
    from the rows with the largest y2 values: the ``var_top_count`` of the
    sample and of each batch, merged over the blocks.  They hold the
    conditioning VaR and every row above it, so the result equals the
    whole-sample computation, with memory O(n gamma) for the kept rows."""
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
    n = study.mc_budget
    per = n // N_BATCHES
    k_all, k_batch = var_top_count(n, gamma), var_top_count(per, gamma)

    # from gamma ~ 1/2 on, the kept rows are the whole sample in row order,
    # and the batches are its slices
    whole = 2 * k_all >= n

    def tops(lo, xs):
        if whole:
            return xs, []
        return (_top_rows(xs, k_all),
                [(batch, _top_rows(xs[start:stop], k_batch))
                 for batch, start, stop in _batch_cuts(lo, len(xs), n)])

    def merge(acc, part):
        kept, batches = acc
        kept.add(part[0])
        for batch, rows in part[1]:
            batches[batch].add(rows)
        return acc

    kept, batches = _fold_point(
        scenario, law, index, tops, merge,
        (_TopRows(k_all, n), [_TopRows(k_batch, per) for _ in range(N_BATCHES)]),
        threads)
    y1, y2 = kept.columns()
    try:
        emp = covar_empirical(y1, y2, level, gamma, n=n)
        flag = ""
    except ReliabilityError as exc:
        emp, flag = math.nan, f"low-hits:{exc.count}"
    if whole:
        batches = [(y1[b * per:(b + 1) * per], y2[b * per:(b + 1) * per])
                   for b in range(N_BATCHES)]
    else:
        batches = [rows.columns() for rows in batches]
    se = _covar_batch_stderr(batches, per, level, gamma)
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


def brute_force_qp(sigma, grid_step: float = 0.1, zmax: float = 3.0):
    """Independent minimizer of z' Sigma^{-1} z over z >= 1: coarse grid scan
    refined by bounded quasi-Newton descent (the objective is strictly
    convex, so the refined minimum is global).  Test oracle only, d <= 5."""
    m = np.asarray(sigma.entries if hasattr(sigma, "entries") else sigma,
                   dtype=float)
    d = m.shape[0]
    if d > 5:
        raise DomainError("brute-force oracle is capped at d = 5")
    prec = np.linalg.inv(m)
    axes = [np.arange(1.0, zmax + grid_step / 2, grid_step)] * d
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


def rows_to_csv(rows) -> str:
    out = ["grid,empirical,stderr,asymptotic,ratio,flag"]
    for r in rows:
        ratio = "" if r.ratio is None else repr(float(r.ratio))
        out.append(",".join([repr(float(r.grid_value)), repr(float(r.empirical)),
                             repr(float(r.stderr)), repr(float(r.asymptotic)),
                             ratio, r.flag]))
    return "\n".join(out) + "\n"


def covar_rows_to_csv(rows, scenario: Scenario) -> str:
    pair = study_pair(scenario)
    out = ["gamma,level,empirical,stderr,asymptotic,ratio,flag"]
    for r in rows:
        level = repr(float(_covar_level(scenario, pair, r.grid_value)))
        ratio = "" if r.ratio is None else repr(float(r.ratio))
        out.append(",".join([repr(float(r.grid_value)), level,
                             repr(float(r.empirical)), repr(float(r.stderr)),
                             repr(float(r.asymptotic)), ratio, r.flag]))
    return "\n".join(out) + "\n"


def study_to_json(scenario: Scenario, rows, kind: str) -> str:
    doc = {
        "kind": kind,
        "scenario": scenario.raw,
        "rows": [{"grid": r.grid_value, "empirical": r.empirical,
                  "stderr": r.stderr, "asymptotic": r.asymptotic,
                  "ratio": r.ratio, "flag": r.flag} for r in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"
