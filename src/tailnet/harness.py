"""Experiment runner: convergence studies comparing Monte Carlo estimates
against the closed-form asymptotics, plus the brute-force oracle for the
quadratic program.

Reproducibility contract: a study is a pure function of its scenario.  Each grid
point owns a derived stream (STREAM_STUDY_BASE + 2 * index for the risk
vectors, + 2 * index + 1 for adjacency draws), samples are assembled in
fixed-size counter blocks, and rows are emitted in grid order, so the CSV
bytes do not depend on the thread count.
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
from .copula import Iid, MarshallOlkin, RiskModel, sample
from .covar import covar_asymptotic_model, covar_empirical
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


def _batch_stderr(hits: np.ndarray) -> float:
    """Batch-means standard error of a hit vector over N_BATCHES batches."""
    n = hits.size
    per = n // N_BATCHES
    if per == 0:
        return float("nan")
    means = hits[:per * N_BATCHES].reshape(N_BATCHES, per).mean(axis=1)
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


def draw_losses(scenario: Scenario, law, z_stream: int = rng.STREAM_RISK,
                a_stream: int = rng.STREAM_ADJACENCY,
                threads: int = 1) -> np.ndarray:
    """The study's ``mc_budget`` loss draws: the (n, 2) agent losses of the
    pair law ``law``, or the (n, d) risk vectors when ``law`` is None."""
    study = scenario.study
    if law is None:
        return sample(scenario.model, study.mc_budget, study.seed,
                      threads=threads, stream=z_stream)
    return net.sample_losses(law, scenario.model, study.mc_budget, study.seed,
                             threads=threads, z_stream=z_stream,
                             a_stream=a_stream)


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


def _tail_point(scenario: Scenario, pair: tuple, t: float,
                index: int) -> StudyRow:
    study, model = scenario.study, scenario.model
    law, case = pair
    x = _thresholds(study, model.d if law is None else 2)
    z_stream = rng.STREAM_STUDY_BASE + 2 * index
    xs = draw_losses(scenario, law, z_stream, z_stream + 1)
    joint = np.all(xs > t * x, axis=1)
    hits = int(joint.sum())
    emp = float(joint.mean())
    se = _batch_stderr(joint.astype(float))
    if study.target == "cond":
        marg = xs[:, 1] > t * x[1]
        m = int(marg.sum())
        emp = hits / m if m else math.nan
        se /= max(marg.mean(), 1e-300)
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
    """``point_fn`` at every grid point, with the agent pair resolved once."""
    pair = study_pair(scenario)
    points = list(enumerate(scenario.study.grid))
    if threads > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(
                lambda it: point_fn(scenario, pair, it[1], it[0]), points))
    return [point_fn(scenario, pair, gv, i) for i, gv in points]


def _covar_level(scenario: Scenario, pair: tuple, gamma: float) -> float:
    """The CoVaR level upsilon * g(gamma) a covar study targets at gamma."""
    study, (law, case) = scenario.study, pair
    if law is None:
        _, g = covar_asymptotic_model(scenario.model, gamma, study.upsilon,
                                      beta=study.beta)
    else:
        g = net.network_g(case, scenario.model, law)
    return study.upsilon * g(gamma)


def _covar_point(scenario: Scenario, pair: tuple, gamma: float,
                 index: int) -> StudyRow:
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
    z_stream = rng.STREAM_STUDY_BASE + 2 * index
    xs = draw_losses(scenario, law, z_stream, z_stream + 1)
    y1, y2 = xs[:, 0], xs[:, 1]
    try:
        emp = covar_empirical(y1, y2, level, gamma)
        flag = ""
    except ReliabilityError as exc:
        emp, flag = math.nan, f"low-hits:{exc.count}"
    se = _covar_batch_stderr(y1, y2, level, gamma)
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


def _covar_batch_stderr(y1, y2, level, gamma) -> float:
    per = y1.size // N_BATCHES
    vals = []
    for b in range(N_BATCHES):
        sl = slice(b * per, (b + 1) * per)
        try:
            vals.append(covar_empirical(y1[sl], y2[sl], level, gamma,
                                        min_exceed=2))
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
