"""Reference study points that materialise the whole sample.

:func:`tail_point` and :func:`covar_point` are the grid-point bodies that
:func:`tailnet.harness._tail_point` and :func:`tailnet.harness._covar_point`
replace: they draw all ``mc_budget`` losses through ``draw`` (by default
:func:`tailnet.harness.draw_losses`) and compute the statistics on the whole
arrays.  The block folds must return the same row bytes.  Test helpers only.
"""

import math

import numpy as np

from tailnet import network as net
from tailnet import rng
from tailnet.covar import covar_asymptotic_model, covar_empirical
from tailnet.errors import DomainError, ReliabilityError
from tailnet.harness import (MIN_HITS, N_BATCHES, StudyRow, _covar_level,
                             _joint_tail_asymptotic_model, _ratio,
                             _thresholds, draw_losses)


def _batch_stderr(hits: np.ndarray) -> float:
    n = hits.size
    per = n // N_BATCHES
    if per == 0:
        return float("nan")
    means = hits[:per * N_BATCHES].reshape(N_BATCHES, per).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(N_BATCHES))


def tail_point(scenario, pair, t, index, draw=draw_losses) -> StudyRow:
    study, model = scenario.study, scenario.model
    law, case = pair
    x = _thresholds(study, model.d if law is None else 2)
    z_stream = rng.STREAM_STUDY_BASE + 2 * index
    xs = draw(scenario, law, z_stream, z_stream + 1)
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


def covar_point(scenario, pair, gamma, index, draw=draw_losses) -> StudyRow:
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
    xs = draw(scenario, law, z_stream, z_stream + 1)
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
        if dists[1][0] - dists[0][0] < 0.1:
            tag = "branch:ambiguous"
        flag = (flag + ";" if flag else "") + tag
    else:
        tag, asym_val = branches[0]
        if len(branches) > 1:
            flag = (flag + ";" if flag else "") + "branch:undecided"
    return StudyRow(gamma, emp, se, asym_val, _ratio(emp, asym_val), flag)
