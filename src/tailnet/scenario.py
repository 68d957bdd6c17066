"""Scenario files: one JSON document describes the margin, the dependence
family, an optional network, and optional study parameters, so every run is
reproducible from a single artifact.

Validation errors name the offending field, or the section of a bad value.
A number, a list or matrix entry too, must be a finite JSON number, and a
count, dimension, seed or agent index an integral one.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from .copula import CorrelationMatrix, RiskModel
from .errors import ModelError, ScenarioError, TailnetError
from .network import AdjacencyMatrix, BipartiteNetwork, WeightSpec, law_shape


@dataclass(frozen=True)
class StudyParams:
    grid: tuple
    mc_budget: int
    seed: int
    target: str = "joint"          # "joint" | "cond" | "covar"
    upsilon: float = 0.5
    beta: Optional[float] = None   # level-function decay for covar targets
    thresholds: tuple = (1.0,)     # broadcast when a single value is given
    agents: tuple = (0, 1)         # 0-based agent pair for network runs


@dataclass(frozen=True)
class Scenario:
    model: RiskModel
    network: Optional[object]      # AdjacencyMatrix | BipartiteNetwork | None
    study: Optional[StudyParams]
    raw: dict = field(repr=False, default_factory=dict)


@contextmanager
def _section(path: str):
    """Report a value of the wrong type or shape, or a ModelError from the
    objects the section builds, as a ScenarioError under the section."""
    try:
        yield
    except ModelError as exc:
        raise ScenarioError(path, str(exc)) from exc
    except TailnetError:
        raise
    except (TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ScenarioError(path, f"malformed value ({exc})") from exc


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing field")
    return doc[key]


def _number(doc, key, path, lo=None, integral=False):
    """``doc[key]`` as a float, or an int when ``integral``.  A value that is
    not a finite JSON number, or not a whole one when ``integral``, raises
    ValueError for :func:`_section` to report; one at or below ``lo`` is
    refused under its field."""
    val = _need(doc, key, path)
    if not isinstance(val, (int, float)) or isinstance(val, bool) \
            or not math.isfinite(val) or integral and val != int(val):
        raise ValueError(f"{path}.{key} = {val!r} is not a finite "
                         + ("integer" if integral else "number"))
    if lo is not None and val <= lo:
        raise ScenarioError(f"{path}.{key}", f"must be > {lo}")
    return int(val) if integral else float(val)


def _numbers(doc, key, path):
    """``doc[key]``, a number or nested lists of numbers, with every number
    read by :func:`_number` (list entries as a document keyed by index)."""
    val = _need(doc, key, path)
    if not isinstance(val, list):
        return _number(doc, key, path)
    xs = dict(enumerate(val))
    return [_numbers(xs, i, f"{path}.{key}") for i in xs]


def _parse_dependence(dep: dict, alpha: float, theta: float) -> RiskModel:
    kind = _need(dep, "kind", "dependence")
    if kind == "iid":
        d = _number(dep, "d", "dependence", lo=0, integral=True)
        return RiskModel.iid(d, alpha, theta)
    if kind == "gaussian":
        sigma = CorrelationMatrix(_numbers(dep, "sigma", "dependence"))
        return RiskModel.gaussian(sigma, alpha, theta)
    if kind == "mo":
        d = _number(dep, "d", "dependence", lo=0, integral=True)
        variant = _need(dep, "mo_variant", "dependence")
        rates = None
        if variant == "general":
            raw = _need(dep, "rates", "dependence")
            rates = {}
            for key, val in raw.items():
                coords = frozenset(int(c) - 1 for c in key.split(","))
                rates[coords] = _number(raw, key, "dependence.rates")
        return RiskModel.marshall_olkin(d, variant, alpha, theta, rates)
    raise ScenarioError("dependence.kind", f"unknown kind {kind!r}")


def _parse_network(net: dict, d_model: int):
    if "matrix" in net:
        try:
            mat = AdjacencyMatrix(_numbers(net, "matrix", "network"))
        except ModelError as exc:
            raise ScenarioError("network.matrix", str(exc)) from exc
        if mat.entries.shape[1] != d_model:
            raise ScenarioError("network.matrix",
                                f"needs {d_model} columns to match the model")
        return mat
    q = _number(net, "q", "network", lo=0, integral=True)
    d = _number(net, "d", "network", lo=0, integral=True)
    if d != d_model:
        raise ScenarioError("network.d", f"must equal the model dimension {d_model}")
    wraw = _need(net, "weights", "network")
    weights = WeightSpec(_need(wraw, "kind", "network.weights"),
                         _number(wraw, "lo", "network.weights"),
                         _number(wraw, "hi", "network.weights"))
    return BipartiteNetwork(q, d, _numbers(net, "edge_prob", "network"),
                            weights)


DEFAULT_T_GRID = (10.0, 100.0, 1000.0, 10000.0)
DEFAULT_GAMMA_GRID = (1e-2, 1e-3, 1e-4)


def _parse_study(study: dict) -> StudyParams:
    target = study.get("target", "joint")
    grid = study.get("grid")
    if grid is None:
        grid = list(DEFAULT_GAMMA_GRID if target == "covar"
                    else DEFAULT_T_GRID)
    if not isinstance(grid, list) or len(grid) < 1:
        raise ScenarioError("study.grid", "must be a nonempty list of numbers")
    xs = dict(enumerate(grid))
    vals = tuple(_number(xs, i, "study.grid") for i in xs)
    inc = all(a < b for a, b in zip(vals, vals[1:]))
    dec = all(a > b for a, b in zip(vals, vals[1:]))
    if not (inc or dec):
        raise ScenarioError("study.grid", "must be strictly monotone")
    budget = _number(study, "mc_budget", "study", lo=0, integral=True)
    if budget < 10_000:
        raise ScenarioError("study.mc_budget", "must be at least 10000")
    seed = _number(study, "seed", "study", lo=-1, integral=True)
    if target not in ("joint", "cond", "covar"):
        raise ScenarioError("study.target", f"unknown target {target!r}")
    upsilon = _number(study, "upsilon", "study", lo=0) \
        if "upsilon" in study else 0.5
    beta = study.get("beta")
    if beta is not None:
        beta = _number(study, "beta", "study")
        if not beta >= 0:
            raise ScenarioError("study.beta", "must be >= 0")
    # list entries are read as a document keyed by index
    xs = dict(enumerate(study.get("thresholds", [1.0])))
    thresholds = tuple(_number(xs, i, "study.thresholds", lo=0) for i in xs)
    xs = dict(enumerate(study.get("agents", [1, 2])))
    agents = tuple(_number(xs, i, "study.agents", integral=True) - 1 for i in xs)
    if len(agents) != 2 or agents[0] == agents[1] or min(agents) < 0:
        raise ScenarioError("study.agents", "must name two distinct agents (1-based)")
    return StudyParams(vals, budget, seed, target, upsilon, beta,
                       thresholds, agents)


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("", "scenario must be a JSON object")
    with _section("margin"):
        margin = _need(doc, "margin", "")
        alpha = _number(margin, "alpha", "margin", lo=0.0)
        theta = _number(margin, "theta", "margin", lo=0.0)
    with _section("dependence"):
        model = _parse_dependence(_need(doc, "dependence", ""), alpha, theta)
    network = None
    if doc.get("network") is not None:
        with _section("network"):
            network = _parse_network(doc["network"], model.d)
    study = None
    if doc.get("study") is not None:
        with _section("study"):
            study = _parse_study(doc["study"])
        if network is not None:
            q = law_shape(network)[0]
            if max(study.agents) >= q:
                raise ScenarioError("study.agents", f"agent index exceeds q = {q}")
    return Scenario(model, network, study, raw=doc)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(path, f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(path, f"invalid JSON: {exc}") from exc
    return parse_scenario(doc)
