"""``one_vs_max`` as pairwise operations on the row-max law agrees with the
case-by-case reference in ``network_oracle`` on every report field, across
the five cases, deterministic, random and aggregated laws, and several k."""

import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

import tailnet as tn
from tailnet.errors import DomainError, ModelError

import network_oracle

REL = 1e-12
N_A = 20_000
UNIFORM = tn.WeightSpec("uniform", 0.5, 1.5)
SIGMA = np.array([[1.0, 0.2, 0.5, 0.1],
                  [0.2, 1.0, 0.3, 0.4],
                  [0.5, 0.3, 1.0, 0.25],
                  [0.1, 0.4, 0.25, 1.0]])

MODELS = {
    "iid": tn.RiskModel.iid(4, 1.3),
    "mo-equal": tn.RiskModel.marshall_olkin(4, "equal", 0.7),
    "mo-proportional": tn.RiskModel.marshall_olkin(4, "proportional", 2.0, 0.5),
    "gaussian": tn.RiskModel.gaussian(SIGMA, 1.1),
}
GENERAL_RATES = {frozenset(s): 1.0 for size in range(1, 5)
                 for s in combinations(range(4), size)}

# agent 0 holds assets no other agent can hold; agents 1 and 2 share one
DISJOINT_FIRST = np.array([[0.7, 0.7, 0.0, 0.0],
                           [0.0, 0.0, 0.7, 0.7],
                           [0.0, 0.0, 0.5, 0.9]])


def make_law(kind):
    """A fresh law object, so the reference draws its own moments."""
    if kind == "matrix":
        return np.array([[1.0, 2.0, 0.0, 0.0],
                         [0.0, 0.0, 0.5, 1.5],
                         [0.0, 0.0, 3.0, 0.0]])
    if kind == "random":
        return tn.BipartiteNetwork(3, 4, DISJOINT_FIRST, UNIFORM)
    if kind == "random-q4":
        p = np.array([[0.6, 0.0, 0.0, 0.0], [0.0, 0.8, 0.0, 0.3],
                      [0.0, 0.4, 0.9, 0.0], [0.0, 0.0, 0.5, 0.5]])
        return tn.BipartiteNetwork(4, 4, p, tn.WeightSpec("point", 2.0, 2.0))
    if kind == "aggregate":
        p = np.array([[0.6, 0.6, 0.0, 0.0], [0.3, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.8, 0.0], [0.0, 0.0, 0.4, 0.4]])
        return tn.aggregate(tn.BipartiteNetwork(4, 4, p, UNIFORM), [0, 1],
                            [2, 3])
    raise ValueError(kind)


AGENTS = {"matrix": (0, 1, 2), "random": (0, 1, 2), "random-q4": (0, 3),
          "aggregate": (0, 1)}


def assert_close(got, want, path="report"):
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), path
        for f in dataclasses.fields(want):
            assert_close(getattr(got, f.name), getattr(want, f.name),
                         f"{path}.{f.name}")
    elif isinstance(want, float) and not math.isinf(want):
        assert got == pytest.approx(want, rel=REL, abs=0.0), path
    else:
        assert got == want, path


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("kind", list(AGENTS))
def test_matches_reference(kind, model):
    m = MODELS[model]
    for k in AGENTS[kind]:
        args = (m, k, (1.3, 0.8))
        kw = dict(t=50.0, gamma=1e-3, upsilon=0.7, n_a=N_A, seed=k + 3)
        got = tn.one_vs_max(make_law(kind), *args, **kw)
        want = network_oracle.one_vs_max(make_law(kind), *args, **kw)
        assert_close(got, want, f"{kind}/{model}/k={k}")


def test_all_five_cases_covered():
    seen = {tn.one_vs_max(make_law(kind), MODELS[model], k, (1.0, 1.0),
                          t=50.0, gamma=1e-3, upsilon=0.7, n_a=1000).case
            for kind in AGENTS for model in MODELS for k in AGENTS[kind]}
    assert seen == {"overlap", "disjoint-iid", "disjoint-mo-equal",
                    "disjoint-mo-proportional", "disjoint-gaussian"}


@pytest.mark.parametrize("law, model, k, x, t, err", [
    (make_law("matrix"), MODELS["iid"], 3, (1.0, 1.0), 50.0, DomainError),
    (make_law("matrix"), MODELS["iid"], -1, (1.0, 1.0), 50.0, DomainError),
    (np.ones((1, 4)), MODELS["iid"], 0, (1.0, 1.0), 50.0, DomainError),
    (make_law("random"), MODELS["iid"], 0, (1.0, -1.0), 50.0, DomainError),
    (make_law("random"), MODELS["mo-equal"], 0, (1.0, 1.0), 1.0, DomainError),
    (make_law("matrix"), tn.RiskModel.marshall_olkin(4, "general", 1.0,
                                                    rates=GENERAL_RATES),
     0, (1.0, 1.0), 50.0, ModelError),
])
def test_same_error_types(law, model, k, x, t, err):
    for fn in (tn.one_vs_max, network_oracle.one_vs_max):
        with pytest.raises(err):
            fn(law, model, k, x, t=t, gamma=1e-3, upsilon=0.5, n_a=1000)
