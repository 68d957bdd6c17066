"""Refusals that come before any work: a model tail point outside its closed
form's domain raises before it draws, and a row reduction over a fixed
matrix is refused where it is built (a fixed matrix reduces to a fixed
matrix)."""

import numpy as np
import pytest

import tailnet as tn
from tailnet import rng
from tailnet.errors import DomainError, ModelError
from tailnet.harness import run_tail_study
from tailnet.network import AggregatedNetwork, _row_reduction
from tailnet.scenario import parse_scenario

MO_EQUAL = {"margin": {"alpha": 1.0, "theta": 1.0},
            "dependence": {"kind": "mo", "d": 3, "mo_variant": "equal"},
            "study": {"grid": [0.5], "mc_budget": 4_000_000, "seed": 1}}


def test_model_tail_point_refuses_its_domain_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("the point drew before its closed form refused")

    monkeypatch.setattr(rng, "fold_blocks", no_draws)
    with pytest.raises(DomainError):
        run_tail_study(parse_scenario(MO_EQUAL))


def test_model_tail_point_in_its_domain_still_draws(monkeypatch):
    calls = []
    fold = rng.fold_blocks

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fold(*args, **kwargs)

    monkeypatch.setattr(rng, "fold_blocks", counted)
    doc = dict(MO_EQUAL, study={"grid": [2.0], "mc_budget": 10_000, "seed": 1})
    (row,) = run_tail_study(parse_scenario(doc))
    assert calls == [10_000] and row.asymptotic > 0


@pytest.mark.parametrize("base", [np.eye(2), tn.AdjacencyMatrix(np.eye(2))],
                         ids=["array", "adjacency"])
def test_reduction_over_a_fixed_matrix_is_refused(base):
    with pytest.raises(ModelError):
        AggregatedNetwork(base, (0,), (1,))
    reduced = _row_reduction(base, (0,), (1,), "sum")
    assert isinstance(reduced, tn.AdjacencyMatrix)
    assert np.array_equal(reduced.entries, np.eye(2))


MO_EQUAL_NETWORK = {
    "margin": {"alpha": 1.0, "theta": 1.0},
    "dependence": {"kind": "mo", "d": 4, "mo_variant": "equal"},
    "network": {"q": 3, "d": 4,
                "edge_prob": [[0.7, 0.7, 0.0, 0.0], [0.0, 0.0, 0.7, 0.7],
                              [0.5, 0.5, 0.5, 0.5]],
                "weights": {"kind": "uniform", "lo": 0.5, "hi": 1.5}}}


@pytest.mark.parametrize("target", ["cond", "joint"])
def test_network_tail_point_refuses_its_domain_before_drawing(monkeypatch,
                                                             target):
    def no_draws(*args, **kwargs):
        raise AssertionError("the point drew before its closed form refused")

    monkeypatch.setattr(rng, "fold_blocks", no_draws)
    doc = dict(MO_EQUAL_NETWORK, study={"grid": [0.5], "mc_budget": 3_000_000,
                                        "seed": 1, "target": target})
    with pytest.raises(DomainError, match="t must exceed 1"):
        run_tail_study(parse_scenario(doc))


OVERLAP_IID_NETWORK = {
    "margin": {"alpha": 1.0, "theta": 1.0},
    "dependence": {"kind": "iid", "d": 2},
    "network": {"matrix": [[1.0, 0.5], [0.5, 1.0]]}}


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_overlap_joint_point_refuses_t_at_most_one_before_drawing(monkeypatch,
                                                                  t):
    def no_draws(*args, **kwargs):
        raise AssertionError("the point drew before its closed form refused")

    monkeypatch.setattr(rng, "fold_blocks", no_draws)
    doc = dict(OVERLAP_IID_NETWORK, study={"grid": [t], "mc_budget": 10_000,
                                           "seed": 1, "target": "joint"})
    with pytest.raises(DomainError, match="t must exceed 1"):
        run_tail_study(parse_scenario(doc))
