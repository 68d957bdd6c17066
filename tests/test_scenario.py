import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailnet.copula import Gaussian, MarshallOlkin
from tailnet.errors import ScenarioError, TailnetError
from tailnet.network import AdjacencyMatrix, BipartiteNetwork
from tailnet.scenario import parse_scenario


def base(**over):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "iid", "d": 2}}
    doc.update(over)
    return doc


def test_minimal_iid():
    sc = parse_scenario(base())
    assert sc.model.d == 2
    assert sc.network is None and sc.study is None


def test_gaussian_dimension_from_sigma():
    sc = parse_scenario(base(dependence={"kind": "gaussian",
                                         "sigma": [[1, 0.2], [0.2, 1]]}))
    assert isinstance(sc.model.dependence, Gaussian)
    assert sc.model.d == 2


def test_mo_general_rates_one_based_keys():
    rates = {"1": 1.0, "2": 2.0, "1,2": 0.5}
    sc = parse_scenario(base(dependence={"kind": "mo", "d": 2,
                                         "mo_variant": "general",
                                         "rates": rates}))
    fam = sc.model.dependence.rates
    assert isinstance(sc.model.dependence, MarshallOlkin)
    assert fam.rate((0, 1)) == 0.5
    assert fam.rate((1,)) == 2.0


def test_field_paths_in_errors():
    with pytest.raises(ScenarioError, match="margin.alpha"):
        parse_scenario({"margin": {"theta": 1.0},
                        "dependence": {"kind": "iid", "d": 2}})
    with pytest.raises(ScenarioError, match="dependence.kind"):
        parse_scenario(base(dependence={"kind": "clayton", "d": 2}))
    with pytest.raises(ScenarioError, match="study.mc_budget"):
        parse_scenario(base(study={"grid": [1.0, 2.0], "mc_budget": 100,
                                   "seed": 0}))
    with pytest.raises(ScenarioError, match="study.grid"):
        parse_scenario(base(study={"grid": [1.0, 3.0, 2.0], "mc_budget": 10_000,
                                   "seed": 0}))


def test_network_matrix_and_random_forms():
    sc = parse_scenario(base(network={"matrix": [[1.0, 0.0], [0.0, 1.0]]}))
    assert isinstance(sc.network, AdjacencyMatrix)
    sc2 = parse_scenario(base(network={"q": 3, "d": 2, "edge_prob": 0.5,
                                       "weights": {"kind": "uniform",
                                                   "lo": 0.5, "hi": 1.5}}))
    assert isinstance(sc2.network, BipartiteNetwork)
    assert sc2.network.q == 3


def test_network_dimension_mismatch():
    with pytest.raises(ScenarioError, match="network"):
        parse_scenario(base(network={"matrix": [[1.0, 0.0, 0.0],
                                               [0.0, 1.0, 0.0]]}))


def test_agents_validated_against_q():
    net = {"q": 2, "d": 2, "edge_prob": 1.0,
           "weights": {"kind": "point", "lo": 1.0, "hi": 1.0}}
    study = {"grid": [10.0], "mc_budget": 10_000, "seed": 0, "agents": [1, 3]}
    with pytest.raises(ScenarioError, match="study.agents"):
        parse_scenario(base(network=net, study=study))


def test_raw_echo_preserved():
    doc = base(study={"grid": [10.0, 100.0], "mc_budget": 10_000, "seed": 4})
    sc = parse_scenario(doc)
    assert sc.raw == doc
    assert sc.study.grid == (10.0, 100.0)


VALID = [
    {"margin": {"alpha": 1.0, "theta": 1.0},
     "dependence": {"kind": "mo", "d": 2, "mo_variant": "general",
                    "rates": {"1": 1.0, "2": 2.0, "1,2": 0.5}},
     "network": {"q": 2, "d": 2, "edge_prob": [[0.5, 0.5], [0.5, 0.5]],
                 "weights": {"kind": "uniform", "lo": 0.5, "hi": 1.5}},
     "study": {"grid": [10.0, 100.0], "mc_budget": 10_000, "seed": 1,
               "target": "joint", "upsilon": 0.5, "beta": 0.5,
               "thresholds": [1.0, 2.0], "agents": [1, 2]}},
    {"margin": {"alpha": 1.0, "theta": 1.0},
     "dependence": {"kind": "gaussian", "sigma": [[1.0, 0.5], [0.5, 1.0]]},
     "network": {"matrix": [[1.0, 0.0], [0.5, 1.0]]}},
]


def _field_paths(doc, prefix=()):
    for key, val in doc.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _field_paths(val, prefix + (key,))


FIELDS = [(i, path) for i, doc in enumerate(VALID) for path in _field_paths(doc)]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**30, 10**30)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(FIELDS), JSON_VALUES)
def test_parse_scenario_raises_only_tailnet_errors(field, value):
    index, (*parents, key) = field
    doc = copy.deepcopy(VALID[index])
    target = doc
    for name in parents:
        target = target[name]
    target[key] = value
    try:
        parse_scenario(doc)
    except TailnetError:
        pass


@pytest.mark.parametrize("grid", [[float("nan")], [10.0, float("inf")],
                                  [-float("inf"), 1.0]])
def test_non_finite_grid_value_is_a_parse_error(grid):
    with pytest.raises(ScenarioError, match="study.grid"):
        parse_scenario(base(study={"grid": grid, "mc_budget": 10_000,
                                   "seed": 0}))


RANDOM_LAW = {"q": 2, "d": 2, "edge_prob": 0.5,
              "weights": {"kind": "uniform", "lo": 0.5, "hi": 1.5}}


def with_study(**over):
    return base(study=dict({"grid": [10.0], "mc_budget": 10_000, "seed": 1},
                           **over))


@pytest.mark.parametrize("doc", [
    base(dependence={"kind": "iid", "d": 2.9}),
    base(dependence={"kind": "mo", "d": 2.5, "mo_variant": "equal"}),
    base(network=dict(RANDOM_LAW, q=2.5)),
    with_study(seed=3.7),
    with_study(mc_budget=10_000.9),
    with_study(agents=[1.5, 2]),
    with_study(agents=[True, 2]),
    with_study(upsilon="0.5"),
    with_study(upsilon=True),
    with_study(upsilon=float("inf")),
    with_study(beta="0.5"),
    with_study(beta=True),
    with_study(thresholds=[float("inf")]),
    with_study(thresholds=[1.0, float("nan")]),
    with_study(thresholds=["2"]),
    base(network=dict(RANDOM_LAW, weights={"kind": "uniform", "lo": "0.5",
                                           "hi": 1.5})),
    base(network=dict(RANDOM_LAW, weights={"kind": "uniform", "lo": 0.5,
                                           "hi": True})),
    base(dependence={"kind": "mo", "d": 2, "mo_variant": "general",
                     "rates": {"1": "1.0", "2": 2.0, "1,2": 0.5}}),
])
def test_numbers_must_be_finite_and_integral_where_counted(doc):
    with pytest.raises(ScenarioError):
        parse_scenario(doc)


def test_integral_floats_read_as_integers():
    doc = with_study(seed=3.0, mc_budget=20_000.0, agents=[2.0, 1])
    doc["dependence"]["d"] = 2.0
    sc = parse_scenario(doc)
    assert sc.model.d == 2 and isinstance(sc.model.d, int)
    assert (sc.study.seed, sc.study.mc_budget) == (3, 20_000)
    assert sc.study.agents == (1, 0)


@pytest.mark.parametrize("doc, section", [
    (with_study(grid=[True, 10]), "study"),
    (with_study(grid=["10", 100]), "study"),
    (with_study(grid=[[10, 100]]), "study"),
    (base(dependence={"kind": "gaussian",
                      "sigma": [["1", "0.5"], ["0.5", "1"]]}), "dependence"),
    (base(dependence={"kind": "gaussian",
                      "sigma": [[True, 0], [0, True]]}), "dependence"),
    (base(network={"matrix": [["1", "0.5"], ["0.5", "1"]]}), "network"),
    (base(network={"matrix": [[True, False], [False, True]]}), "network"),
    (base(network=dict(RANDOM_LAW, edge_prob="0.5")), "network"),
    (base(network=dict(RANDOM_LAW, edge_prob=[[True, True], [True, True]])),
     "network"),
    (base(network=dict(RANDOM_LAW, edge_prob=[[0.5, "0.5"], [0.5, 0.5]])),
     "network"),
])
def test_lists_and_matrices_follow_the_number_rule(doc, section):
    with pytest.raises(ScenarioError, match="malformed value") as info:
        parse_scenario(doc)
    assert info.value.path == section
