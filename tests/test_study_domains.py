"""A study whose closed form does not hold where it is asked refuses with
DomainError (exit 2 through the CLI) instead of printing a number: a tail
study on a ``covar`` target, a tail grid that scales the thresholds below
the margin floor, and a covar ``beta`` that the case's closed form does not
use."""

import json

import numpy as np
import pytest

from tailnet.cli import main
from tailnet.errors import DomainError
from tailnet.harness import (_joint_tail_asymptotic_model, covar_rows_to_csv,
                             run_covar_study, run_tail_study)
from tailnet.scenario import parse_scenario

MARGIN = {"alpha": 1.0, "theta": 1.0}
DEPS = {"iid": {"kind": "iid", "d": 2},
        "mo-equal": {"kind": "mo", "d": 3, "mo_variant": "equal"},
        "gaussian": {"kind": "gaussian", "sigma": [[1.0, 0.5], [0.5, 1.0]]}}
NETWORK = {"matrix": [[1.0, 0.0], [0.0, 1.0]]}


def doc(dependence, study, network=None):
    out = {"margin": MARGIN, "dependence": dependence,
           "study": dict(study, mc_budget=20_000, seed=1)}
    if network is not None:
        out["network"] = network
    return out


def exit_code(tmp_path, command, document, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    code = main([command, "--scenario", str(path)])
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == "" and "validation error" in captured.err
    return code


COVAR = {"target": "covar", "grid": [0.05, 0.01]}


@pytest.mark.parametrize("network", [None, NETWORK], ids=["model", "network"])
def test_tail_study_refuses_a_covar_target(tmp_path, capsys, network):
    document = doc(DEPS["iid"], COVAR, network)
    with pytest.raises(DomainError):
        run_tail_study(parse_scenario(document))
    assert exit_code(tmp_path, "tailprob", document, capsys) == 2


@pytest.mark.parametrize("name", sorted(DEPS))
def test_tail_asymptotic_refuses_thresholds_below_the_margin_floor(name):
    model = parse_scenario(doc(DEPS[name], {"grid": [2.0]})).model
    x = np.ones(model.d)
    for t in (0.5, 1.0):
        with pytest.raises(DomainError):
            _joint_tail_asymptotic_model(model, x, t)
    # above the floor the closed form is a probability again
    assert 0 < _joint_tail_asymptotic_model(model, x, 30.0) < 1


def test_tailprob_below_the_margin_floor_exits_2(tmp_path, capsys):
    document = doc(DEPS["mo-equal"], {"grid": [0.5], "thresholds": [1.0]})
    assert exit_code(tmp_path, "tailprob", document, capsys) == 2
    ok = doc(DEPS["mo-equal"], {"grid": [3.0], "thresholds": [1.0]})
    assert exit_code(tmp_path, "tailprob", ok, capsys) == 0


GAUSS_NETWORK = {"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
SIGMA3 = [[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]]


@pytest.mark.parametrize("command, document", [
    ("covar", doc(DEPS["gaussian"], dict(COVAR, beta=0.9))),
    ("network-study", doc({"kind": "gaussian", "sigma": SIGMA3},
                          dict(COVAR, beta=0.9), GAUSS_NETWORK)),
], ids=["bivariate-gaussian", "gaussian-network"])
def test_covar_beta_the_closed_form_does_not_use_is_refused(
        tmp_path, capsys, command, document):
    with pytest.raises(DomainError, match="beta"):
        run_covar_study(parse_scenario(document))
    assert exit_code(tmp_path, command, document, capsys) == 2
    # without beta the same study runs at the case's own level function
    del document["study"]["beta"]
    assert exit_code(tmp_path, command, document, capsys) == 0


@pytest.mark.parametrize("dependence, network, beta", [
    (DEPS["iid"], None, 0.9),
    ({"kind": "mo", "d": 2, "mo_variant": "equal"}, None, 0.4),
    ({"kind": "mo", "d": 2, "mo_variant": "equal"}, NETWORK, 0.5),
], ids=["bivariate-iid", "bivariate-mo", "network-mo-natural"])
def test_covar_beta_the_closed_form_uses_still_runs(dependence, network, beta):
    sc = parse_scenario(doc(dependence, dict(COVAR, beta=beta), network))
    lines = covar_rows_to_csv(run_covar_study(sc), sc).splitlines()[1:]
    for line, gamma in zip(lines, COVAR["grid"]):
        level = float(line.split(",")[1])
        assert level == pytest.approx(sc.study.upsilon * gamma ** beta,
                                      rel=1e-15)
