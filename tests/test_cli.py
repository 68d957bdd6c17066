import json
import math

import numpy as np
import pytest

from tailnet.cli import main
from tailnet.mrv import QpSolution

from qp_oracle import assert_kkt


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def identity_gaussian(tmp_path, **extra):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "gaussian",
                          "sigma": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}
    doc.update(extra)
    return write(tmp_path, "identity.json", doc)


def test_qp_identity(tmp_path, capsys):
    path = identity_gaussian(tmp_path)
    assert main(["qp", "--scenario", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gamma"] == 3.0
    assert doc["I"] == [1, 2, 3]


def test_check_ai_equicorrelation(tmp_path, capsys):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "gaussian",
                          "sigma": [[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]]}}
    path = write(tmp_path, "equi.json", doc)
    assert main(["check-ai", "--scenario", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mutual"] is True and out["pairwise"] is True


def test_eci_mo_equal(tmp_path, capsys):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "mo", "d": 2, "mo_variant": "equal"}}
    path = write(tmp_path, "mo.json", doc)
    assert main(["eci", "--scenario", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["eci"] == 2.0


def test_sample_csv_header_and_determinism(tmp_path):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "iid", "d": 3},
           "study": {"grid": [10.0], "mc_budget": 10_000, "seed": 5}}
    path = write(tmp_path, "iid.json", doc)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sample", "--scenario", path, "--n", "50",
                 "--out", str(out1)]) == 0
    assert main(["sample", "--scenario", path, "--n", "50",
                 "--out", str(out2)]) == 0
    text = out1.read_text()
    assert text.splitlines()[0] == "z1,z2,z3"
    assert len(text.splitlines()) == 51
    assert text == out2.read_text()


def test_study_round_trip_reproducible(tmp_path):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "mo", "d": 2, "mo_variant": "equal"},
           "study": {"grid": [10.0, 100.0], "mc_budget": 20_000, "seed": 3}}
    path = write(tmp_path, "study.json", doc)
    outs = []
    for name, threads in (("r1.json", "1"), ("r2.json", "4")):
        out = tmp_path / name
        assert main(["tailprob", "--scenario", path, "--out", str(out),
                     "--threads", threads]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    echoed = json.loads(outs[0])
    assert echoed["scenario"] == doc
    # re-running the echoed scenario reproduces the rows exactly
    path2 = write(tmp_path, "echo.json", echoed["scenario"])
    out3 = tmp_path / "r3.json"
    assert main(["tailprob", "--scenario", path2, "--out", str(out3)]) == 0
    assert out3.read_text() == outs[0]


def test_covar_csv_shape(tmp_path, capsys):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "iid", "d": 2},
           "study": {"grid": [0.01], "mc_budget": 100_000, "seed": 1,
                     "target": "covar", "upsilon": 0.5}}
    path = write(tmp_path, "cv.json", doc)
    assert main(["covar", "--scenario", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "gamma,level,empirical,stderr,asymptotic,ratio,flag"
    assert len(lines) == 2


def test_network_study_runs(tmp_path, capsys):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "iid", "d": 2},
           "network": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
           "study": {"grid": [10.0, 100.0], "mc_budget": 200_000, "seed": 2,
                     "target": "cond"}}
    path = write(tmp_path, "net.json", doc)
    assert main(["network-study", "--scenario", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("grid,")
    assert len(lines) == 3


def test_validation_exit_code(tmp_path, capsys):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "gaussian", "sigma": [[1, 2], [2, 1]]}}
    path = write(tmp_path, "bad.json", doc)
    assert main(["qp", "--scenario", path]) == 2
    assert "dependence" in capsys.readouterr().err


def test_missing_field_path_in_error(tmp_path, capsys):
    path = write(tmp_path, "nomargin.json", {"dependence": {"kind": "iid", "d": 2}})
    assert main(["qp", "--scenario", path]) == 2
    assert "margin" in capsys.readouterr().err


def test_reliability_exit_code(tmp_path, capsys):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "iid", "d": 2},
           "study": {"grid": [0.5, 0.0015, 0.0013, 0.0011], "mc_budget": 10_000,
                     "seed": 1, "upsilon": 0.5}}
    path = write(tmp_path, "tiny.json", doc)
    assert main(["eci", "--scenario", path, "--empirical"]) == 3


def test_seed_override_changes_sample(tmp_path):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "iid", "d": 2},
           "study": {"grid": [10.0], "mc_budget": 10_000, "seed": 5}}
    path = write(tmp_path, "seed.json", doc)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sample", "--scenario", path, "--n", "20", "--out", str(a)]) == 0
    assert main(["sample", "--scenario", path, "--n", "20", "--seed", "9",
                 "--out", str(b)]) == 0
    assert a.read_text() != b.read_text()


def test_qp_beyond_subset_cap(tmp_path, capsys):
    d = 30
    lo = np.random.default_rng(30).uniform(0.3, 0.8, d)
    sigma = np.outer(lo, lo)
    np.fill_diagonal(sigma, 1.0)
    path = write(tmp_path, "factor30.json",
                 {"margin": {"alpha": 1.0, "theta": 1.0},
                  "dependence": {"kind": "gaussian", "sigma": sigma.tolist()}})
    assert main(["qp", "--scenario", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    sol = QpSolution(tuple(i - 1 for i in doc["I"]), np.array(doc["e_star"]),
                     doc["gamma"], np.array(doc["h"]))
    assert_kkt(sigma, sol)


def network_study_doc(network):
    return {"margin": {"alpha": 1.0, "theta": 1.0},
            "dependence": {"kind": "iid", "d": 2},
            "network": network,
            "study": {"grid": [10.0], "mc_budget": 10_000, "seed": 1,
                      "target": "cond"}}


@pytest.mark.parametrize("network", [
    {"matrix": [[math.nan, 1.0], [0.0, 1.0]]},
    {"matrix": [[math.inf, 1.0], [0.0, 1.0]]},
    {"q": 2, "d": 2, "edge_prob": [[math.nan, 0.5], [0.5, 0.5]],
     "weights": {"kind": "point", "lo": 1.0, "hi": 1.0}},
    {"q": 2, "d": 2, "edge_prob": 0.5,
     "weights": {"kind": "uniform", "lo": 0.5, "hi": math.inf}},
])
def test_non_finite_network_input_is_a_validation_error(tmp_path, capsys,
                                                        network):
    path = write(tmp_path, "bad.json", network_study_doc(network))
    assert main(["network-study", "--scenario", path]) == 2
    assert "validation error" in capsys.readouterr().err


def malformed(**over):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "iid", "d": 2},
           "study": {"grid": [10.0], "mc_budget": 10_000, "seed": 1}}
    for section, fields in over.items():
        doc[section] = fields if not isinstance(fields, dict) \
            else dict(doc.get(section, {}), **fields)
    return doc


RANDOM_NETWORK = {"q": 2, "d": 2, "edge_prob": 0.5,
                  "weights": {"kind": "uniform", "lo": 0.5, "hi": 1.5}}


@pytest.mark.parametrize("doc, field", [
    (malformed(study={"agents": ["x", 2]}), "study"),
    (malformed(study={"upsilon": "big"}), "study"),
    (malformed(dependence={"kind": "gaussian", "sigma": [[1, "a"], [0, 1]]}),
     "dependence"),
    (malformed(network=dict(RANDOM_NETWORK,
                            weights={"kind": "uniform", "lo": "x", "hi": 1.5})),
     "network"),
    (malformed(study={"thresholds": 5}), "study"),
    (malformed(dependence={"kind": "mo", "d": 2, "mo_variant": "general",
                           "rates": {"x": 1.0, "1,2": 0.5}}),
     "dependence"),
    (malformed(network={"matrix": [[1.0, "a"], [0.0, 1.0]]}), "network"),
    (malformed(dependence={"kind": "iid", "d": math.inf}), "dependence"),
    (malformed(dependence={"kind": "iid", "d": math.nan}), "dependence"),
    (malformed(margin="alpha"), "margin"),
])
def test_malformed_scenario_value_is_a_validation_error(tmp_path, capsys,
                                                         doc, field):
    path = write(tmp_path, "bad.json", doc)
    assert main(["tailprob", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: {field}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["alpha", "theta"])
def test_infinite_margin_value_is_a_validation_error(tmp_path, capsys, field):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0, field: math.inf},
           "dependence": {"kind": "iid", "d": 2},
           "study": {"grid": [10.0], "mc_budget": 10_000, "seed": 1}}
    path = write(tmp_path, "inf.json", doc)
    assert main(["tailprob", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and field in err
    assert "Traceback" not in err
