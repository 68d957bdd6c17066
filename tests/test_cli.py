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


def test_seed_override_reaches_the_echoed_scenario(tmp_path):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "mo", "d": 2, "mo_variant": "equal"},
           "study": {"grid": [10.0, 100.0], "mc_budget": 20_000, "seed": 5}}
    path = write(tmp_path, "study.json", doc)
    out = tmp_path / "a.json"
    assert main(["tailprob", "--scenario", path, "--seed", "9",
                 "--out", str(out)]) == 0
    echoed = json.loads(out.read_text())["scenario"]
    assert echoed["study"]["seed"] == 9 and doc["study"]["seed"] == 5
    # re-running the echoed scenario reproduces the rows exactly
    again = tmp_path / "b.json"
    assert main(["tailprob", "--scenario", write(tmp_path, "echo.json", echoed),
                 "--out", str(again)]) == 0
    assert again.read_text() == out.read_text()


def test_seed_override_reaches_a_sample_without_study(tmp_path):
    path = write(tmp_path, "nostudy.json",
                 {"margin": {"alpha": 1.0, "theta": 1.0},
                  "dependence": {"kind": "iid", "d": 2}})
    texts = {}
    for seed in (None, "0", "1", "9"):
        out = tmp_path / f"{seed}.csv"
        extra = [] if seed is None else ["--seed", seed]
        assert main(["sample", "--scenario", path, "--n", "20",
                     "--out", str(out)] + extra) == 0
        texts[seed] = out.read_text()
    assert texts[None] == texts["0"]
    assert len({texts["0"], texts["1"], texts["9"]}) == 3


def test_empirical_eci_rejects_a_tail_grid_before_sampling(tmp_path, capsys,
                                                          monkeypatch):
    import tailnet.cli as cli

    def no_fold(*args, **kwargs):
        raise AssertionError("top_loss_rows ran before the grid check")

    monkeypatch.setattr(cli, "top_loss_rows", no_fold)
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "gaussian",
                          "sigma": [[1.0, 0.5], [0.5, 1.0]]},
           "study": {"grid": [10.0, 100.0, 1000.0], "mc_budget": 10_000_000,
                     "seed": 1}}
    path = write(tmp_path, "tailgrid.json", doc)
    assert main(["eci", "--scenario", path, "--empirical"]) == 2
    assert "(0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [[math.nan], [10.0, math.inf]])
def test_non_finite_study_grid_exits_with_a_validation_error(tmp_path, capsys,
                                                              grid):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "iid", "d": 2},
           "study": {"grid": grid, "mc_budget": 10_000, "seed": 1}}
    path = write(tmp_path, "nan-grid.json", doc)
    assert main(["tailprob", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "study.grid" in captured.err


def test_sample_streams_the_bytes_of_the_whole_sample_csv(tmp_path):
    # more rows than one rng block, so the rows are written block by block
    import tailnet as tn
    doc = {"margin": {"alpha": 1.3, "theta": 0.7},
           "dependence": {"kind": "iid", "d": 1}}
    path = write(tmp_path, "iid1.json", doc)
    n = (1 << 20) + 3
    out = tmp_path / "z.csv"
    assert main(["sample", "--scenario", path, "--n", str(n), "--seed", "4",
                 "--out", str(out)]) == 0
    z = tn.sample(tn.RiskModel.iid(1, 1.3, 0.7), n, seed=4)
    lines = ["z1"] + [",".join(repr(float(v)) for v in row) for row in z]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("dependence, n", [
    ({"kind": "mo", "d": 17, "mo_variant": "equal"}, "10"),
    ({"kind": "iid", "d": 2}, "0"),
])
def test_sample_is_refused_before_a_byte_is_written(tmp_path, capsys,
                                                    dependence, n):
    path = write(tmp_path, "bad.json", {"margin": {"alpha": 1.0, "theta": 1.0},
                                        "dependence": dependence})
    out = tmp_path / "never.csv"
    assert main(["sample", "--scenario", path, "--n", n,
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["sample", "--scenario", path, "--n", n]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("doc, field", [
    (malformed(dependence={"kind": "iid", "d": 2.9}), "dependence"),
    (malformed(study={"seed": 3.7}), "study"),
    (malformed(study={"thresholds": [math.inf]}), "study"),
    (malformed(study={"upsilon": "0.5"}), "study"),
])
def test_misread_scenario_number_is_a_validation_error(tmp_path, capsys, doc,
                                                      field):
    path = write(tmp_path, "bad.json", doc)
    assert main(["tailprob", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"validation error: {field}: ")


@pytest.mark.parametrize("doc, field", [
    (malformed(study={"grid": [True, 10]}), "study"),
    (malformed(dependence={"kind": "gaussian",
                           "sigma": [["1", "0.5"], ["0.5", "1"]]}),
     "dependence"),
    (malformed(network={"matrix": [[True, False], [False, True]]}), "network"),
    (malformed(network=dict(RANDOM_NETWORK, edge_prob="0.5")), "network"),
])
def test_misread_list_number_exits_two_with_its_section(tmp_path, capsys, doc,
                                                        field):
    path = write(tmp_path, "bad.json", doc)
    assert main(["tailprob", "--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"validation error: {field}: malformed value")


def test_tailprob_refuses_a_seed_past_64_bits(tmp_path, capsys):
    # 2^64 + 1 would key the stream of seed 1
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "iid", "d": 2},
           "study": {"grid": [10.0], "mc_budget": 10_000, "seed": 1}}
    path = write(tmp_path, "iid.json", doc)
    assert main(["tailprob", "--scenario", path,
                 "--seed", str((1 << 64) + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "seed" in captured.err


def test_scenario_seed_past_64_bits_exits_two(tmp_path, capsys):
    doc = {"margin": {"alpha": 1.0, "theta": 1.0},
           "dependence": {"kind": "iid", "d": 2},
           "study": {"grid": [10.0], "mc_budget": 10_000,
                     "seed": (1 << 64) + 3}}
    path = write(tmp_path, "iid.json", doc)
    for cmd in ("tailprob", "sample"):
        assert main([cmd, "--scenario", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "seed" in captured.err


def test_sample_refuses_a_negative_seed_and_an_empty_sample(tmp_path, capsys):
    path = write(tmp_path, "iid.json", {"margin": {"alpha": 1.0, "theta": 1.0},
                                        "dependence": {"kind": "iid", "d": 2}})
    for extra in (["--seed", "-5"], ["--n", "0"]):
        assert main(["sample", "--scenario", path] + extra) == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", [["sample", "--n", "5"], ["tailprob"],
                                  ["eci"]])
def test_an_output_that_cannot_be_written_exits_two(tmp_path, capsys, args):
    path = write(tmp_path, "iid.json", malformed())
    out = tmp_path / "missing" / "x.csv"
    assert main(args + ["--scenario", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_closed_stdout_pipe_exits_two(tmp_path, capsys, monkeypatch):
    class ClosedPipe:
        def writelines(self, parts):
            raise BrokenPipeError(32, "Broken pipe")

    path = write(tmp_path, "iid.json", malformed())
    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["sample", "--scenario", path, "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("doc, args, message", [
    (malformed(), ["qp"], "needs a gaussian"),
    (malformed(study=None), ["eci", "--empirical"], "needs a study section"),
    (malformed(), ["network-study"], "needs a network section"),
    (malformed(dependence={"kind": "iid", "d": 3},
               study={"thresholds": [1.0, 2.0]}), ["tailprob"],
     "needs 3 thresholds"),
    (malformed(study={"target": "cond"}), ["tailprob"], "needs a network"),
    (malformed(study=None), ["covar"], "no study section"),
    (malformed(dependence={"kind": "iid", "d": 3},
               study={"grid": [0.01], "target": "covar"}), ["covar"],
     "bivariate model or a network"),
], ids=["qp-not-gaussian", "empirical-eci-no-study", "network-study-no-network",
        "two-thresholds-d3", "cond-no-network", "covar-no-study",
        "covar-d3-no-network"])
def test_a_command_outside_its_scenario_exits_two(tmp_path, capsys, doc, args,
                                                  message):
    path = write(tmp_path, "doc.json", doc)
    assert main(args + ["--scenario", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: ")
    assert message in captured.err


@pytest.mark.parametrize("dependence, family", [
    ({"kind": "mo", "d": 3, "mo_variant": "equal"}, "marshall-olkin"),
    ({"kind": "iid", "d": 3}, "iid"),
])
def test_check_ai_answers_the_independent_families(tmp_path, capsys,
                                                   dependence, family):
    path = write(tmp_path, "doc.json", {"margin": {"alpha": 1.0, "theta": 1.0},
                                        "dependence": dependence})
    assert main(["check-ai", "--scenario", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["family"] == family
    assert doc["pairwise"] is True and doc["mutual"] is True
    assert doc["method"].startswith("exact ")


def test_sample_refuses_a_json_output_before_opening_it(tmp_path, capsys):
    path = write(tmp_path, "iid.json", malformed())
    out = tmp_path / "s.json"
    assert main(["sample", "--scenario", path, "--n", "5",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: ")
    assert ".json" in captured.err
    assert not out.exists()
