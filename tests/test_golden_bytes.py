"""Golden bytes of small network studies, one scenario per asymptotic case.

Each scenario runs ``network-study`` for the ``cond``, ``joint`` and
``covar`` targets (CSV) and ``eci`` (JSON) through the CLI at 2e4 draws;
the sha256 of every output is pinned.  Random laws exercise the Monte
Carlo adjacency moments, so a change to how moments are drawn, cached or
combined shows up here as well as a change to the closed forms.
"""

import copy
import hashlib
import json

import pytest

from tailnet.cli import main

UNIFORM = {"kind": "uniform", "lo": 0.5, "hi": 1.5}
SIGMA = [[1.0, 0.3, 0.42], [0.3, 1.0, 0.42], [0.42, 0.42, 1.0]]

SCENARIOS = {
    "overlap": {
        "margin": {"alpha": 1.0, "theta": 1.0},
        "dependence": {"kind": "iid", "d": 3},
        "network": {"q": 3, "d": 3, "weights": UNIFORM,
                    "edge_prob": [[0.6, 0.5, 0.0], [0.0, 0.5, 0.6],
                                  [0.4, 0.0, 0.7]]}},
    "disjoint-iid": {
        "margin": {"alpha": 1.5, "theta": 1.0},
        "dependence": {"kind": "iid", "d": 3},
        "network": {"q": 2, "d": 3, "weights": UNIFORM,
                    "edge_prob": [[0.7, 0.7, 0.0], [0.0, 0.0, 0.8]]}},
    "disjoint-mo-equal": {
        "margin": {"alpha": 1.0, "theta": 1.0},
        "dependence": {"kind": "mo", "d": 4, "mo_variant": "equal"},
        "network": {"q": 2, "d": 4, "weights": UNIFORM,
                    "edge_prob": [[0.7, 0.7, 0.0, 0.0],
                                  [0.0, 0.0, 0.7, 0.7]]}},
    "disjoint-mo-proportional": {
        "margin": {"alpha": 2.0, "theta": 0.5},
        "dependence": {"kind": "mo", "d": 3, "mo_variant": "proportional"},
        "network": {"matrix": [[1.0, 0.5, 0.0], [0.0, 0.0, 2.0]]}},
    "disjoint-gaussian": {
        "margin": {"alpha": 1.0, "theta": 1.0},
        "dependence": {"kind": "gaussian", "sigma": SIGMA},
        "network": {"q": 3, "d": 3, "weights": UNIFORM,
                    "edge_prob": [[0.8, 0.0, 0.0], [0.5, 0.5, 0.5],
                                  [0.0, 0.6, 0.6]]}},
}
AGENTS = {"overlap": [1, 2], "disjoint-gaussian": [1, 3]}

STUDIES = {
    "cond": {"target": "cond", "grid": [10.0, 100.0]},
    "joint": {"target": "joint", "grid": [10.0, 100.0]},
    "covar": {"target": "covar", "grid": [0.05, 0.01], "upsilon": 0.5},
}

DIGESTS = {
    ("overlap", "cond"):
        "4c52008b6429504268a4964f3222ef55e754f7fa2c0e4ed4773c906286b7d2cd",
    ("overlap", "joint"):
        "946ed463903ce0107190d42b3bb0d73f746d5e20ff7dd0ab622b3023741b38ba",
    ("overlap", "covar"):
        "6829c7a632c6cb8afdb86e81542a3d873f4b5f9d268c62729cafe787ccd59d9d",
    ("overlap", "eci"):
        "f626c6f4e78d8b62885a669bf35cbb4a08eb0cfbd325ed1d573a6b5bed185f1d",
    ("disjoint-iid", "cond"):
        "9722713019562698f46b78057f64a13a64c9f73bfd03835cebbfb59b89b6f614",
    ("disjoint-iid", "joint"):
        "f9134f4fb02f7c11f76dc9431c37ace895233a3491a5fe254bcb4b5a77fe32b0",
    ("disjoint-iid", "covar"):
        "1e7a8c4c6d8934337b36710e8b69776b3d17ec231689d6ff96c5d345d8d3e662",
    ("disjoint-iid", "eci"):
        "a6610bdacfb312b8e567a8f79a40f00c999ffb25d85b7556ffabcba8bb4a4850",
    ("disjoint-mo-equal", "cond"):
        "3bba34410fd26499a6d394c9d90d28293f2457300ad721acf36af945a083a0cd",
    ("disjoint-mo-equal", "joint"):
        "58d3403a526ce16f21bcbb0df456c4986ee0d97f1f39def05b65d4cc4e4547a5",
    ("disjoint-mo-equal", "covar"):
        "5a4e6a95ecc050a374f5a336be4c39ba8e8deb8de22e3eab496162b357c8036f",
    ("disjoint-mo-equal", "eci"):
        "9a788355423f8dfd9f7b5a9b8778e6a2e8617f0bd9f65becfb510b47793a0a42",
    ("disjoint-mo-proportional", "cond"):
        "437ac25bfa0ebfb36e3ef0481e99786bc7609845368381be1cfed04178963e7e",
    ("disjoint-mo-proportional", "joint"):
        "382e09a70405dee78fb5d8c303055a33c21311fb31323ceaf3ebf38af29f94b5",
    ("disjoint-mo-proportional", "covar"):
        "df37c37e986477ea91124cec3e509d123181e4b1d3394d41f9f00de81482e917",
    ("disjoint-mo-proportional", "eci"):
        "c7119ccc6ec1509e66d3ffc89d358563a2f0161600a5415e12f8e0e3a2366ba2",
    ("disjoint-gaussian", "cond"):
        "1472707f9026d59c3f82aa2148d88075e5af3b16c254dfc6c03542e2d1719108",
    ("disjoint-gaussian", "joint"):
        "9783ed93181ac3fe7297dd0dd26f2d5ba97bfb479a2d111abbb1d19812c8b5b6",
    ("disjoint-gaussian", "covar"):
        "b213346053c04e070623d3232ada9aca12a55b246f6456e02120f7137051b047",
    ("disjoint-gaussian", "eci"):
        "e244ab269d975a378d366513ce9baa78b28e39a0512fc32079ef3ebdc07dcec1",
}


def scenario_doc(case: str, target: str) -> dict:
    doc = copy.deepcopy(SCENARIOS[case])
    doc["study"] = dict(STUDIES[target], mc_budget=20_000, seed=11,
                        agents=AGENTS.get(case, [1, 2]))
    return doc


def run_digest(tmp_path, case: str, target: str) -> str:
    """sha256 of the CLI output: the study CSV, or the ECI JSON for
    ``target == "eci"``."""
    path = tmp_path / f"{case}-{target}.json"
    path.write_text(json.dumps(scenario_doc(case, "joint" if target == "eci"
                                            else target)))
    if target == "eci":
        argv = ["eci", "--scenario", str(path)]
        out = tmp_path / f"{case}-eci.out.json"
    else:
        argv = ["network-study", "--scenario", str(path)]
        out = tmp_path / f"{case}-{target}.out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("target", ["cond", "joint", "covar", "eci"])
@pytest.mark.parametrize("case", list(SCENARIOS))
def test_study_bytes_are_pinned(tmp_path, case, target):
    assert run_digest(tmp_path, case, target) == DIGESTS[case, target]
