"""Golden bytes of the study outputs ``test_golden_bytes.py`` leaves out.

Model (no network) ``tailprob`` and ``covar`` CSVs, the JSON output of
every study kind, and ``eci --empirical`` on a random network law and on a
bivariate model, all through the CLI at 2e4 draws.  Each output is pinned
by its sha256 and must not depend on ``--threads``.
"""

import hashlib
import json

import pytest

from tailnet.cli import main

MARGIN = {"alpha": 1.0, "theta": 1.0}
SIGMA3 = [[1.0, 0.3, 0.42], [0.3, 1.0, 0.42], [0.42, 0.42, 1.0]]
MODELS3 = {
    "iid": {"kind": "iid", "d": 3},
    "mo-equal": {"kind": "mo", "d": 3, "mo_variant": "equal"},
    "gaussian": {"kind": "gaussian", "sigma": SIGMA3},
}
MODELS2 = {
    "iid": {"kind": "iid", "d": 2},
    "mo-equal": {"kind": "mo", "d": 2, "mo_variant": "equal"},
    "gaussian": {"kind": "gaussian", "sigma": [[1.0, 0.5], [0.5, 1.0]]},
}
RANDOM_LAW = {"q": 3, "d": 3, "weights": {"kind": "uniform", "lo": 0.5, "hi": 1.5},
              "edge_prob": [[0.6, 0.5, 0.0], [0.0, 0.5, 0.6], [0.4, 0.0, 0.7]]}

TAIL = {"grid": [3.0, 10.0], "thresholds": [1.0, 1.5, 2.0]}
COVAR = {"target": "covar", "grid": [0.05, 0.01], "upsilon": 0.5}
ECI = {"grid": [0.1, 0.05, 0.02, 0.01, 0.002], "upsilon": 0.5}


def doc(dependence, study, network=None):
    out = {"margin": MARGIN, "dependence": dependence,
           "study": dict(study, mc_budget=20_000, seed=7)}
    if network is not None:
        out["network"] = network
    return out


# name -> (subcommand, scenario, output suffix, extra arguments)
RUNS = {
    **{f"tailprob-{m}": ("tailprob", doc(dep, TAIL), "csv", [])
       for m, dep in MODELS3.items()},
    "covar-iid": ("covar", doc(MODELS2["iid"], COVAR), "csv", []),
    "covar-mo-equal-beta": ("covar", doc(MODELS2["mo-equal"],
                                         dict(COVAR, beta=0.4)), "csv", []),
    "covar-gaussian": ("covar", doc(MODELS2["gaussian"], COVAR), "csv", []),
    "json-tail": ("tailprob", doc(MODELS3["mo-equal"], TAIL), "json", []),
    "json-covar": ("covar", doc(MODELS2["gaussian"], COVAR), "json", []),
    "json-network-tail": ("network-study",
                          doc(MODELS3["iid"], {"target": "cond",
                                               "grid": [3.0, 10.0]},
                              RANDOM_LAW), "json", []),
    "json-network-covar": ("network-study",
                           doc(MODELS3["iid"], COVAR, RANDOM_LAW), "json", []),
    "eci-empirical-network": ("eci", doc(MODELS3["iid"], ECI, RANDOM_LAW),
                              "json", ["--empirical"]),
    "eci-empirical-model": ("eci", doc(MODELS2["mo-equal"], ECI), "json",
                            ["--empirical"]),
}

DIGESTS = {
    "tailprob-iid":
        "1ab479fcc4bb2efe9c3ead1821ca005e677b67cd7b8d70993b8645ed4307198b",
    "tailprob-mo-equal":
        "8996b99d3da0c589c4fc5427cbe1d5baa973af843c65667884e3e3bece6f0fa7",
    "tailprob-gaussian":
        "b89f52d758c09966d6cedfa8053f4b9824aa6e038a4df85d5158c15699c57443",
    "covar-iid":
        "67b5a3933dcdf15662044090d2467f4f8b40609762888da2c583cb2821cb0b32",
    "covar-mo-equal-beta":
        "1f091381c5ee545c4a6fbabee2b660322b23c514b236e61106e41ca2e61171eb",
    "covar-gaussian":
        "42a33f5b354e2dd6892a82108d5f4cb19893f84fa0a1bf99fa81508ec1cea24d",
    "json-tail":
        "1d974127f644d750750e40366612501b221ec2711854b51bab2db9bd0877e01d",
    "json-covar":
        "0e3184304186af2d28a8cfc2f421d58db3754d0cbbf74f98f8800c3e3b8db369",
    "json-network-tail":
        "7cbc7a1b0257ce151635fd73a20182786d7fb9869fd29065a87c8ce7f262551e",
    "json-network-covar":
        "fec35bddf7a634ffe8319eb5d88cea38d4a6001bf8759db07edc9874053f0e8d",
    "eci-empirical-network":
        "2d215ed139396157ce3e26eba7e0c890853d43d7068b13a6bae69e092a700095",
    "eci-empirical-model":
        "05b80eaa7b6306f02ce4538bedf5bded6897abf84c0623c79b0e57e58089c418",
}


def run_digest(tmp_path, name: str, threads: int) -> str:
    cmd, scenario, suffix, extra = RUNS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / f"{name}.out.{suffix}"
    assert main([cmd, "--scenario", str(path), "--out", str(out),
                 "--threads", str(threads)] + extra) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", list(RUNS))
def test_study_bytes_are_pinned(tmp_path, name, threads):
    assert run_digest(tmp_path, name, threads) == DIGESTS[name]
