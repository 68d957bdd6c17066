"""The benchmark's own tests, at the small input size.

    python3 -m pytest bench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
NAMES = sorted(wl.WORKLOADS)


@pytest.fixture(scope="module")
def tn():
    return run.load_tailnet()


def bench(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)


def declared(kind):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def execute(tn, name, seed=3, recorder=None):
    workload = wl.WORKLOADS[name]
    doc, path = run.write_inputs(workload, seed, "small")
    rep = run.Rep(tn, workload, workload.build(tn, path), recorder)
    return workload, doc, rep, path


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_prints_every_metric(name, trace, kind):
    proc = bench("--workload", name, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = declared(kind)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == 0:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_catalogue_matches_benchmark_json():
    cat = {m["name"]: m for m in run.catalogue()["metrics"]}
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        for m in doc[kind]:
            assert (cat[m["name"]]["unit"], cat[m["name"]]["better"]) == \
                (m["unit"], m["better"])
    assert len(cat) == len(doc["end_to_end"]) + len(doc["per_layer"])
    assert [w["name"] for w in doc["workloads"]] == \
        [w["name"] for w in run.catalogue()["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_traced_bytes_equal_untraced(tn, name):
    plain = execute(tn, name)[2]
    rec = tracing.Recorder()
    traced = execute(tn, name, recorder=rec)[2]
    assert wl.digest(traced.text) == wl.digest(plain.text)
    assert rec.spans and all(s["end"] is not None for s in rec.spans)
    # wrappers are gone once the traced repetition returns
    for mod, attr, _, _ in tracing.sites(tn):
        assert not hasattr(getattr(mod, attr), "__wrapped__")


@pytest.mark.parametrize("name,command", [("gauss_covar", "covar"),
                                          ("network_tail", "network-study")])
def test_study_bytes_equal_cli_output(tn, tmp_path, name, command):
    from tailnet.cli import main
    rep, path = execute(tn, name)[2:]
    out = tmp_path / "x.csv"
    assert main([command, "--scenario", path, "--threads", "2",
                 "--out", str(out)]) == 0
    assert out.read_text() == rep.text


def test_corrupted_row_counts_as_failure(tn):
    workload, doc, rep, _ = execute(tn, "gauss_covar")
    assert wl.verdicts(workload, doc, rep.text, rep.results) == [True] * 4
    rows = list(rep.results)
    rows[2] = dataclasses.replace(rows[2], stderr=0.0)
    assert wl.verdicts(workload, doc, rep.text, rows) == [True, True, False, True]
    rows[2] = dataclasses.replace(rows[2], stderr=1.0, ratio=50.0)
    assert wl.verdicts(workload, doc, rep.text, rows).count(False) == 1
    wrong = {"sha256": wl.digest(rep.text + " ")}
    assert wl.verdicts(workload, doc, rep.text, rep.results, wrong) == [False] * 4
    assert wl.verdicts(workload, doc, None, None) == [False] * 4


def test_corrupted_query_counts_as_failure(tn):
    workload, doc, rep, _ = execute(tn, "gauss_closed_form")
    assert all(wl.verdicts(workload, doc, rep.text, rep.results))
    bad = json.loads(json.dumps(rep.results))
    bad["qp"]["h"][0] *= 1.5
    bad["survival_b"] = {"raised": "DomainError: injected"}
    ok = wl.verdicts(workload, doc, rep.text, bad)
    assert ok.count(False) == 2 and not ok[0] and not ok[-1]
    ref = {"values": rep.results}
    assert all(wl.verdicts(workload, doc, rep.text, rep.results, ref))
    moved = json.loads(json.dumps(rep.results))
    moved["tail"] *= 1 + 1e-6
    assert wl.verdicts(workload, doc, rep.text, rep.results,
                       {"values": moved}).count(False) == 1


def test_failed_batches_show_in_batch_ok_frac(tn):
    rec = tracing.Recorder()
    execute(tn, "gauss_covar", recorder=rec)
    spans = rec.with_self_time()
    covar = [s for s in spans if s["name"] == "covar.empirical"]
    assert len(covar) == 4 * 33 and sum(s["attrs"]["batch"] for s in covar) == 128
    batch = next(s for s in covar if s["attrs"]["batch"])
    batch["attrs"]["ok"] = False
    m = tracing.layer_metrics(spans, 1.0, 2)
    assert m["covar.batch_ok_frac"] == 127 / 128


def test_inputs_depend_only_on_seed():
    for workload in wl.WORKLOADS.values():
        assert workload.generate(7, "full") == workload.generate(7, "full")
        assert workload.generate(7, "full") != workload.generate(8, "full")


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "gauss_covar", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
