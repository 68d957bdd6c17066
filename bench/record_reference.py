"""Record bench/reference.json: the default-seed, full-size outputs the
benchmark checks against.

    python3 bench/record_reference.py

Study digests come from the tailnet CLI itself (``tailnet <subcommand>
--out x.csv``), so the benchmark's bytes are held to what a user gets.
Closed-form values come from the benchmark's own query mix.  Re-record only
when a change of output is intended, and say so.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import workloads as wl

CLI = {"gauss_covar": "covar", "network_tail": "network-study"}


def main():
    tn = run.load_tailnet()
    ref = {}
    for name, workload in wl.WORKLOADS.items():
        _, path = run.write_inputs(workload, wl.DEFAULT_SEED, "full")
        if name in CLI:
            out = run.OUT / f"{name}-reference.csv"
            subprocess.run(
                [sys.executable, "-m", "tailnet.cli", CLI[name], "--scenario",
                 path, "--threads", str(workload.threads), "--out", str(out)],
                check=True, env=dict(os.environ, PYTHONPATH=str(run.ROOT / "src")))
            ref[name] = {"sha256": wl.digest(out.read_text(encoding="utf-8"))}
        else:
            _, results = workload.execute(tn, workload.build(tn, path))
            ref[name] = {"values": results}
    ref["seed"] = wl.DEFAULT_SEED
    (run.HERE / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
