"""tailnet benchmark: run one workload for one measured window and print
its metrics, the last line of standard output being one JSON object.

    python3 bench/run.py --workload gauss_covar --seed 1 --seconds 30 --trace 0

It imports tailnet from the ``src`` directory beside ``bench``.
``--trace 0`` prints the end-to-end metrics: every repetition is a fresh
interpreter that imports tailnet, builds the inputs and runs the study, as
one CLI invocation does.  ``--trace 1`` prints the per-layer metrics from
repetitions run in this process, alternately untraced and traced.  See
metrics.json for the catalogue.  Files it writes go to ``bench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5             # set-ups timed per run at least; setup_s is their median
CALIBRATION_REPS = 5
CHILD_TIMEOUT = 170


def load_tailnet():
    """Import tailnet from this checkout's sources, never from elsewhere.

    A workload uses at most nproc = 2 threads: the harness's point threads,
    or one for the closed-form mix.  BLAS pools on top of them would add
    spinning workers, CPU time and noise, so they are pinned to one thread
    before numpy loads (and in every process started from here)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "tailnet" / "__init__.py").is_file():
        raise SystemExit(f"bench: no tailnet sources under {src}")
    sys.path.insert(0, str(src))
    import tailnet
    import tailnet.harness  # noqa: F401  (not imported by the package)
    if Path(tailnet.__file__).resolve().parent != (src / "tailnet").resolve():
        raise SystemExit(f"bench: imported tailnet from {tailnet.__file__}")
    return tailnet


def catalogue():
    with open(HERE / "metrics.json", encoding="utf-8") as fh:
        return json.load(fh)


def write_inputs(workload, seed, size):
    doc = workload.generate(seed, size)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-{seed}-{size}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return doc, str(path)


def reference_for(workload, seed, size):
    if seed != wl.DEFAULT_SEED or size != "full":
        return None
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload.name]


class Rep:
    """One timed execution of the workload's operation in this process."""

    def __init__(self, tn, workload, inputs, recorder=None):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if recorder is None:
                self.text, self.results = workload.execute(tn, inputs)
            else:
                with tracing.installed(tn, recorder):
                    self.text, self.results = workload.execute(tn, inputs)
        except tn.errors.TailnetError as exc:
            print(f"bench: {workload.name} failed: {exc}", file=sys.stderr)
            self.text, self.results = None, None
        self.wall = time.perf_counter() - t0
        self.cpu = time.process_time() - c0
        self.recorder = recorder

    def summary(self, workload, doc, reference):
        return {"wall": self.wall, "cpu": self.cpu,
                "sha256": None if self.text is None else wl.digest(self.text),
                "ok": wl.verdicts(workload, doc, self.text, self.results,
                                  reference)}


def child(args):
    """A repetition in a fresh interpreter: report "ready" once the inputs
    are built, then (unless only set-up is timed) one summary line."""
    tn = load_tailnet()
    workload = wl.WORKLOADS[args.workload]
    inputs = workload.build(tn, args.rep)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    with open(args.rep, encoding="utf-8") as fh:
        doc = json.load(fh)
    out = Rep(tn, workload, inputs).summary(
        workload, doc, reference_for(workload, args.seed, args.size))
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out), flush=True)
    return 0


def spawn(args, path, setup_only=False):
    """Run one child; return its set-up seconds and its summary.  Set-up is
    the time from spawning it until it is ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--rep", path]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            proc.kill()
    if ready != "ready\n" or code != 0:
        raise SystemExit(f"bench: repetition exited with {code}")
    return setup, (None if setup_only else json.loads(rest))


def run_window(seconds, start_rep, min_reps):
    """Closed loop: repetitions back to back; another one starts while at
    least half of a typical repetition fits in ``seconds``."""
    reps, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(start_rep(len(reps)))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and \
                elapsed + statistics.median(durations) / 2 > seconds:
            return reps


def account(summaries):
    """Attempted and failed operations over all repetitions.  Every
    repetition must also reproduce the first one's bytes."""
    attempted = failed = 0
    for s in summaries:
        ok = s["ok"]
        if s["sha256"] is None or s["sha256"] != summaries[0]["sha256"]:
            ok = [False] * len(ok)
        attempted += len(ok)
        failed += ok.count(False)
    return attempted, failed


def end_to_end(args, path):
    """Fresh-interpreter repetitions, plus set-up-only children until at
    least SETUPS set-ups are timed."""
    reps = run_window(args.seconds, lambda i: spawn(args, path), 1)
    setups = [r[0] for r in reps]
    while len(setups) < SETUPS:
        setups.append(spawn(args, path, setup_only=True)[0])
    summaries = [r[1] for r in reps]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(s["wall"] for s in summaries),
        "cpu_s": statistics.median(s["cpu"] for s in summaries),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in summaries),
    }
    return metrics, summaries


def draw_ns(tn, workload, seed):
    """ns per raw value of one Philox block in the workload's distribution."""
    n = tn.rng.BLOCK_SIZE
    times = []
    for rep in range(CALIBRATION_REPS):
        g = tn.rng.philox_stream(seed, tn.rng.STREAM_STUDY_BASE, block=rep)
        fn = {"normal": g.standard_normal, "exponential": g.standard_exponential,
              "uniform": g.random}[workload.draw]
        t0 = time.perf_counter()
        fn(n)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e9 / n


def build_seconds(tn, workload, path):
    times = []
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        workload.build(tn, path)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(tn, args, doc, path):
    """In-process repetitions, alternately untraced and traced, after a
    small-size warm-up so that lazy first-call costs fall on neither."""
    workload = wl.WORKLOADS[args.workload]
    inputs = workload.build(tn, path)
    _, small = write_inputs(workload, args.seed, "small")
    workload.execute(tn, workload.build(tn, small))
    reps = run_window(args.seconds, lambda i: Rep(
        tn, workload, inputs, tracing.Recorder() if i % 2 else None), 2)
    traced = [r for r in reps if r.recorder is not None]
    plain = [r for r in reps if r.recorder is None]
    per_rep = [tracing.layer_metrics(r.recorder.with_self_time(), r.wall,
                                     workload.threads) for r in traced]
    m = {k: statistics.median(d[k] for d in per_rep) for k in per_rep[0]}
    m["rng.draw_ns"] = draw_ns(tn, workload, args.seed)
    m["scenario.load_s"] = build_seconds(tn, workload, path)
    m["trace.overhead"] = statistics.median(r.wall for r in traced) / \
        statistics.median(r.wall for r in plain)
    trace = {"workload": workload.name, "seed": args.seed,
             "threads": workload.threads,
             "reps": [{"wall_s": r.wall, "spans": r.recorder.with_self_time()}
                      for r in traced]}
    trace_path = OUT / f"trace-{workload.name}-{args.seed}.json"
    trace_path.write_text(json.dumps(trace) + "\n", encoding="utf-8")
    print(f"trace: {trace_path}")
    reference = reference_for(workload, args.seed, args.size)
    return m, [r.summary(workload, doc, reference) for r in reps]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(wl.SIZES), default="full",
                    help="'small' is for the benchmark's own tests")
    ap.add_argument("--rep", metavar="INPUTS", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.rep:
        return child(args)

    tn = load_tailnet()  # fails early without sources, compiles them once
    units = {m["name"]: m["unit"] for m in catalogue()["metrics"]}
    workload = wl.WORKLOADS[args.workload]
    doc, path = write_inputs(workload, args.seed, args.size)
    if args.trace:
        metrics, summaries = per_layer(tn, args, doc, path)
    else:
        metrics, summaries = end_to_end(args, path)
    attempted, failed = account(summaries)
    if not args.trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
    metrics = {k: metrics[k] for k in units if k in metrics}
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    print(f"{workload.name}: {len(summaries)} repetitions (wall "
          f"{', '.join(format(s['wall'], '.3f') for s in summaries)} s), "
          f"{attempted} operations, {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
