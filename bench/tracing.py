"""Outside-in tracing: timing wrappers installed at the binding sites of
tailnet's public functions, an in-memory span list, and the per-layer
metrics derived from it.

A span records its name, start and end (seconds from the recorder's start),
the index of the enclosing span on the same thread, the thread id, and a
few counts taken from the call's arguments or result.  Spans stay in
memory until the run ends.  Wrappers are removed when the ``installed``
block exits, so untraced repetitions run the unmodified functions.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import statistics
import threading
import time

MIB = float(1 << 20)


class Recorder:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        rec = {"name": name, "start": time.perf_counter() - self.t0,
               "end": None, "parent": stack[-1] if stack else None,
               "thread": threading.get_ident(), "attrs": {}}
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        try:
            yield rec["attrs"]
        finally:
            stack.pop()
            rec["end"] = time.perf_counter() - self.t0

    def with_self_time(self):
        """Spans with ``self`` = duration minus the direct children on the
        same thread (children always nest inside their parent's interval)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [dict(s, self=s["end"] - s["start"] - c)
                for s, c in zip(self.spans, child)]


def _wrap(rec, name, fn, counts):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as attrs:
            attrs["ok"] = False
            if counts is None:
                out = fn(*args, **kwargs)
            else:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                out = counts(bound.arguments, attrs, fn)
            attrs["ok"] = True
            return out

    return wrapper


def _blocks(a, attrs, fn):
    attrs["blocks"] = -(-a["n"] // a["block_size"])
    return fn(**a)


def _sample(a, attrs, fn):
    attrs["rows"] = a["n"]
    attrs["mb"] = a["n"] * a["model"].d * 8 / MIB
    return fn(**a)


def _losses(tn):
    def counts(a, attrs, fn):
        law = a["law"]
        if tn.network.is_deterministic(law):
            attrs["mb"] = 0.0
        else:
            q, d = tn.network.law_shape(law)
            attrs["mb"] = a["n"] * q * d * 8 / MIB
        return fn(**a)
    return counts


def _moment(tn):
    def counts(a, attrs, fn):
        attrs["draws"] = 0 if tn.network.is_deterministic(a["law"]) else a["n_a"]
        return fn(**a)
    return counts


def _covar(tn):
    def counts(a, attrs, fn):
        # the 32 batch-means calls lower min_exceed; the full-sample call
        # keeps the default
        attrs["batch"] = a["min_exceed"] != tn.covar.MIN_EXCEEDANCES
        return fn(**a)
    return counts


def _orthant(a, attrs, fn):
    # ask for the error the caller may drop, hand back what it asked for
    val, err = fn(**dict(a, return_error=True))
    attrs["rel_err"] = err / val if val > 0 else math.inf
    return (val, err) if a["return_error"] else val


def sites(tn):
    """(module, attribute, span name, count hook) for every wrapped binding."""
    return [
        (tn.rng, "sample_blocked", "rng.sample_blocked", _blocks),
        (tn.rng, "reduce_blocked", "rng.reduce_blocked", _blocks),
        (tn.harness, "sample", "copula.sample", _sample),
        (tn.network, "sample", "copula.sample", _sample),
        (tn.network, "sample_losses", "network.sample_losses", _losses(tn)),
        (tn.network, "a_moment", "network.a_moment", _moment(tn)),
        (tn.harness, "covar_empirical", "covar.empirical", _covar(tn)),
        (tn.harness, "_tail_point", "harness.point", None),
        (tn.harness, "_covar_point", "harness.point", None),
        (tn.mrv, "solve_qp", "mrv.solve_qp", None),
        (tn.mrv, "gaussian_cone_spec", "mrv.cone_spec", None),
        (tn.mrv, "mutual_ai_gaussian", "mrv.mutual_ai", None),
        (tn.copula, "normal_orthant_survival", "orthant.survival", _orthant),
        (tn.mrv, "normal_orthant_survival", "orthant.survival", _orthant),
    ]


@contextlib.contextmanager
def installed(tn, rec):
    saved = []
    try:
        for mod, attr, name, counts in sites(tn):
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(rec, name, fn, counts))
        yield rec
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def layer_metrics(spans, wall, threads):
    """Per-layer metrics of one traced repetition (spans with self time).

    An idle layer reports 0 for its times, counts and fractions."""
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by.get(name, ()))

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in by.get(name, ()))

    def attr_max(name, key):
        return max((s["attrs"][key] for s in by.get(name, ())), default=0.0)

    def frac(num, den):
        return num / den if den else 0.0

    m = {}
    m["rng.blocks"] = attr_sum("rng.sample_blocked", "blocks") + \
        attr_sum("rng.reduce_blocked", "blocks")
    rows = attr_sum("copula.sample", "rows")
    m["copula.sample_s"] = total("copula.sample")
    m["copula.ns_per_draw"] = frac(m["copula.sample_s"] * 1e9, rows)
    m["copula.sample_mb"] = attr_max("copula.sample", "mb")
    covar = by.get("covar.empirical", [])
    batch = [s for s in covar if s["attrs"]["batch"]]
    m["covar.empirical_s"] = total("covar.empirical")
    m["covar.empirical_calls"] = len(covar)
    m["covar.batch_ok_frac"] = frac(sum(s["attrs"]["ok"] for s in batch),
                                    len(batch))
    m["network.sample_losses_s"] = total("network.sample_losses")
    # sample_losses minus its risk-vector draw: adjacency draw and redraws
    # (inside rng.sample_blocked) plus the einsum
    sampled = {}
    for s in by.get("copula.sample", ()):
        if s["parent"] is not None:
            sampled[s["parent"]] = sampled.get(s["parent"], 0.0) + dur(s)
    m["network.adjacency_s"] = sum(
        dur(s) - sampled.get(i, 0.0) for i, s in enumerate(spans)
        if s["name"] == "network.sample_losses")
    m["network.adjacency_mb"] = attr_max("network.sample_losses", "mb")
    m["network.a_moment_s"] = total("network.a_moment")
    m["network.a_moment_calls"] = len(by.get("network.a_moment", ()))
    m["network.moment_draws"] = attr_sum("network.a_moment", "draws")
    m["mrv.solve_qp_s"] = total("mrv.solve_qp")
    m["mrv.solve_qp_calls"] = len(by.get("mrv.solve_qp", ()))
    m["mrv.cone_spec_s"] = total("mrv.cone_spec")
    m["mrv.mutual_ai_s"] = total("mrv.mutual_ai")
    m["orthant.survival_s"] = total("orthant.survival")
    m["orthant.calls"] = len(by.get("orthant.survival", ()))
    m["orthant.rel_err"] = attr_max("orthant.survival", "rel_err")
    points = by.get("harness.point", [])
    m["harness.point_s_median"] = statistics.median(dur(s) for s in points) \
        if points else 0.0
    m["harness.point_s_max"] = max((dur(s) for s in points), default=0.0)
    m["harness.self_s"] = sum(s["self"] for s in points)
    m["harness.busy_frac"] = frac(sum(dur(s) for s in points), threads * wall)
    return m
