"""The three benchmark workloads: seeded input generators, the timed
operation of each, and the checks on its output.

Every workload turns a workload seed into an input document (a scenario for
the Monte Carlo studies, factor loadings for the closed-form mix).  tailnet
receives only what is built from that document.  The timed operation is the
call sequence the CLI makes; its result is formatted text plus one record
per operation (a study row or a closed-form query), and the checks decide
which operations passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

DEFAULT_SEED = 1

MC_THREADS = 2          # nproc of the reference machine: both cores busy

# Seed-independent band on empirical / asymptotic for every study row.  The
# asymptotics are leading-order, so a correct row can sit far from 1 (the
# Gaussian CoVaR rate converges slowly); a ratio outside this band means
# the estimate or the formula is broken, not slow.
RATIO_BAND = (0.2, 5.0)

# Tolerance of closed-form values against the recorded reference: linear
# algebra answers are exact up to rounding; an integrated orthant
# probability may move by 1% or three of the reference's reported errors,
# whichever is larger, so that another integration method can pass.
EXACT_RTOL = 1e-9
INTEGRATED_RTOL = 1e-2

SIZES = {
    "full": {"covar_budget": 10_000_000, "network_budget": 3_000_000,
             "qp_d": 14, "cone_d": 9, "survival_d": (6, 8)},
    "small": {"covar_budget": 1_000_000, "network_budget": 300_000,
              "qp_d": 8, "cone_d": 6, "survival_d": (4, 5)},
}


def _rand(name: str, seed: int) -> random.Random:
    # str seeds hash deterministically, so inputs do not depend on the platform
    return random.Random(f"{name}:{seed}")


def _study_seed(name: str, seed: int) -> int:
    return _rand(name, seed).randrange(1 << 31)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- Monte Carlo studies ---------------------------------------------------

class StudyWorkload:
    """A CLI study path: load_scenario, run the study at MC_THREADS, format
    the rows exactly as ``tailnet <subcommand> --out x.csv`` writes them."""

    threads = MC_THREADS

    def build(self, tn, path):
        return tn.scenario.load_scenario(path)

    def execute(self, tn, scenario):
        rows = self._run(tn, scenario)
        return self._format(tn, rows, scenario), rows

    def check(self, doc, rows):
        """Per-row verdicts: finite values, positive stderr, ratio in band."""
        grid = doc["study"]["grid"]
        verdicts = []
        for i, row in enumerate(rows):
            vals = (row.empirical, row.stderr, row.asymptotic)
            ok = (i < len(grid) and row.grid_value == float(grid[i])
                  and all(math.isfinite(v) for v in vals)
                  and row.stderr > 0 and row.asymptotic > 0
                  and row.ratio is not None
                  and RATIO_BAND[0] <= row.ratio <= RATIO_BAND[1]
                  and "low-hits" not in row.flag)
            verdicts.append(ok)
        return verdicts

    def matches(self, text, rows, reference):
        """The study bytes equal the recorded digest: all rows or none."""
        return [digest(text) == reference["sha256"]] * len(rows)

    def ops(self, doc):
        return len(doc["study"]["grid"])


class GaussCovar(StudyWorkload):
    """CLI ``covar``.  rng and the Gaussian copula transform take about 86%
    of point time, the empirical CoVaR order statistics about 14% (33
    ``covar_empirical`` calls per point: one full, 32 batches); network, mrv
    and orthant are idle.  Four points keep both threads busy and each
    materialises a 1e7 x 2 sample, so memory traffic shows here."""

    name = "gauss_covar"
    draw = "normal"

    def generate(self, seed, size):
        return {"margin": {"alpha": 1.0, "theta": 1.0},
                "dependence": {"kind": "gaussian",
                               "sigma": [[1.0, 0.5], [0.5, 1.0]]},
                "study": {"grid": [1e-2, 3e-3, 1e-3, 3e-4],
                          "mc_budget": SIZES[size]["covar_budget"],
                          "seed": _study_seed(self.name, seed),
                          "target": "covar"}}

    def _run(self, tn, scenario):
        return tn.harness.run_covar_study(scenario, threads=self.threads)

    def _format(self, tn, rows, scenario):
        return tn.harness.covar_rows_to_csv(rows, scenario)


class NetworkTail(StudyWorkload):
    """CLI ``network-study`` with target ``cond``: Marshall-Olkin "equal",
    d = 4, a random q = 3 law whose agents 1 and 2 hold disjoint assets (the
    disjoint-mo-equal case).  About 48% of point time is the MO shock
    sampler (15 exponentials per draw), about 46% adjacency sampling (the
    no-trivial-row redraw loop and the (n, 2, d) einsum); the rest is
    ``a_moment`` and hit counting.  It reduces by counting where gauss_covar
    reduces by order statistic, and leaves covar idle: each is the other's
    bypass."""

    name = "network_tail"
    draw = "exponential"

    def generate(self, seed, size):
        return {"margin": {"alpha": 1.0, "theta": 1.0},
                "dependence": {"kind": "mo", "d": 4, "mo_variant": "equal"},
                "network": {"q": 3, "d": 4,
                            "edge_prob": [[0.7, 0.7, 0.0, 0.0],
                                          [0.0, 0.0, 0.7, 0.7],
                                          [0.5, 0.5, 0.5, 0.5]],
                            "weights": {"kind": "uniform", "lo": 0.5,
                                        "hi": 1.5}},
                "study": {"grid": [10.0, 30.0, 100.0, 300.0],
                          "mc_budget": SIZES[size]["network_budget"],
                          "seed": _study_seed(self.name, seed),
                          "target": "cond"}}

    def _run(self, tn, scenario):
        return tn.harness.run_tail_study(scenario, threads=self.threads)

    def _format(self, tn, rows, scenario):
        return tn.harness.rows_to_csv(rows)


# -- closed-form Gaussian queries -------------------------------------------

def one_factor(loadings):
    """Sigma = l l' + diag(1 - l^2), a one-factor correlation matrix."""
    d = len(loadings)
    return [[1.0 if i == j else loadings[i] * loadings[j] for j in range(d)]
            for i in range(d)]


class GaussClosedForm:
    """A fixed query mix on one-factor correlation matrices, one thread, no
    Monte Carlo: solve_qp, mutual_ai_gaussian and gaussian_tail_asymptotic
    at d = 14, gaussian_cone_spec at d = 9 for i = 2, 3, and survival_copula
    with its error at d = 6 and 8, u = 1e-3.  mrv (QP active-set
    enumeration, about 55%) and orthant (lattice integration, about 45%) do
    all the work; sampling, covar and network are idle.

    The orthant integrator doubles its points until its error estimate
    meets 1e-3, so its time jumps by powers of two with the matrix.  At
    d = 5 that made the mix's time depend on the seed (0.3 to 1.8 s for one
    query).  At d = 6 and 8 it reached the point cap, or met the target on
    its last doubling, on each of ten seeds tried."""

    name = "gauss_closed_form"
    draw = "uniform"
    threads = 1
    QUERIES = ("qp", "mutual_ai", "tail", "cone_i2", "cone_i3",
               "survival_a", "survival_b")
    U = 1e-3
    T = 1e3

    def generate(self, seed, size):
        r = _rand(self.name, seed)
        s = SIZES[size]
        dims = {"qp": s["qp_d"], "cone": s["cone_d"],
                "survival_a": s["survival_d"][0],
                "survival_b": s["survival_d"][1]}
        return {"loadings": {k: [r.uniform(0.3, 0.8) for _ in range(d)]
                             for k, d in dims.items()}}

    def build(self, tn, path):
        with open(path, encoding="utf-8") as fh:
            lam = json.load(fh)["loadings"]
        inp = {k: tn.copula.CorrelationMatrix(one_factor(lam[k]))
               for k in ("qp", "cone")}
        for k in ("survival_a", "survival_b"):
            inp[k] = tn.copula.RiskModel.gaussian(one_factor(lam[k]), 1.0, 1.0)
        return inp

    def execute(self, tn, inp):
        mrv, copula = tn.mrv, tn.copula
        sig = inp["qp"]
        d = sig.d
        rect = mrv.RectSet(d, tuple(range(d)), (1.0,) * d)
        calls = {
            "qp": lambda: _qp_doc(mrv.solve_qp(sig)),
            "mutual_ai": lambda: mrv.mutual_ai_gaussian(sig),
            "tail": lambda: mrv.gaussian_tail_asymptotic(sig, 1.0, 1.0, rect,
                                                         self.T),
            "cone_i2": lambda: _cone_doc(mrv.gaussian_cone_spec(inp["cone"],
                                                                1.0, 1.0, 2)),
            "cone_i3": lambda: _cone_doc(mrv.gaussian_cone_spec(inp["cone"],
                                                                1.0, 1.0, 3)),
            "survival_a": lambda: _survival(copula, inp["survival_a"], self.U),
            "survival_b": lambda: _survival(copula, inp["survival_b"], self.U),
        }
        results = {}
        for name in self.QUERIES:
            try:
                results[name] = calls[name]()
            except tn.errors.TailnetError as exc:
                results[name] = {"raised": f"{type(exc).__name__}: {exc}"}
        text = json.dumps(results, indent=1, sort_keys=True) + "\n"
        return text, results

    def check(self, doc, results):
        sig = one_factor(doc["loadings"]["qp"])
        return [_query_ok(name, results.get(name), sig, self.U)
                for name in self.QUERIES]

    def matches(self, text, results, reference):
        out = []
        for name in self.QUERIES:
            res, ref = results.get(name), reference["values"][name]
            if name.startswith("survival"):
                tol = max(INTEGRATED_RTOL * ref["value"], 3.0 * ref["error"])
                out.append(isinstance(res, dict) and "value" in res and
                           abs(res["value"] - ref["value"]) <= tol)
            else:
                out.append(_close(res, ref, EXACT_RTOL))
        return out

    def ops(self, doc):
        return len(self.QUERIES)


def _qp_doc(sol):
    return {"I": list(sol.index_set), "gamma": sol.gamma,
            "h": [float(v) for v in sol.h],
            "e_star": [float(v) for v in sol.e_star]}


def _cone_doc(spec):
    return {"alpha_i": spec.alpha_i, "card_i": spec.card_i,
            "argmin_sets": [list(s) for s in spec.argmin_sets],
            "binv": spec.b_inv.to_json()}


def _survival(copula, model, u):
    val, err = copula.survival_copula(model, [u] * model.d, return_error=True)
    return {"value": val, "error": err}


def _finite_pos(x):
    return isinstance(x, float) and math.isfinite(x) and x > 0


def _qp_kkt(res, sig, tol=1e-8):
    """h > 0, Sigma_II h = 1, e*_I = 1, e*_J = Sigma_JI h >= 1, gamma = sum h."""
    idx, h, e = res["I"], res["h"], res["e_star"]
    if not idx or len(h) != len(idx) or min(h) <= 0:
        return False
    if not math.isclose(res["gamma"], math.fsum(h), rel_tol=1e-12):
        return False
    for j in range(len(sig)):
        sh = math.fsum(sig[j][i] * hi for i, hi in zip(idx, h))
        if j in idx and (abs(sh - 1.0) > tol or e[j] != 1.0):
            return False
        if j not in idx and (abs(sh - e[j]) > tol or e[j] < 1.0 - tol):
            return False
    return res["gamma"] > 1.0


def _query_ok(name, res, sig, u):
    if res is None or (isinstance(res, dict) and "raised" in res):
        return False
    if name == "qp":
        return _qp_kkt(res, sig)
    if name == "mutual_ai":
        return isinstance(res, bool)
    if name == "tail":
        return _finite_pos(res) and res < 1.0
    if name.startswith("cone"):
        i = int(name[-1])
        return (_finite_pos(res["alpha_i"]) and res["alpha_i"] > 1.0
                and res["card_i"] >= 1 and len(res["argmin_sets"]) >= 1
                and all(len(s) >= i for s in res["argmin_sets"]))
    return (_finite_pos(res["value"]) and res["value"] <= u
            and isinstance(res["error"], float) and math.isfinite(res["error"])
            and res["error"] >= 0)


def _close(a, b, rtol):
    """Structural comparison of a result against its reference."""
    if isinstance(b, dict):
        return isinstance(a, dict) and a.keys() == b.keys() and \
            all(_close(a[k], b[k], rtol) for k in b)
    if isinstance(b, list):
        return isinstance(a, list) and len(a) == len(b) and \
            all(_close(x, y, rtol) for x, y in zip(a, b))
    if isinstance(b, float) and not isinstance(a, bool):
        return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=rtol)
    return a == b


def verdicts(workload, doc, text, results, reference=None):
    """Per-operation pass/fail: the seed-independent checks, and when a
    recorded reference applies (default seed, full size), agreement with it."""
    n = workload.ops(doc)
    if results is None:
        return [False] * n
    ok = workload.check(doc, results)
    ok = ok[:n] + [False] * (n - len(ok))
    if reference is not None:
        ok = [a and b for a, b in zip(ok, workload.matches(text, results,
                                                            reference))]
    return ok


WORKLOADS = {w.name: w for w in (GaussCovar(), NetworkTail(), GaussClosedForm())}
