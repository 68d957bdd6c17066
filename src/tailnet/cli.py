"""Command-line front end.

Every subcommand reads one scenario JSON (see scenario.py) so a run is fully
reproducible from a single artifact.  Results print to stdout, or to the
file ``--out`` names: ``tailprob``, ``covar`` and ``network-study`` write
JSON to a name ending in ``.json`` and CSV to any other, ``sample`` writes
CSV and refuses a name ending in ``.json``, and ``qp``, ``check-ai`` and
``eci`` write JSON under any name.  Exit codes: 0 success, 2 validation
error, 3 reliability failure.  An output that cannot be written (a missing
directory, a closed pipe) exits 2 with ``error:``, after any study has run;
a ``sample`` CSV may be left partial.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import network as net
from . import rng
from .copula import Gaussian, Iid, MarshallOlkin, block_sampler
from .covar import check_eci_grid, eci_analytic_model, eci_empirical
from .errors import (DomainError, ModelError, ReliabilityError, ScenarioError,
                     TailnetError)
from .harness import (covar_rows_to_csv, rows_to_csv, run_covar_study,
                      run_tail_study, study_pair, study_to_json, top_loss_rows)
from .mrv import mutual_ai_gaussian, pairwise_ai_gaussian, solve_qp
from .scenario import Scenario, load_scenario


def _override_seed(scenario: Scenario, seed) -> Scenario:
    """``scenario`` with study seed ``seed``, also in the raw document that
    JSON outputs echo."""
    if seed is None or scenario.study is None:
        return scenario
    raw = dict(scenario.raw, study=dict(scenario.raw["study"], seed=seed))
    return replace(scenario, study=replace(scenario.study, seed=seed), raw=raw)


def _emit(text, out) -> None:
    """Write ``text``, a string or an iterable of strings written in turn."""
    parts = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(parts)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(parts)


# CSV rows formatted at a time: a narrow model's draw chunk holds tens of
# thousands of rows, whose text would outweigh the draws.
_CSV_ROWS = 4096


def _cmd_sample(scenario: Scenario, args):
    """The CSV of :func:`copula.sample`'s draws, row chunk by row chunk,
    formatted ``_CSV_ROWS`` rows at a time."""
    study, d = scenario.study, scenario.model.d
    n = args.n if args.n is not None else \
        (study.mc_budget if study else 10_000)
    # without a study section, --seed is the only seed
    seed = study.seed if study else (args.seed or 0)
    if args.out and args.out.endswith(".json"):
        raise DomainError("sample writes CSV; --out must not end in .json")
    # a bad size, model or seed is refused here, before the header is written
    plan, kernel = rng.blocks(n), block_sampler(scenario.model)
    rng.philox_stream(seed, rng.STREAM_RISK)

    def parts():
        yield ",".join(f"z{j + 1}" for j in range(d)) + "\n"
        for b, size in plan:
            g = rng.philox_stream(seed, rng.STREAM_RISK, block=b)
            for lo, hi in rng.row_chunks(size, kernel.row_width):
                z = kernel(g, hi - lo)
                for i in range(0, len(z), _CSV_ROWS):
                    yield "".join(",".join(map(repr, row)) + "\n"
                                  for row in z[i:i + _CSV_ROWS].tolist())
                del z               # not held through the next chunk's draw

    return parts()


def _cmd_qp(scenario: Scenario, args) -> str:
    dep = scenario.model.dependence
    if not isinstance(dep, Gaussian):
        raise DomainError("qp needs a gaussian dependence scenario")
    sol = solve_qp(dep.sigma)
    doc = {"gamma": sol.gamma,
           "I": [i + 1 for i in sol.index_set],
           "e_star": [float(v) for v in sol.e_star],
           "h": [float(v) for v in sol.h]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_check_ai(scenario: Scenario, args) -> str:
    dep = scenario.model.dependence
    if isinstance(dep, Gaussian):
        doc = {"family": "gaussian",
               "pairwise": pairwise_ai_gaussian(dep.sigma),
               "mutual": mutual_ai_gaussian(dep.sigma),
               "method": "exact subset criterion"}
    elif isinstance(dep, MarshallOlkin):
        doc = {"family": "marshall-olkin", "pairwise": True, "mutual": True,
               "method": "exact survival-copula factorization"}
    elif isinstance(dep, Iid):
        doc = {"family": "iid", "pairwise": True, "mutual": True,
               "method": "exact product copula"}
    else:
        raise ModelError("unsupported dependence for check-ai")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_eci(scenario: Scenario, args) -> str:
    law, case = study_pair(scenario)
    if law is None:
        rep, case = eci_analytic_model(scenario.model), "bivariate"
    else:
        rep = net.network_eci(case, scenario.model, law)
    doc = {"case": case, "eci": rep.eci, "beta": rep.beta,
           "alpha1": rep.alpha1, "alpha2": rep.alpha2}
    if args.empirical:
        if scenario.study is None:
            raise DomainError("empirical eci needs a study section")
        study = scenario.study
        check_eci_grid(study.grid)
        (y1, y2), *_ = top_loss_rows(scenario, law, max(study.grid),
                                     threads=args.threads)
        emp = eci_empirical(y1, y2, study.grid, study.upsilon,
                            n=study.mc_budget)
        doc["empirical"] = {"eci": emp.eci, "beta": emp.beta,
                            "band_factor": emp.band_factor,
                            "points": emp.n_points}
    if math.isinf(doc["eci"]):
        doc["eci"] = "inf"
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_study(scenario: Scenario, args):
    """``tailprob``, ``covar`` and ``network-study``: one study's CSV or JSON."""
    network = args.command == "network-study"
    if network and scenario.network is None:
        raise DomainError("network-study needs a network section")
    covar = args.command == "covar" or (network and scenario.study is not None
                                        and scenario.study.target == "covar")
    rows = (run_covar_study if covar else run_tail_study)(
        scenario, threads=args.threads)
    if args.out and args.out.endswith(".json"):
        kind = ("network-" if network else "") + ("covar" if covar else "tail")
        return study_to_json(scenario, rows, kind)
    return covar_rows_to_csv(rows, scenario) if covar else rows_to_csv(rows)


_COMMANDS = {
    "sample": ("draw risk vectors and emit them as CSV", _cmd_sample),
    "tailprob": ("tail-probability study over the grid", _cmd_study),
    "qp": ("solve the box-constrained quadratic program", _cmd_qp),
    "check-ai": ("pairwise/mutual asymptotic-independence verdicts",
                 _cmd_check_ai),
    "covar": ("CoVaR study over the gamma grid", _cmd_study),
    "eci": ("extreme CoVaR index (analytic, optionally empirical)", _cmd_eci),
    "network-study": ("network conditional-tail or CoVaR comparison",
                      _cmd_study),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailnet",
        description="Heavy-tailed dependence models and CoVaR asymptotics "
                    "on bipartite risk networks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the study seed")
        p.add_argument("--out", default=None,
                       help="output path; .json picks JSON for a study")
        p.add_argument("--threads", type=int, default=1,
                       help="worker cap; results do not depend on it")
        if name == "sample":
            p.add_argument("--n", type=int, default=None,
                           help="number of draws (default: study mc_budget)")
        if name == "eci":
            p.add_argument("--empirical", action="store_true",
                           help="add the slope-based empirical estimate")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise DomainError(f"--threads must be >= 1, got {args.threads}")
        scenario = _override_seed(load_scenario(args.scenario), args.seed)
        _emit(args.run(scenario, args), args.out)
    except ReliabilityError as exc:
        print(f"reliability failure: {exc}", file=sys.stderr)
        return 3
    except (ScenarioError, ModelError, DomainError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (TailnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
