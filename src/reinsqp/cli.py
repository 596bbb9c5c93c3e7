"""Command line front end.

Five subcommands, one job each: ``validate`` checks a scenario file and
reports every problem, ``solve`` runs the structured approximation ladder,
``oracle`` runs the dense reference program, ``spectrum`` reports the
stagewise spectral sets against the dense eigenvalues, and ``compare``
runs both solve routes and reports how far apart they land.

Reports are JSON with sorted keys and no timestamps, so identical inputs
produce byte-identical output.  Exit codes: 0 success, 1 invalid input
(usage errors and out-of-range options included), 2 infeasible problem,
3 numerical failure.  Set ``REINSQP_LOG`` to a level name (DEBUG, INFO,
...) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__, elimination, multipliers, oracle
from .contracts import check_hypotheses, compute_moments
from .errors import Infeasible, InfeasibleDeterministic, InputError, ReinsqpError
from .multipliers import MultiplierSet, iterate, iterate_max_mean, kkt_verify
from .operators import Kind, dense_matrix, representers
from .oracle import dense_qp
from .portfolio import Form, evaluate_constraints
from .scenario import check, load, read
from .tree import PortfolioProcess, ScenarioTree

log = logging.getLogger("reinsqp.cli")

#: default cycle budget for the approximation ladder
DEFAULT_MAX_ITER = 25
#: default number of floors in a frontier sweep
DEFAULT_FRONTIER_POINTS = 9


def _setup_logging() -> None:
    raw = os.environ.get("REINSQP_LOG", "")
    level = getattr(logging, raw.upper(), None) if raw else None
    logging.basicConfig(
        stream=sys.stderr,
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _plan_payload(tree: ScenarioTree, plan: PortfolioProcess) -> dict:
    return {"stages": [
        {"issue_time": k, "nodes": tree.node_ids[k].tolist(), "positions": s.values.tolist()}
        for k, s in enumerate(plan.stages)
    ]}


def _multiplier_payload(tree: ScenarioTree, mults: MultiplierSet) -> dict:
    return {
        "roe": [float(x) for x in mults.roe],
        "mean": float(mults.mean),
        "bounds": _plan_payload(tree, mults.bounds),
    }


def _load_scenario(args):
    scenario = load(args.input)
    config = scenario.config
    if getattr(args, "e", None) is not None:
        config = dataclasses.replace(config, mean_floor=args.e)
    if getattr(args, "sigma2", None) is not None:
        config = dataclasses.replace(config, variance_cap=args.sigma2)
    config.check_horizon(scenario.tree)
    return scenario.tree, scenario.book, config


def _checked_hypotheses(tree, book, strict: bool) -> dict:
    hyp = check_hypotheses(tree, book)
    if not hyp.all_ok:
        if strict:
            raise InputError(
                "scenario violates the moment hypotheses: " + json.dumps(hyp.as_dict())
            )
        log.warning("moment hypotheses violated; structured results may be off")
    return hyp.as_dict()


def _self_check(tree, book, config, seed: int) -> None:
    representers(tree, book, config, self_check=2, rng=np.random.default_rng(seed))


def cmd_validate(args) -> int:
    problems, scenario = check(read(args.input))
    payload = {
        "report_type": "validate",
        "input": args.input,
        "ok": not problems,
        "problems": problems,
        "hypotheses": None,
    }
    rc = 0 if not problems else 1
    if not problems:
        hyp = check_hypotheses(scenario.tree, scenario.book)
        payload["hypotheses"] = hyp.as_dict()
        if args.strict and not hyp.all_ok:
            rc = 1
    _emit(args, payload)
    return rc


def _solve_payload(tree, res, form: str) -> dict:
    return {
        "plan": _plan_payload(tree, res.plan),
        "relaxed_plan": _plan_payload(tree, res.relaxed_plan),
        "multipliers": _multiplier_payload(tree, res.multipliers),
        "kkt": res.report.as_dict(),
        "history": [float(h) for h in res.history],
        "iterations": res.iterations,
        "converged": res.converged,
        "flags": {
            "near_singular_gram": res.near_singular,
            "non_monotone": res.non_monotone,
            "unverified_solves": res.fallbacks,
        },
        "deterministic": {
            "stage_positions": res.deterministic.stage_positions.tolist(),
        },
        "form": form,
    }


def _bisection_payload(mean_floor: float, cap_binding: bool, trace) -> dict:
    return {
        "mean_floor": float(mean_floor),
        "cap_binding": cap_binding,
        "trace": [[float(e), float(v)] for e, v in trace],
    }


def _structured(args, tree, book, config):
    """The ladder's answer in the chosen form, with the floor search that
    found it for the max-mean form (None for the others)."""
    form = Form(args.form)
    if form is Form.MAX_MEAN:
        mm = iterate_max_mean(tree, book, config, max_iter=args.max_iter, tol=args.tol_kkt)
        return mm.result, mm
    res = iterate(tree, book, config, max_iter=args.max_iter, tol=args.tol_kkt, form=form)
    return res, None


def _frontier_csv(args, tree, book, config) -> None:
    rows, levels = oracle.constraint_rows(tree, book, config)
    e_max = oracle.max_attainable_mean(rows, levels)
    base = config.mean_floor
    top = e_max if e_max is not None else base + 4 * max(1.0, abs(base))
    floors = np.linspace(base, top, args.frontier_points)
    with open(args.frontier_csv, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mean_floor", "mean", "variance", "kkt_total", "converged"])
        for floor in floors:
            cfg = dataclasses.replace(
                config, mean_floor=float(floor), variance_cap=None
            )
            try:
                res = iterate(tree, book, cfg, max_iter=args.max_iter, tol=args.tol_kkt)
            except InfeasibleDeterministic:
                log.warning("frontier sweep stops: floor %g infeasible", floor)
                break
            report = evaluate_constraints(tree, book, cfg, res.plan)
            writer.writerow(
                [
                    repr(float(floor)),
                    repr(float(report.mean_value)),
                    repr(float(report.variance_value)),
                    repr(float(res.report.total)),
                    res.converged,
                ]
            )


def cmd_solve(args) -> int:
    tree, book, config = _load_scenario(args)
    hyp = _checked_hypotheses(tree, book, args.strict)
    _self_check(tree, book, config, args.seed)

    res, mm = _structured(args, tree, book, config)
    bisection = (
        None if mm is None else _bisection_payload(mm.mean_floor, mm.cap_binding, mm.trace)
    )
    log.info(
        "ladder finished: %d cycles, kkt total %.3e", res.iterations, res.report.total
    )
    report = evaluate_constraints(tree, book, config, res.plan)
    payload = _solve_payload(tree, res, args.form)
    payload.update(
        {
            "report_type": "solve",
            "input": args.input,
            "seed": args.seed,
            "hypotheses": hyp,
            "constraints": report.as_dict(),
            "objective": {
                "mean": float(report.mean_value),
                "variance": float(report.variance_value),
            },
            "bisection": bisection,
        }
    )
    if args.frontier_csv:
        if args.form != Form.MIN_VARIANCE:
            raise InputError("--frontier-csv needs --form min-variance")
        _frontier_csv(args, tree, book, config)
    _emit(args, payload)
    if args.strict and not res.converged:
        log.error("solve did not reach the optimality tolerance")
        return 3
    return 0


def cmd_oracle(args) -> int:
    tree, book, config = _load_scenario(args)
    hyp = _checked_hypotheses(tree, book, args.strict)
    _self_check(tree, book, config, args.seed)
    form = Form(args.form)
    sol = dense_qp(tree, book, config, form)
    log.info("dense program finished: %d pivots", sol.n_pivots)
    mults = MultiplierSet(sol.roe_multipliers, sol.mean_multiplier, sol.bound_multipliers)
    if form is Form.MAX_MEAN:
        check_config = dataclasses.replace(
            config, mean_floor=sol.mean_floor, variance_cap=None
        )
    else:
        check_config = config
    kkt = kkt_verify(tree, book, check_config, sol.plan, mults, form, tol=args.tol_kkt)
    payload = {
        "report_type": "oracle",
        "input": args.input,
        "seed": args.seed,
        "form": args.form,
        "hypotheses": hyp,
        "plan": _plan_payload(tree, sol.plan),
        "multipliers": _multiplier_payload(tree, mults),
        "kkt": kkt.as_dict(),
        "constraints": evaluate_constraints(tree, book, check_config, sol.plan).as_dict(),
        "objective": {
            "mean": float(sol.mean_value),
            "variance": float(sol.variance_value),
            "value": float(sol.objective),
        },
        "n_pivots": sol.n_pivots,
        "bisection": None,
    }
    if form is Form.MAX_MEAN:
        payload["bisection"] = _bisection_payload(
            sol.mean_floor, sol.cap_binding, sol.bisection_trace
        )
    _emit(args, payload)
    if args.strict and not kkt.converged:
        log.error("oracle optimality check failed")
        return 3
    return 0


def cmd_spectrum(args) -> int:
    tree, book, _config = _load_scenario(args)
    hyp = _checked_hypotheses(tree, book, args.strict)
    moments = compute_moments(tree, book)
    sets = elimination.spectral_sets(moments, 0.0)
    dense_a = np.linalg.eigvalsh(dense_matrix(Kind.SECOND_MOMENT, tree, book))
    dense_b = np.linalg.eigvalsh(dense_matrix(Kind.VARIANCE, tree, book))
    dist_a = max(
        elimination.spectrum_distance(moments, float(ev), Kind.SECOND_MOMENT)
        for ev in dense_a
    )
    dist_b = max(
        elimination.spectrum_distance(moments, float(ev), Kind.VARIANCE)
        for ev in dense_b
    )
    payload = {
        "report_type": "spectrum",
        "input": args.input,
        "hypotheses": hyp,
        "sets": {
            "raw": [float(x) for x in sets.raw],
            "centered": [float(x) for x in sets.centered],
        },
        "dense": {
            "raw": [float(x) for x in dense_a],
            "centered": [float(x) for x in dense_b],
        },
        "membership": {
            "raw_max_distance": float(dist_a),
            "centered_max_distance": float(dist_b),
        },
        "positive_definite": bool(dense_a.min() > 0 and dense_b.min() > 0),
    }
    _emit(args, payload)
    return 0


def cmd_compare(args) -> int:
    tree, book, config = _load_scenario(args)
    hyp = _checked_hypotheses(tree, book, args.strict)
    _self_check(tree, book, config, args.seed)

    sol = dense_qp(tree, book, config, args.form)
    res, _ = _structured(args, tree, book, config)
    solve_report = evaluate_constraints(tree, book, config, res.plan)
    scale = 1.0 + sol.plan.max_abs()
    plan_dev = (res.plan - sol.plan).max_abs()
    payload = {
        "report_type": "compare",
        "input": args.input,
        "seed": args.seed,
        "form": args.form,
        "hypotheses": hyp,
        "solve": {
            "plan": _plan_payload(tree, res.plan),
            "kkt": res.report.as_dict(),
            "converged": res.converged,
            "iterations": res.iterations,
            "mean": float(solve_report.mean_value),
            "variance": float(solve_report.variance_value),
        },
        "oracle": {
            "plan": _plan_payload(tree, sol.plan),
            "mean": float(sol.mean_value),
            "variance": float(sol.variance_value),
            "n_pivots": sol.n_pivots,
        },
        "deviation": {
            "plan_max_abs": float(plan_dev),
            "plan_relative": float(plan_dev / scale),
            "mean": float(abs(solve_report.mean_value - sol.mean_value)),
            "variance": float(abs(solve_report.variance_value - sol.variance_value)),
        },
    }
    _emit(args, payload)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input (exit 1); argparse's 2 means infeasible here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ranged(cast, ok, what: str):
    """An argparse type: ``cast`` of the text, which must pass ``ok``."""

    def parse(text: str):
        if not ok(value := cast(text)):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    parse.__name__ = cast.__name__
    return parse


_COUNT = _ranged(int, lambda n: n >= 0, "a nonnegative integer")
_TOLERANCE = _ranged(float, lambda x: 0 < x < math.inf, "a finite positive number")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reinsqp",
        description="Multiperiod underwriting portfolios on scenario trees.",
    )
    parser.add_argument("--version", action="version", version=f"reinsqp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeded: bool = True, formed: bool = True):
        p.add_argument("--input", required=True, help="scenario JSON file")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--strict", action="store_true",
                       help="turn hypothesis violations and unverified results into errors")
        if formed:
            p.add_argument("--form", choices=[f.value for f in Form],
                           default=Form.MIN_VARIANCE.value,
                           help="problem form (default min-variance)")
            p.add_argument("--e", type=float, default=None,
                           help="override the mean floor")
            p.add_argument("--sigma2", type=float, default=None,
                           help="override the variance cap")
            p.add_argument("--tol-kkt", type=_TOLERANCE, default=multipliers.KKT_TOL,
                           help="optimality tolerance")
            p.add_argument("--max-iter", type=_COUNT, default=DEFAULT_MAX_ITER,
                           help="projection cycle budget")
        if seeded:
            p.add_argument("--seed", type=_COUNT, default=0,
                           help="seed for the randomized self-checks")

    p = sub.add_parser("validate", help="check a scenario file and report every problem")
    add_common(p, seeded=False, formed=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="structured approximation ladder")
    add_common(p)
    p.add_argument("--frontier-csv", help="write a mean-floor/variance frontier CSV here")
    p.add_argument("--frontier-points", default=DEFAULT_FRONTIER_POINTS,
                   type=_ranged(int, lambda n: n >= 1, "a positive integer"),
                   help="floors in the frontier sweep")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="dense reference quadratic program")
    add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("spectrum", help="spectral sets against dense eigenvalues")
    add_common(p, seeded=False, formed=False)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("compare", help="run both routes and report the deviation")
    add_common(p)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging()
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except ReinsqpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
