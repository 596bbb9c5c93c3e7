"""The three workloads: their inputs, set-up, one timed round, and checks.

Inputs of the operations that fail on every run because of a known fault
(the multi-stage ladder solves in ``batch``, the shift-0 solves in
``deep``) come from ``FIXED_SEED``, not from ``--seed``, so the share of
failed operations is the same in every run.  Everything else is drawn from
``--seed``.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

import checks
import gen

#: seed of the inputs whose failures are known faults of the program
FIXED_SEED = 101
#: cycle budget of every ladder call (the coin example needs about 140)
CYCLES = 300
#: spectral shift of the deep workload's shifted solves: the ADMM x-update
SHIFT = -1.0
#: condition ceiling of the weighted Gram matrices of batch and frontier draws
MAX_COND = 1e7
#: floors in every frontier sweep
FLOORS = 9
#: floors of the oracle frontier on the smallest deep tree (about 3 s)
DEEP_FLOORS = 15

clock = time.perf_counter


@dataclass
class Case:
    """One scenario file and the generator arrays it was written from."""

    inst: gen.Instance
    path: Path
    dense: checks.Dense | None = None
    floors: list[float] = field(default_factory=list)
    rhs: list[list[np.ndarray]] = field(default_factory=list)
    cap: float | None = None
    best_floor: float | None = None


@dataclass
class Ready:
    """What set-up produced for one case."""

    case: Case
    scenario: object
    moments: object
    hypotheses: object
    reps: object


@dataclass
class Round:
    """Timings, operation counts and failed checks of one round."""

    solve_s: float = 0.0
    oracle_s: float = 0.0
    certified: int = 0
    attempted: dict = field(default_factory=lambda: {"structured": 0, "oracle": 0, "linear": 0})
    failed: dict = field(default_factory=lambda: {"structured": 0, "oracle": 0, "linear": 0})
    failures: Counter = field(default_factory=Counter)
    worst: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, kind: str, where: str, residual: float | None = None) -> None:
        self.failed[kind] += 1
        self.failures[where] += 1
        if residual is not None:
            self.worst[where] = max(self.worst.get(where, 0.0), residual)

    def timed(self, slot: str, fn, *args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            setattr(self, slot, getattr(self, slot) + clock() - start)

    def note(self, where: str, problems: list[str]) -> bool:
        self.problems.extend(f"{where}: {p}" for p in problems)
        return not problems


# -- inputs --------------------------------------------------------------------


def _weighted_cond(sys: checks.Dense) -> float:
    s = 1.0 / np.sqrt(sys.weights)
    return max(np.linalg.cond(sys.gram * s[:, None] * s[None, :]),
               np.linalg.cond(sys.raw_gram * s[:, None] * s[None, :]))


def _draw_small(rng, name: str, stages: int, max_dim: int = 30) -> gen.Instance:
    """A feasible, well-conditioned instance with ``stages`` issue stages."""
    for _ in range(10000):
        n = int(rng.integers(1, 4))
        inst = gen.draw(rng, name, n, stages - 1, int(rng.integers(1, 3)))
        if inst.dim > max_dim:
            continue
        sys = checks.dense(inst)
        if _weighted_cond(sys) <= MAX_COND and gen.feasible(inst, sys.rows, sys.levels):
            return inst
    raise RuntimeError(f"no admissible draw for {name}")


def _draw_medium(rng, name: str, n: int, stages: int, lag: int) -> gen.Instance:
    """A feasible, well-conditioned instance on a tree that branches three
    ways at every step."""
    branch = [0] + [3] * (stages - 1 + lag)
    for _ in range(1000):
        inst = gen.draw(rng, name, n, stages - 1, lag, branch=branch)
        sys = checks.dense(inst)
        if _weighted_cond(sys) <= MAX_COND and gen.feasible(inst, sys.rows, sys.levels):
            return inst
    raise RuntimeError(f"no admissible draw for {name}")


def _frontier_floors(sys: checks.Dense, base: float, count: int, offset: float) -> list[float]:
    """``count`` evenly spaced floors over ``[base, top)``, shifted by
    ``offset`` of a step, where ``top`` is the largest attainable mean, or
    four times the floor's size above ``base`` when the mean is unbounded."""
    res = linprog(-sys.rows[-1], A_ub=-sys.rows[:-1], b_ub=-sys.levels[:-1],
                  bounds=(0, None), method="highs")
    top = -res.fun if res.status == 0 else base + 4.0 * max(1.0, abs(base)) * count / (count - 1)
    return [float(base + (top - base) * (j + offset) / count) for j in range(count)]


def _write(inst: gen.Instance, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    return inst.write(directory)


def coin() -> gen.Instance:
    """The shipped two-stage coin example in the generator's arrays."""
    return gen.Instance(
        "coin2", 1, 1, 1, [0, 2, 2], [np.ones(1), np.full(2, 0.5), np.full(2, 0.5)],
        [np.array([[3.0], [1.0]]), np.array([[2.0], [0.0]])], {(0, 1): np.zeros((2, 1))},
        np.zeros(2), 0.0, 3.0,
    )


def batch_cases(seed: int, work: Path) -> list[Case]:
    """Nine single-stage draws from the seed, then eleven multi-stage draws
    (2 to 4 issue stages) from ``FIXED_SEED``; at most 30 coordinates each."""
    seeded, fixed = np.random.default_rng(seed), np.random.default_rng(FIXED_SEED)
    insts = [_draw_small(seeded, f"single{i}", 1) for i in range(9)]
    insts += [_draw_small(fixed, f"multi{i}", k)
              for i, k in enumerate([2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4])]
    out = work / "batch"
    return [Case(i, _write(i, out), checks.dense(i)) for i in insts]


def frontier_cases(seed: int, work: Path, src: Path) -> list[Case]:
    """The shipped coin example at fixed floors, then two instances from
    ``FIXED_SEED`` with 80 and 121 dense coordinates, whose oracle floors
    are shifted by a fraction of a step drawn from the seed.  Oracle work
    on random books varies by a factor of two from draw to draw, so the
    books are fixed and the seed moves only the floors."""
    fixed = np.random.default_rng(FIXED_SEED)
    medium = [_draw_medium(fixed, "medium80", 2, 4, 1), _draw_medium(fixed, "medium121", 1, 5, 2)]
    offset = float(np.random.default_rng(seed).uniform())
    c = coin()
    cases = [Case(c, src / "reinsqp" / "data" / "coin2.json", checks.dense(c), cap=18 / 17)]
    cases[0].floors = _frontier_floors(cases[0].dense, c.floor, FLOORS, 0.0)
    cases[0].best_floor = checks.max_mean_by_enumeration(cases[0].dense, cases[0].cap, 100.0)
    for inst in medium:
        case = Case(inst, _write(inst, work / "frontier"), checks.dense(inst))
        case.floors = _frontier_floors(case.dense, inst.floor, FLOORS, offset)
        cases.append(case)
    return cases


def deep_cases(seed: int, work: Path) -> list[Case]:
    """Uniform 3-ary trees, two contracts, settlement lag 3, at 5, 6 and 7
    issue stages (2187, 6561 and 19683 leaves), from ``FIXED_SEED``; two
    right-hand sides per tree from the seed for the shifted solves."""
    rng = np.random.default_rng(seed)
    cases = []
    for stages in (5, 6, 7):
        fixed = np.random.default_rng(FIXED_SEED + stages)
        inst = gen.draw(fixed, f"deep{stages}", 2, stages - 1, 3,
                        branch=[0] + [3] * (stages + 2), zero_rates=False)
        case = Case(inst, _write(inst, work / "deep"))
        case.rhs = [[rng.standard_normal((inst.n_nodes(k), 2)) for k in range(stages)]
                    for _ in range(2)]
        if stages == 5:
            case.dense = checks.dense(inst)
            case.floors = _frontier_floors(case.dense, inst.floor, DEEP_FLOORS, 0.0)
        cases.append(case)
    return cases


# -- set-up --------------------------------------------------------------------


def setup(reinsqp, cases: list[Case]) -> list[Ready]:
    """What every solve pays first: load, moments, hypotheses, representers."""
    out = []
    for case in cases:
        sc = reinsqp.load(case.path)
        moments = reinsqp.compute_moments(sc.tree, sc.book)
        hyp = reinsqp.check_hypotheses(sc.tree, sc.book, moments)
        reps = reinsqp.representers(sc.tree, sc.book, sc.config)
        out.append(Ready(case, sc, moments, hyp, reps))
    return out


def check_setup(ready: list[Ready]) -> list[str]:
    """Parsed data, moments and hypothesis reports against the generator."""
    problems = []
    for r in ready:
        inst, tree = r.case.inst, r.scenario.tree
        name = inst.name
        if (tree.n_contracts, tree.last_issue, tree.settlement_lag) != (
                inst.n_contracts, inst.last_issue, inst.lag):
            problems.append(f"{name}: parsed shape differs from the generator's")
            continue
        problems += [f"{name}: {p}" for p in checks.moment_problems(inst, r.moments)]
        if not r.hypotheses.all_ok:
            problems.append(f"{name}: H1-H3 reported violated on an exact instance")
    return problems


# -- answers in the checks' coordinates ------------------------------------------


def _plan(process) -> np.ndarray:
    return checks.flatten([s.values for s in process.stages])


def _oracle_problems(case: Case, sol, floor: float) -> list[str]:
    return checks.certificate(case.dense, _plan(sol.plan), sol.roe_multipliers,
                              sol.mean_multiplier, _plan(sol.bound_multipliers), floor)


def _max_mean_problems(case: Case, sol, cap: float) -> list[str]:
    """The oracle's max-mean answer is the minimum-variance optimum at its
    floor, and its variance meets the cap (or, with the cap slack, the floor
    is the largest attainable mean)."""
    problems = _oracle_problems(case, sol, sol.mean_floor)
    x = _plan(sol.plan)
    var = float(x @ case.dense.gram @ x)
    if sol.cap_binding and abs(var - cap) > 1e-5 * cap:
        problems.append(f"variance {var:.9g} misses the cap {cap:.9g}")
    if not sol.cap_binding and var > cap * (1 + 1e-6):
        problems.append(f"variance {var:.9g} exceeds the slack cap {cap:.9g}")
    if case.best_floor is not None and abs(sol.mean_floor - case.best_floor) > 1e-5:
        problems.append(f"floor {sol.mean_floor!r}, enumeration gives {case.best_floor!r}")
    return problems


# -- rounds --------------------------------------------------------------------


def _ladder(rnd: Round, reinsqp, fn, *args, **kwargs):
    """Time one structured call; None when it raised."""
    rnd.attempted["structured"] += 1
    try:
        return rnd.timed("solve_s", fn, *args, **kwargs)
    except reinsqp.ReinsqpError:
        return None


def _judge(rnd: Round, r: Ready, where: str, res, floor: float, ref) -> None:
    """A ladder answer that claims convergence must pass the certificate
    and match the oracle plan; one that does not claim it has failed."""
    if res is None or not res.converged:
        rnd.fail("structured", where)
        return
    if ref is None:
        return
    mults, x = res.multipliers, _plan(res.plan)
    problems = checks.certificate(r.case.dense, x, mults.roe, mults.mean,
                                  _plan(mults.bounds), floor)
    if rnd.note(where, problems + checks.agree(x, _plan(ref.plan))):
        rnd.certified += 1


def _oracle(rnd: Round, reinsqp, r: Ready, config, form: str, floor: float | None = None):
    """Time one oracle call and certify it; None when it raised or failed
    the certificate (both are wrong answers, not tolerated failures)."""
    rnd.attempted["oracle"] += 1
    sc = r.scenario
    where = f"{r.case.inst.name} {form}"
    try:
        sol = rnd.timed("oracle_s", reinsqp.dense_qp, sc.tree, sc.book, config, form)
    except reinsqp.ReinsqpError as exc:
        rnd.fail("oracle", where)
        rnd.problems.append(f"{where}: raised {exc!r}")
        return None
    if form == reinsqp.Form.MAX_MEAN:
        ok = rnd.note(where, _max_mean_problems(r.case, sol, config.variance_cap))
    else:
        ok = rnd.note(f"{where} at {floor!r}", _oracle_problems(r.case, sol, floor))
    return sol if ok else None


def _frontier(rnd: Round, reinsqp, r: Ready) -> list:
    """Oracle optima at every floor of the case; the optimal variance must
    be nondecreasing and convex in the floor."""
    refs, variances = [], []
    for floor in r.case.floors:
        cfg = dataclasses.replace(r.scenario.config, mean_floor=floor)
        ref = _oracle(rnd, reinsqp, r, cfg, reinsqp.Form.MIN_VARIANCE, floor)
        refs.append(ref)
        if ref is not None:
            x = _plan(ref.plan)
            variances.append(float(x @ r.case.dense.gram @ x))
    if len(variances) == len(refs):
        rnd.note(f"{r.case.inst.name} frontier", checks.frontier_shape(r.case.floors, variances))
    return refs


def batch_round(reinsqp, ready: list[Ready]) -> Round:
    """Per instance: the ladder with a 300-cycle budget, the oracle's
    minimum-variance reference, and the oracle's max-mean form at twice the
    minimal variance."""
    rnd = Round()
    for r in ready:
        sc, name = r.scenario, r.case.inst.name
        floor = sc.config.mean_floor
        res = _ladder(rnd, reinsqp, reinsqp.iterate, sc.tree, sc.book, sc.config,
                      max_iter=CYCLES, moments=r.moments)
        ref = _oracle(rnd, reinsqp, r, sc.config, reinsqp.Form.MIN_VARIANCE, floor)
        _judge(rnd, r, name, res, floor, ref)
        if ref is not None:
            capped = dataclasses.replace(sc.config, variance_cap=2.0 * ref.variance_value)
            _oracle(rnd, reinsqp, r, capped, reinsqp.Form.MAX_MEAN)
    return rnd


def frontier_round(reinsqp, ready: list[Ready]) -> Round:
    """Oracle frontiers and max-mean forms on every case; on the coin also
    the ladder at every floor and the ladder's max-mean form."""
    rnd = Round()
    for r in ready:
        sc, case = r.scenario, r.case
        refs = _frontier(rnd, reinsqp, r)
        if refs[0] is None:
            continue
        cap = case.cap if case.cap is not None else 2.0 * refs[0].variance_value
        capped = dataclasses.replace(sc.config, variance_cap=cap)
        top = _oracle(rnd, reinsqp, r, capped, reinsqp.Form.MAX_MEAN)
        if case.best_floor is None:
            continue
        for floor, ref in zip(case.floors, refs):
            cfg = dataclasses.replace(sc.config, mean_floor=floor)
            res = _ladder(rnd, reinsqp, reinsqp.iterate, sc.tree, sc.book, cfg,
                          max_iter=CYCLES, moments=r.moments)
            _judge(rnd, r, f"{case.inst.name} ladder at {floor!r}", res, floor, ref)
        out = _ladder(rnd, reinsqp, reinsqp.multipliers.iterate_max_mean, sc.tree, sc.book,
                      capped, max_iter=CYCLES)
        where = f"{case.inst.name} ladder max-mean"
        if out is not None and abs(out.mean_floor - case.best_floor) > 1e-5:
            rnd.problems.append(f"{where}: floor {out.mean_floor!r}, enumeration gives "
                                f"{case.best_floor!r}")
        _judge(rnd, r, where, None if out is None else out.result,
               None if out is None else out.mean_floor, top)
    return rnd


def deep_round(reinsqp, ready: list[Ready]) -> Round:
    """Per tree: elimination coefficients at shift 0 and at ``SHIFT``; at
    each shift, solves in both forms against every representer row, and at
    ``SHIFT`` also against the seeded right-hand sides.  On the smallest
    tree, whose 242 coordinates the oracle can take, an oracle frontier of
    ``DEEP_FLOORS`` floors."""
    solve = reinsqp.elimination.solve
    rnd = Round()
    for r in ready:
        sc, inst = r.scenario, r.case.inst
        for shift in (0.0, SHIFT):
            coeffs = rnd.timed("solve_s", reinsqp.elimination_coefficients, r.moments, shift)
            rhs = list(r.reps.all_rows())
            if shift != 0.0:
                rhs += [reinsqp.PortfolioProcess.from_arrays(sc.tree, b) for b in r.case.rhs]
            for kind in (reinsqp.Kind.SECOND_MOMENT, reinsqp.Kind.VARIANCE):
                where = f"{inst.name} {kind.value} solve at shift {shift:g}"
                for b in rhs:
                    rnd.attempted["linear"] += 1
                    try:
                        res = rnd.timed("solve_s", solve, kind, sc.tree, sc.book, r.moments,
                                        shift, b, coeffs=coeffs)
                    except reinsqp.ReinsqpError:
                        rnd.fail("linear", where)
                        continue
                    mine = checks.operator_residual(
                        inst, kind is reinsqp.Kind.VARIANCE, shift,
                        [s.values for s in b.stages], [s.values for s in res.plan.stages])
                    rnd.note(where, checks.residual_problems(mine, res.residual))
                    if mine > checks.RESIDUAL_TARGET:
                        rnd.fail("linear", where, mine)
                    else:
                        rnd.certified += 1
        if r.case.dense is not None:
            _frontier(rnd, reinsqp, r)
    return rnd


WORKLOADS = {"batch": batch_round, "frontier": frontier_round, "deep": deep_round}
