"""Constraint multipliers by successive approximation.

The optimality system couples a linear solve in plan space with sign and
complementarity conditions on three multiplier families: one weight per
profitability period, one for the mean floor, and one nonnegativity
multiplier per plan coordinate.  The route implemented here eliminates the
plan: solving the governing form against every representer produces a
small Gram system whose sign-constrained solution yields the period and
mean weights, while the nonnegativity multipliers come from a nodewise
sign-constrained projection of every stage.  The Gram build keeps the
solved representers, so each projection cycle makes one structured solve,
and the projection takes the couplings between all stages from one sweep
of the tree.  Every solve is kept whatever its residual, since each
cycle's verified optimality report decides convergence; a singular pivot
raises, and so does an answer whose mean or variance overflows.

The ladder has three rungs: a deterministic approximation that replaces
every representer by its expectation, a first approximation that reuses
the deterministic nonnegativity multipliers inside the full Gram step
(cycle 0 of :func:`iterate`), and an optional fixed-point iteration of the
projection cycle.  No rung is claimed to converge; every result carries
its verified optimality report and the iteration records its residual
history honestly.

Every problem-level function takes a :class:`~reinsqp.portfolio.Form`.
``Form.MIN_VARIANCE`` (mean >= level, centered operator, all weights
signed) is the primary route; ``Form.FIXED_MEAN`` (mean == level, raw
operator) frees the mean weight, which is eliminated from the Gram step by
one Schur complement.  ``Form.MAX_MEAN`` is solved by
:func:`iterate_max_mean`, which runs the min-variance ladder at each floor
of the oracle's shared floor search.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import elimination, oracle
from .contracts import ContractBook, MomentTables, compute_moments
from .errors import (
    Infeasible,
    InfeasibleDeterministic,
    InputError,
    NumericalFailure,
)
from .operators import Kind, Representers, apply, images, leaf_scalar, representers
from .oracle import MaxMeanResult
from .portfolio import (
    ConstraintConfig,
    Form,
    evaluate_constraints,
    mean_final,
    variance_final,
)
from .qp import nonneg_qp
from .tree import AdaptedVariable, PortfolioProcess, ScenarioTree, inner_product, norm

#: default optimality tolerance
KKT_TOL = 1e-8
#: condition ceiling past which the representer Gram counts as singular
GRAM_COND_MAX = 1e12
#: relative growth below which a residual step still counts as monotone
RESIDUAL_JITTER = 1e-12


@dataclass
class MultiplierSet:
    """One weight per profitability period, one for the mean floor, and a
    nonnegativity multiplier process."""

    roe: np.ndarray
    mean: float
    bounds: PortfolioProcess


@dataclass
class RepresenterGram:
    """The representer Gram system in the governing form's geometry.

    ``solved`` holds the solved representers; ``inverse_gram[t, s]`` pairs
    representer t with solved representer s (profitability rows first, mean
    last), flagged ``near_singular`` when the rows are numerically dependent.
    """

    solved: Representers
    inverse_gram: np.ndarray
    cond: float
    near_singular: bool
    kind: Kind
    coeffs: elimination.EliminationCoefficients = field(repr=False)
    reps: Representers = field(repr=False)
    #: structured solves so far whose residual missed the tolerance
    unverified: int = 0


def l_gram(
    tree: ScenarioTree,
    book: ContractBook,
    config: ConstraintConfig,
    moments: MomentTables | None = None,
    kind: Kind = Kind.VARIANCE,
) -> RepresenterGram:
    """Build the representer Gram system with one structured solve per row."""
    if moments is None:
        moments = compute_moments(tree, book)
    reps = representers(tree, book, config)
    coeffs = elimination.elimination_coefficients(moments, 0.0)
    solves = [elimination.solve(kind, tree, book, moments, 0.0, row, coeffs=coeffs)
              for row in reps.all_rows()]
    *roe, mean = [s.plan for s in solves]
    solved = Representers(mean, roe)
    inv_gram = np.array([[inner_product(tree, row, image) for image in solved.all_rows()]
                         for row in reps.all_rows()])
    inv_gram = 0.5 * (inv_gram + inv_gram.T)
    cond = float(np.linalg.cond(inv_gram))
    near_singular = not np.isfinite(cond) or cond > GRAM_COND_MAX
    return RepresenterGram(solved, inv_gram, cond, near_singular, kind, coeffs, reps,
                           unverified=sum(not s.residual_ok for s in solves))


def _stabilized_pairing(gram: RepresenterGram) -> np.ndarray:
    """Pairing matrix, with a tiny ridge when the rows are dependent."""
    li = gram.inverse_gram
    if gram.near_singular:
        n = li.shape[0]
        li = li + 1e-10 * max(float(np.trace(li)) / n, np.finfo(float).tiny) * np.eye(n)
    return li


def _multiplier_step(
    gram: RepresenterGram, r: np.ndarray, levels: np.ndarray, form: Form
) -> np.ndarray:
    """Sign-constrained multiplier update.

    Mean floor: the small complementarity problem on the pairing matrix,
    driven by how far each pairing sits from its level; its primal is the
    multiplier vector and its dual the constraint slacks.  Fixed mean: the
    mean weight is free, so it is eliminated by a Schur complement on the
    pairing matrix and recovered from the resulting equality.
    """
    li = _stabilized_pairing(gram)
    if form is not Form.FIXED_MEAN:
        return nonneg_qp(li, levels - r).primal
    gap = r - levels
    roe, m = slice(0, li.shape[0] - 1), li.shape[0] - 1
    schur = li[roe, roe] - np.outer(li[roe, m], li[m, roe]) / li[m, m]
    q = gap[roe] - li[roe, m] * gap[m] / li[m, m]
    lam = nonneg_qp(0.5 * (schur + schur.T), -q).primal
    mean_w = -(gap[m] + li[m, roe] @ lam) / li[m, m]
    return np.append(lam, mean_w)


@dataclass
class DeterministicSolution:
    """Expectation-level approximation: constant stage positions and
    constant multipliers."""

    plan: PortfolioProcess
    stage_positions: np.ndarray
    multipliers: MultiplierSet


def deterministic_solution(
    tree: ScenarioTree,
    book: ContractBook,
    config: ConstraintConfig,
    moments: MomentTables | None = None,
    reps: Representers | None = None,
    form: Form = Form.MIN_VARIANCE,
) -> DeterministicSolution:
    """Solve the expectation-level problem: every representer is replaced by
    its expectation, making positions and multipliers constant per stage.

    The complementarity system is exactly the raw-form quadratic program
    over stage blocks, solved by the oracle's :func:`~reinsqp.oracle.form_qp`.
    """
    if moments is None:
        moments = compute_moments(tree, book)
    if reps is None:
        reps = representers(tree, book, config)
    stages = range(tree.last_issue + 1)
    nc = tree.n_contracts
    g = np.zeros((len(stages) * nc,) * 2)
    for k in stages:
        g[k * nc : (k + 1) * nc, k * nc : (k + 1) * nc] = moments.second_moment[k]
    rows = np.array([np.concatenate([tree.expectation(r.stage(k)) for k in stages])
                     for r in reps.all_rows()])
    try:
        res, roe, mean_mult = oracle.form_qp(g, rows, config.levels(tree), form)
    except Infeasible as exc:
        raise InfeasibleDeterministic(str(exc)) from exc

    def broadcast(blocks: np.ndarray) -> PortfolioProcess:
        at_nodes = np.repeat(blocks.reshape(-1, nc), [tree.n_nodes(k) for k in stages], axis=0)
        return PortfolioProcess.from_flat(tree, at_nodes.ravel())

    return DeterministicSolution(
        plan=broadcast(res.x),
        stage_positions=res.x,
        multipliers=MultiplierSet(roe, mean_mult, broadcast(res.bound_multipliers)),
    )


def _project(
    tree: ScenarioTree,
    book: ContractBook,
    moments: MomentTables,
    kind: Kind,
    weighted: PortfolioProcess,
    plan: PortfolioProcess,
) -> tuple[PortfolioProcess, PortfolioProcess]:
    """The nodewise sign-constrained projection of every stage: a
    nonnegative position part and a complementary multiplier part.

    Stage k's argument is the weighted representer sum ``weighted`` less
    the images that couple every other stage l of ``plan`` into stage k, in
    ascending l; for the centered form it also carries the rank-one mean
    correction that turns the centered diagonal back into the raw one.  All
    couplings come from one leaf block of the plan's stage scalars, swept
    up the tree once (none on a one-stage tree).  The raw second-moment
    matrix then splits each argument by one nodewise solve stacked over the
    stage's nodes.
    """
    stages = range(tree.last_issue + 1)
    coupled = [()] * len(stages)
    if len(stages) > 1:
        scalars = [leaf_scalar(kind, tree, book, l, plan.stage(l)) for l in stages]
        coupled = images(tree, book, stages, np.column_stack(scalars))
    positions, bounds = [], []
    for k in stages:
        arg = weighted.stage(k).values
        ma = moments.second_moment[k]
        if kind is Kind.VARIANCE:
            rank_one = ma - moments.covariance[k]
            stage_mean = tree.path_prob[k] @ plan.stage(k).values
            arg = arg + (rank_one @ stage_mean)[None, :]
        for l, image in enumerate(coupled[k]):
            if l != k:
                arg = arg - image
        result = nonneg_qp(ma, arg)
        positions.append(AdaptedVariable(k, result.primal))
        bounds.append(AdaptedVariable(k, result.dual))
    return PortfolioProcess(tree, positions), PortfolioProcess(tree, bounds)


def _projection_cycle(
    tree: ScenarioTree,
    book: ContractBook,
    config: ConstraintConfig,
    moments: MomentTables,
    gram: RepresenterGram,
    nu: PortfolioProcess,
    form: Form,
):
    """One full update: multipliers from the Gram step, relaxed plan from one
    solve (of ``nu``, added to the solved representers), then the split of
    every stage from one sweep of the tree (:func:`_project`); a residual
    miss of the solve is counted on ``gram``."""
    kind = gram.kind
    levels = config.levels(tree)
    nu_solve = elimination.solve(kind, tree, book, moments, 0.0, nu, coeffs=gram.coeffs)
    gram.unverified += not nu_solve.residual_ok
    solved_nu = nu_solve.plan
    r = np.array([inner_product(tree, row, solved_nu) for row in gram.reps.all_rows()])
    weights = _multiplier_step(gram, r, levels, form)
    roe_w, mean_w = weights[:-1], float(weights[-1])
    relaxed = gram.solved.combine(roe_w, mean_w) + solved_nu
    weighted = gram.reps.combine(roe_w, mean_w)
    plan, nu_new = _project(tree, book, moments, kind, weighted, relaxed)
    return MultiplierSet(roe_w, mean_w, nu_new), plan, relaxed


def _worst(*terms) -> float:
    """The largest of 0 and every entry of ``terms``: NaN when any entry is
    NaN, and 0.0, never -0.0, when none is positive."""
    return float(np.max(np.concatenate([np.zeros(1), *map(np.ravel, terms)]))) + 0.0


@dataclass
class KktReport:
    """Verified optimality residuals of a (plan, multipliers) pair.

    Stationarity is relative to the combined right-hand side; slack,
    complementarity, and sign terms are absolute, with each complementarity
    product normalized by its multiplier's size.
    """

    stationarity: float
    worst_infeasibility: float
    worst_complementarity: float
    worst_sign: float
    tol: float

    @property
    def total(self) -> float:
        """The largest residual; NaN when any of them is."""
        return _worst(
            self.stationarity,
            self.worst_infeasibility,
            self.worst_complementarity,
            self.worst_sign,
        )

    @property
    def converged(self) -> bool:
        return self.total <= self.tol

    def as_dict(self) -> dict:
        return {
            "stationarity": self.stationarity,
            "worst_infeasibility": self.worst_infeasibility,
            "worst_complementarity": self.worst_complementarity,
            "worst_sign": self.worst_sign,
            "total": self.total,
            "tol": self.tol,
            "converged": self.converged,
        }


def kkt_verify(
    tree: ScenarioTree,
    book: ContractBook,
    config: ConstraintConfig,
    plan: PortfolioProcess,
    mults: MultiplierSet,
    form: Form = Form.MIN_VARIANCE,
    reps: Representers | None = None,
    tol: float = KKT_TOL,
) -> KktReport:
    """Check the full optimality system of a candidate pair from scratch.

    Every ingredient is recomputed through the tree calculus (operator
    application, constraint slacks), so the report is meaningful for
    candidates produced by any route, including the dense oracle.  A
    max-mean candidate is checked as a min-variance optimum, under a
    ``config`` with its floor and no cap.
    """
    if reps is None:
        reps = representers(tree, book, config)
    pinned = form is Form.FIXED_MEAN
    rhs = reps.combine(mults.roe, mults.mean) + mults.bounds
    image = apply(form.kind, tree, book, plan)
    scale = 1.0 + norm(tree, rhs)
    stationarity = norm(tree, image - rhs) / scale

    report = evaluate_constraints(tree, book, config, plan)
    mean_slack = report.mean_slack
    infeas = _worst(-report.roe_slacks, abs(mean_slack) if pinned else -mean_slack, -plan.flat)

    roe, mean, nu = mults.roe, mults.mean, mults.bounds.flat
    compl = _worst(
        np.abs(roe * report.roe_slacks) / (1.0 + np.abs(roe)),
        [] if pinned else abs(mean * mean_slack) / (1.0 + abs(mean)),
        np.abs(nu * plan.flat) / (1.0 + np.abs(nu)),
    )
    sign = _worst(-roe, [] if pinned else -mean, -nu)

    return KktReport(stationarity, infeas, compl, sign, tol)


@dataclass
class IterationResult:
    """Outcome of the fixed-point iteration with its honest history."""

    plan: PortfolioProcess
    relaxed_plan: PortfolioProcess
    multipliers: MultiplierSet
    report: KktReport
    history: list[float]
    iterations: int
    converged: bool
    non_monotone: bool
    near_singular: bool
    #: structured solves whose residual missed ``elimination.RESIDUAL_TOL``
    fallbacks: int
    deterministic: DeterministicSolution


def iterate(
    tree: ScenarioTree,
    book: ContractBook,
    config: ConstraintConfig,
    max_iter: int = 0,
    tol: float = KKT_TOL,
    moments: MomentTables | None = None,
    form: Form = Form.MIN_VARIANCE,
) -> IterationResult:
    """The first approximation plus up to ``max_iter`` projection cycles.

    The deterministic solution's nonnegativity multipliers seed cycle 0,
    whose plan is the first approximation; each later cycle feeds the
    latest ones back into the Gram step.  The residual history is recorded
    as computed; any material increase, or a residual that stops being
    finite, raises the non-monotone flag (numpy's floating-point warnings
    stay silent) but does not stop the loop.  The result is the cycle with
    the lowest finite KKT total, the first of equals, and claims no
    convergence beyond its report.  A plan whose mean or variance overflows
    raises :class:`NumericalFailure`; so does a plan above a variance cap
    if the ladder did not converge, and if it did, it raises
    :class:`Infeasible`.  The max-mean form is solved by
    :func:`iterate_max_mean`, which runs this uncapped at each floor.
    """
    if form is Form.MAX_MEAN:
        raise InputError("the max-mean form is solved by iterate_max_mean")
    if moments is None:
        moments = compute_moments(tree, book)
    gram = l_gram(tree, book, config, moments, kind=form.kind)
    return _ladder(tree, book, config, moments, gram, max_iter, tol, form)


def _ladder(tree, book, config, moments, gram, max_iter, tol, form) -> IterationResult:
    """:func:`iterate` after its Gram build, which does not depend on the
    mean floor, so the max-mean search builds it once for all floors.  The
    cycles count their residual misses on a copy of ``gram``."""
    if max_iter < 0:
        raise InputError(f"max_iter must be >= 0, got {max_iter}")
    gram = dataclasses.replace(gram)
    det = deterministic_solution(tree, book, config, moments, gram.reps, form)
    mults, best, history = det.multipliers, None, []
    with np.errstate(all="ignore"):
        for _ in range(max_iter + 1):
            mults, plan, relaxed = _projection_cycle(
                tree, book, config, moments, gram, mults.bounds, form
            )
            report = kkt_verify(tree, book, config, plan, mults, form, reps=gram.reps, tol=tol)
            history.append(report.total)
            # cycle 0, or a finite total below every earlier one (NaN
            # compares false)
            if best is None or (np.isfinite(report.total)
                                and not best["report"].total <= report.total):
                best = dict(plan=plan, relaxed_plan=relaxed, multipliers=mults, report=report)
            if report.converged:
                break
    steps = zip(history, history[1:])
    grew = any(b > a * (1.0 + RESIDUAL_JITTER) or not np.isfinite(b) for a, b in steps)
    res = IterationResult(
        **best,
        history=history,
        iterations=len(history) - 1,
        converged=best["report"].converged,
        non_monotone=grew,
        near_singular=gram.near_singular,
        fallbacks=gram.unverified,
        deterministic=det,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        mean, var = mean_final(tree, book, res.plan), variance_final(tree, book, res.plan)
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise NumericalFailure(f"structured answer overflows: mean {mean:.3e}, variance {var:.3e}")
    cap = config.variance_cap
    if cap is not None:
        oracle.cap_verdict(res, var, cap, check=_require_converged(config.mean_floor, cap))
    return res


def _require_converged(floor: float, cap: float):
    """The ladder's check for :func:`oracle.cap_verdict` and for every floor
    of the max-mean search: only a converged plan shows what variance is
    attainable."""

    def check(res: IterationResult, var: float) -> None:
        if not res.converged:
            raise NumericalFailure(
                f"ladder at mean floor {floor:.6g} did not converge (KKT total "
                f"{res.report.total:.6g} after {res.iterations} cycles), "
                f"so its variance {var:.6g} does not bound the cap {cap:.6g}"
            )

    return check


def iterate_max_mean(
    tree: ScenarioTree,
    book: ContractBook,
    config: ConstraintConfig,
    max_iter: int = 0,
    tol: float = KKT_TOL,
) -> MaxMeanResult:
    """Mean-maximal form through the approximation ladder.

    Runs the oracle's floor search (:func:`oracle.max_mean_floor`) with a
    min-variance ladder at each floor, so its ``result`` is an
    :class:`IterationResult`.  Each Newton step takes its slope from the
    ladder's mean multiplier, which is only as exact as the recorded
    optimality report, so the returned floor is too; the trace keeps every
    (floor, variance) pair evaluated.  The search goes on only over
    converged ladders: the first floor whose ladder did not converge
    raises a numerical failure.  A cap below the floor-0 ladder's variance
    is infeasible.
    """
    cap = config.variance_cap
    if cap is None:
        raise InputError("the mean-maximal form needs a variance cap")
    moments = compute_moments(tree, book)
    gram = l_gram(tree, book, config, moments)

    def solve_at(floor: float) -> tuple[IterationResult, float, float, float]:
        cfg = dataclasses.replace(config, mean_floor=floor, variance_cap=None)
        res = _ladder(tree, book, cfg, moments, gram, max_iter, tol, Form.MIN_VARIANCE)
        var = variance_final(tree, book, res.plan)
        _require_converged(floor, cap)(res, var)
        return res, var, mean_final(tree, book, res.plan), res.multipliers.mean

    rows, levels = oracle.constraint_rows(tree, book, config)
    return oracle.max_mean_floor(solve_at, cap, rows, levels)
