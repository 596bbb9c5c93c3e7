"""Dense brute-force reference pipeline.

Everything here works in probability-weighted flat coordinates, where the
tree's inner product becomes the Euclidean one: a plan maps to its
``flat`` array times each coordinate's square-root path probability, the
quadratic forms to explicit Gram matrices assembled by leaf enumeration,
linear functionals to plain rows, and the underwriting problems to dense
quadratic programs.  The Gram matrices do not touch the structured
operators or their elimination.  The two routes do share the tree, the
contract book, the representer processes (flattened here into constraint
rows), the active-set engine of ``qp`` through :func:`form_qp` (the
ladder's deterministic rung calls it too) and, for the max-mean form, the
floor search :func:`max_mean_floor` (Newton's method on the frontier's
standard deviation) with the mean range that ``qp``'s simplex gives it.
The structured route makes no dense linear solve.
Agreement between the routes is therefore evidence about the structured
factorization and the multiplier ladder, not about those shared parts.
Each dense answer passes its own optimality check on the Gram matrix and
rows before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .contracts import ContractBook
from .errors import Infeasible, InputError, NumericalFailure
from .operators import Kind, dense_matrix, representers
from .portfolio import ConstraintConfig, Form
from .qp import QPResult, lp_maximum, solve_qp
from .tree import PortfolioProcess, ScenarioTree

#: relative residual required of a dense linear solve
DENSE_RESIDUAL_TOL = 1e-12
#: largest violation of its optimality system a dense QP answer may have
CERTIFY_TOL = 1e-8
#: relative tolerance on the variance cap
CAP_TOL = 1e-6
#: most mean floors the max-mean search visits after floor 0
MAX_FLOOR_STEPS = 80


def _root_prob(tree: ScenarioTree) -> np.ndarray:
    """The square root of each plan coordinate's path probability."""
    nodes = tree.path_prob[: tree.last_issue + 1]
    return np.repeat(np.sqrt(np.concatenate(nodes)), tree.n_contracts)


def to_coords(tree: ScenarioTree, plan: PortfolioProcess) -> np.ndarray:
    """A plan in probability-weighted coordinates: its ``flat`` array
    scaled by each coordinate's square-root path probability."""
    return plan.flat * _root_prob(tree)


def from_coords(tree: ScenarioTree, coords: np.ndarray) -> PortfolioProcess:
    """Inverse of :func:`to_coords`."""
    dim = tree.plan_offsets[-1]
    if coords.shape != (dim,):
        raise InputError(f"coordinate vector has shape {coords.shape}, wanted ({dim},)")
    return PortfolioProcess.from_flat(tree, coords / _root_prob(tree))


@dataclass
class DenseProblem:
    """A fully materialized instance: Gram matrix, functional rows, levels."""

    kind: Kind
    gram: np.ndarray
    rows: np.ndarray
    levels: np.ndarray
    tree: ScenarioTree = field(repr=False)
    book: ContractBook = field(repr=False)
    config: ConstraintConfig = field(repr=False)


def assemble(
    tree: ScenarioTree,
    book: ContractBook,
    config: ConstraintConfig,
    kind: Kind,
) -> DenseProblem:
    """Materialize the Gram matrix and all constraint rows.

    Row t < horizon is the period-t profitability functional, the last row
    the expected-final-utility functional; ``levels`` holds their
    right-hand sides with the mean floor last.
    """
    gram = dense_matrix(kind, tree, book)
    rows, levels = constraint_rows(tree, book, config)
    return DenseProblem(kind, gram, rows, levels, tree, book, config)


def dense_solve_linear(
    problem: DenseProblem, rhs: PortfolioProcess, shift: float = 0.0
) -> tuple[PortfolioProcess, float]:
    """Solve (form - shift) plan = rhs densely; returns the plan and its
    relative residual, which must clear the dense tolerance."""
    b = to_coords(problem.tree, rhs)
    a = problem.gram - shift * np.eye(len(b))
    x = np.linalg.solve(a, b)
    denom = float(np.linalg.norm(b)) or 1.0
    resid = float(np.linalg.norm(a @ x - b)) / denom
    if not resid <= max(DENSE_RESIDUAL_TOL, 1e-15 * np.linalg.cond(a)):
        raise NumericalFailure(f"dense solve residual {resid:.3e}")
    return from_coords(problem.tree, x), resid


@dataclass
class OracleSolution:
    """A certified optimum of one problem form, with all multipliers mapped
    back to plan space."""

    form: Form
    plan: PortfolioProcess
    coords: np.ndarray
    roe_multipliers: np.ndarray
    mean_multiplier: float
    bound_multipliers: PortfolioProcess
    mean_value: float
    variance_value: float
    objective: float
    mean_floor: float
    n_pivots: int
    bisection_trace: list[tuple[float, float]] = field(default_factory=list)
    cap_binding: bool | None = None


def form_qp(
    g: np.ndarray, rows: np.ndarray, levels: np.ndarray, form: Form
) -> tuple[QPResult, np.ndarray, float]:
    """Minimize 0.5 x'gx over x >= 0 under the profitability rows and the
    mean row (last in ``rows``, its floor last in ``levels``), an equality
    in the fixed-mean form.  Returns the solve, the profitability
    multipliers and the mean multiplier."""
    c = np.zeros(g.shape[0])
    if form is Form.FIXED_MEAN:
        res = solve_qp(g, c, rows[-1:], levels[-1:], rows[:-1], levels[:-1])
        return res, res.ineq_multipliers, float(res.eq_multipliers[0])
    res = solve_qp(g, c, a_in=rows, b_in=levels)
    return res, res.ineq_multipliers[:-1], float(res.ineq_multipliers[-1])


def _qp_once(problem: DenseProblem, mean_floor: float, form: Form) -> OracleSolution:
    """Solve ``form`` at ``mean_floor``; an answer that misses the dense
    optimality system by more than ``CERTIFY_TOL``, or whose mean, squared
    mean or quadratic value overflows, raises NumericalFailure."""
    levels = np.append(problem.levels[:-1], mean_floor)
    res, roe_mults, mean_mult = form_qp(problem.gram, problem.rows, levels, form)
    x, nu, lam = res.x, res.bound_multipliers, np.append(roe_mults, mean_mult)
    pinned = form is Form.FIXED_MEAN
    force = problem.rows.T @ lam + nu
    slack = problem.rows @ x - levels
    mean_slack = -abs(slack[-1]) if pinned else slack[-1]
    violations = {
        "stationarity": np.abs(problem.gram @ x - force).max() / (1 + np.abs(force).max()),
        "feasibility": -min(slack[:-1].min(initial=0.0), mean_slack, x.min()),
        "complementarity": np.max(
            np.abs(np.append(lam * slack, nu * x)) / (1 + np.abs(np.append(lam, nu)))
        ),
        "sign": -np.append(lam[:-1] if pinned else lam, nu).min(initial=0.0),
    }
    for name, value in violations.items():
        if not value <= CERTIFY_TOL:
            raise NumericalFailure(f"dense QP answer fails its {name} check: {value:.3e}")

    with np.errstate(over="ignore", invalid="ignore"):
        mean_val = float(problem.rows[-1] @ x)
        quad = float(x @ problem.gram @ x)
    if not (math.isfinite(quad) and math.isfinite(mean_val * mean_val)):
        raise NumericalFailure(
            f"dense QP answer overflows: mean {mean_val:.3e}, quadratic value {quad:.3e}"
        )
    variance = quad - mean_val**2 if problem.kind is Kind.SECOND_MOMENT else quad
    return OracleSolution(
        form=form,
        plan=from_coords(problem.tree, x),
        coords=x,
        roe_multipliers=roe_mults,
        mean_multiplier=mean_mult,
        bound_multipliers=from_coords(problem.tree, nu),
        mean_value=mean_val,
        variance_value=variance,
        objective=quad,
        mean_floor=mean_floor,
        n_pivots=res.n_pivots,
    )


def constraint_rows(
    tree: ScenarioTree, book: ContractBook, config: ConstraintConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The constraint functionals as coordinate rows (profitability rows
    first, mean last) together with their levels.  Much cheaper than
    :func:`assemble` when no Gram matrix is needed."""
    rows = np.array([r.flat for r in representers(tree, book, config).all_rows()])
    return rows * _root_prob(tree), config.levels(tree)


def max_attainable_mean(rows: np.ndarray, levels: np.ndarray) -> float | None:
    """Supremum of the mean functional over the profitability-and-sign
    constraints; None when unbounded, ``Infeasible`` when they cannot hold."""
    return lp_maximum(rows[-1], rows[:-1], levels[:-1])


def cap_verdict(
    result: Any,
    variance: float,
    cap: float | None,
    check: Callable[[Any, float], None] | None = None,
) -> None:
    """Raise when ``variance``, the least that ``result`` attained, exceeds
    a cap beyond ``CAP_TOL``: ``check(result, variance)`` may raise a more
    specific error first, else the capped problem is infeasible."""
    if cap is not None and variance > cap * (1 + CAP_TOL):
        if check is not None:
            check(result, variance)
        raise Infeasible(
            f"minimal attainable variance {variance:.6g} exceeds cap {cap:.6g}"
        )


@dataclass
class MaxMeanResult:
    """Largest mean floor whose solve respects the variance cap, the solve
    at that floor, and every (floor, variance) pair evaluated."""

    result: Any
    mean_floor: float
    cap_binding: bool
    trace: list[tuple[float, float]]


def max_mean_floor(
    solve_at: Callable[[float], tuple[Any, float, float, float]],
    cap: float,
    rows: np.ndarray,
    levels: np.ndarray,
) -> MaxMeanResult:
    """Search the mean floor of the min-variance form for the largest one
    whose variance meets the cap.

    ``solve_at(floor)`` solves the min-variance form at that floor and
    returns ``(result, variance, mean, mean_multiplier)``, or raises to
    refuse its answer, which ends the search.  The floor-0 solve must pass
    :func:`cap_verdict`.  The least variance V(e) has slope 2 * the mean
    multiplier, and σ(e) = sqrt(V(e)) is convex, so Newton's method on
    σ(e) = sqrt(cap) falls monotonically to the root from its right, and
    one step from its left lands there.  The first floor after 0 is
    ``max(1, 2|mean at 0|)``; every floor is clamped to the largest
    attainable mean of ``rows`` and ``levels``, and the floor doubles
    where the multiplier or the variance is 0.  The search stops when the
    variance meets the cap within ``CAP_TOL``, or with ``cap_binding=False``
    at the largest attainable mean if the cap is slack there.
    """
    trace: list[tuple[float, float]] = []

    def visit(floor: float) -> tuple[Any, float, float, float]:
        out = solve_at(floor)
        trace.append((floor, out[1]))
        return out

    floor = 0.0
    res, var, mean, mult = visit(floor)
    cap_verdict(res, var, cap)
    e_max = max_attainable_mean(rows, levels)
    sigma_cap = math.sqrt(cap)
    ahead = max(1.0, 2 * abs(mean))
    for _ in range(MAX_FLOOR_STEPS):
        if e_max is not None:
            ahead = min(ahead, e_max)
        if ahead != floor:
            floor = ahead
            res, var, _, mult = visit(floor)
        if abs(var - cap) <= CAP_TOL * cap:
            return MaxMeanResult(res, floor, True, trace)
        if floor == e_max and var < cap:
            return MaxMeanResult(res, floor, False, trace)
        if mult <= 0 or var == 0:
            ahead = 2 * floor
        else:
            sigma = math.sqrt(var)
            ahead = floor - (sigma - sigma_cap) * sigma / mult
    raise NumericalFailure(
        f"variance cap {cap:.6g} not met within {MAX_FLOOR_STEPS} mean floors"
    )


def dense_qp(
    tree: ScenarioTree,
    book: ContractBook,
    config: ConstraintConfig,
    form: Form,
) -> OracleSolution:
    """Solve one of the three problem forms by dense quadratic programming.

    The max-mean form runs :func:`max_mean_floor` on the min-variance
    form; the returned solution carries the floors it visited.  The other
    forms solve once, and a cap on them gets :func:`cap_verdict`.
    """
    try:
        form = Form(form)
    except ValueError:
        raise InputError(f"unknown form {form!r}") from None
    problem = assemble(tree, book, config, form.kind)
    if form is not Form.MAX_MEAN:
        sol = _qp_once(problem, config.mean_floor, form)
        cap_verdict(sol, sol.variance_value, config.variance_cap)
        return sol

    cap = config.variance_cap
    if cap is None:
        raise InputError("the variance-maximum form needs a variance cap")

    def solve_at(floor: float) -> tuple[OracleSolution, float, float, float]:
        sol = _qp_once(problem, floor, form)
        return sol, sol.variance_value, sol.mean_value, sol.mean_multiplier

    found = max_mean_floor(solve_at, cap, problem.rows, problem.levels)
    best = found.result
    best.cap_binding = found.cap_binding
    best.bisection_trace = found.trace
    return best
