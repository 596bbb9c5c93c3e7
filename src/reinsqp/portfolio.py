"""Portfolio utility processes and the underwriting constraint set.

Given a plan (volumes per generation and node) and a contract book, the
accumulated utility at time t is the volume-weighted sum of the generation
results known by t.  The constraint set consists of period profitability
floors on expected utility growth relative to current expected equity, a
floor (or target) on expected final utility, an optional variance cap, and
nonnegative volumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .contracts import ContractBook
from .errors import InputError
from .tree import AdaptedVariable, PortfolioProcess, ScenarioTree, row_dot

class Kind(str, Enum):
    """Which quadratic form an operator routine should realize."""

    SECOND_MOMENT = "second_moment"
    VARIANCE = "variance"


class Form(str, Enum):
    """The three supported problem forms.

    Members format as their values, so reports and messages read
    ``max-mean``, not ``Form.MAX_MEAN``.
    """

    MIN_VARIANCE = "min-variance"
    FIXED_MEAN = "fixed-mean"
    MAX_MEAN = "max-mean"

    __str__ = str.__str__
    __format__ = str.__format__

    @property
    def kind(self) -> Kind:
        """The governing quadratic form: the fixed-mean form pins the mean,
        so its second moment differs from the variance by a constant; the
        other two bound the mean from below and minimize the variance."""
        return Kind.SECOND_MOMENT if self is Form.FIXED_MEAN else Kind.VARIANCE


@dataclass(frozen=True)
class ConstraintConfig:
    """Constraint data: profitability rates per period, mean floor, optional
    variance cap, and initial equity."""

    roe_rates: np.ndarray
    mean_floor: float
    variance_cap: float | None
    initial_equity: float

    def __post_init__(self):
        object.__setattr__(self, "roe_rates", np.asarray(self.roe_rates, dtype=float))
        for name in ("roe_rates", "mean_floor", "variance_cap", "initial_equity"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise InputError(f"{name} must be finite, got {value}")
        if self.variance_cap is not None and not self.variance_cap > 0:
            raise InputError(f"variance cap must be positive, got {self.variance_cap}")
        if self.initial_equity < 0:
            raise InputError(f"initial equity must be >= 0, got {self.initial_equity}")

    def check_horizon(self, tree: ScenarioTree) -> None:
        if len(self.roe_rates) != tree.horizon:
            raise InputError(
                f"{len(self.roe_rates)} profitability rates for horizon {tree.horizon}"
            )

    def levels(self, tree: ScenarioTree) -> np.ndarray:
        """Right-hand sides of all mean constraints, profitability rows first,
        mean floor last.

        Initial equity is deterministic, so each profitability row reduces to
        a constant floor rate times initial equity on the linear part of the
        growth (the equity recursion contributes nothing at expectation level
        beyond this constant).
        """
        self.check_horizon(tree)
        return np.append(self.roe_rates * self.initial_equity, self.mean_floor)


def utility_process(
    tree: ScenarioTree, book: ContractBook, plan: PortfolioProcess, t: int
) -> AdaptedVariable:
    """Accumulated utility U(t) of the plan: sum over generations issued by t
    of positions times their time-t results."""
    if not 0 <= t <= tree.horizon:
        raise InputError(f"time {t} outside [0, {tree.horizon}]")
    acc = np.zeros(tree.n_nodes(t))
    for k in range(min(t, tree.last_issue) + 1):
        if t <= k:
            continue
        u = book.utility(k, t).values
        positions = tree.lift(plan.stage(k), t).values
        acc += row_dot(u, positions)
    return AdaptedVariable(t, acc)


def final_utility_rv(
    tree: ScenarioTree, book: ContractBook, plan: PortfolioProcess
) -> AdaptedVariable:
    """The settled final utility of the plan, as a scalar variable at the horizon."""
    return utility_process(tree, book, plan, tree.horizon)


def utility_growth(
    tree: ScenarioTree, book: ContractBook, plan: PortfolioProcess, t: int
) -> AdaptedVariable:
    """U(t+1) - U(t), adapted at t+1."""
    now = utility_process(tree, book, plan, t)
    nxt = utility_process(tree, book, plan, t + 1)
    return AdaptedVariable(t + 1, nxt.values - tree.lift(now, t + 1).values)


def mean_final(tree: ScenarioTree, book: ContractBook, plan: PortfolioProcess) -> float:
    return float(tree.expectation(final_utility_rv(tree, book, plan)))


def variance_final(tree: ScenarioTree, book: ContractBook, plan: PortfolioProcess) -> float:
    return _variance(tree, final_utility_rv(tree, book, plan))


def _variance(tree: ScenarioTree, u: AdaptedVariable) -> float:
    m = tree.expectation(u)
    return float(tree.expectation(AdaptedVariable(u.depth, (u.values - m) ** 2)))


@dataclass
class ConstraintReport:
    """Slacks of every constraint at a given plan (positive = satisfied)."""

    roe_slacks: np.ndarray
    mean_slack: float
    variance_slack: float | None
    min_position: float
    mean_value: float
    variance_value: float

    def as_dict(self) -> dict:
        return {
            "roe_slacks": [float(s) for s in self.roe_slacks],
            "mean_slack": self.mean_slack,
            "variance_slack": self.variance_slack,
            "min_position": self.min_position,
            "mean_value": self.mean_value,
            "variance_value": self.variance_value,
        }


def evaluate_constraints(
    tree: ScenarioTree,
    book: ContractBook,
    config: ConstraintConfig,
    plan: PortfolioProcess,
) -> ConstraintReport:
    """Evaluate every constraint slack of the plan.

    The profitability slack for period t is the expected utility growth over
    (t, t+1] minus the floor rate times expected equity at t, with equity
    being initial equity plus accumulated utility.
    """
    config.check_horizon(tree)
    # U(t) once per t: the growths, equities, mean and variance all read it
    acc = [utility_process(tree, book, plan, t) for t in range(tree.horizon + 1)]
    roe = np.zeros(tree.horizon)
    for t in range(tree.horizon):
        growth = AdaptedVariable(t + 1, acc[t + 1].values - tree.lift(acc[t], t + 1).values)
        equity = config.initial_equity + float(tree.expectation(acc[t]))
        roe[t] = float(tree.expectation(growth)) - config.roe_rates[t] * equity
    mean = float(tree.expectation(acc[tree.horizon]))
    var = _variance(tree, acc[tree.horizon])
    var_slack = None if config.variance_cap is None else config.variance_cap - var
    return ConstraintReport(
        roe_slacks=roe,
        mean_slack=mean - config.mean_floor,
        variance_slack=var_slack,
        min_position=plan.min_value(),
        mean_value=mean,
        variance_value=var,
    )
