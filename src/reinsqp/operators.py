"""The two quadratic-form operators and their representers.

The optimizer works with two symmetric positive operators on portfolio
processes: the raw second-moment form (final utility squared, kind
``second_moment``) and its centered version, the variance form (kind
``variance``).  Applying one to a plan means conditioning the product of
the plan's final utility with each generation's settled results back onto
the generation's issue-time information.

Linear functionals of the problem (expected final utility, expected
profitability growth) are realized in the same space by representer
processes, built here from conditional expectations of the contract book.

The dense matrices of both forms live in the oracle's coordinates: a
plan's ``flat`` array scaled by each entry's square-root path probability.
They are assembled by direct leaf enumeration, deliberately independent
of the conditional-expectation route used by ``apply``, so the two can
check each other.  Each leaf holds one nonzero of the unit plans' final
utilities per (issue stage, contract); those nonzeros are kept as an
index array and a value array of shape ``(leaves, stages * contracts)``,
and the Gram matrix is one scatter-add of every leaf's pairwise products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contracts import ContractBook
from .errors import DimensionMismatch, InputError, NumericalFailure
from .portfolio import (
    ConstraintConfig,
    Kind,
    final_utility_rv,
    mean_final,
    utility_growth,
    utility_process,
)
from .tree import AdaptedVariable, PortfolioProcess, ScenarioTree, inner_product, row_dot

#: default cap on the dense coordinate dimension
DENSE_MAX_DIM = 5000


def leaf_scalar(
    kind: Kind, tree: ScenarioTree, book: ContractBook, l: int, x: AdaptedVariable
) -> np.ndarray:
    """The settled result ``u_l . x`` of stage-l positions ``x`` at every
    leaf, centered for the variance form."""
    if x.depth != l:
        raise InputError(f"stage-{l} block input has depth {x.depth}")
    ul = book.final_utility(l).values
    return _centered(kind, tree, row_dot(ul, tree.lift(x, tree.horizon).values))


def _centered(kind: Kind, tree: ScenarioTree, scalar: np.ndarray) -> np.ndarray:
    if kind is Kind.VARIANCE:
        return scalar - float(tree.path_prob[tree.horizon] @ scalar)
    return scalar


def images(
    tree: ScenarioTree, book: ContractBook, stages: range, scalars: np.ndarray
) -> list[np.ndarray]:
    """``E[u_k s | F_k]`` for every stage k of the contiguous run ``stages``
    and every column s of the ``(leaves, m)`` leaf scalars.

    All products are one leaf block, swept up the tree once; entry i has
    shape ``(m, n_nodes(k), n_contracts)`` and is read off at depth
    k = ``stages[i]``.
    """
    if not stages or stages.step != 1 or stages.start < 0 or stages[-1] > tree.last_issue:
        raise DimensionMismatch(f"{stages} is not a nonempty run of issue stages")
    leaves = tree.n_nodes(tree.horizon)
    if len(scalars) != leaves:
        raise DimensionMismatch(f"{len(scalars)} leaf scalars for {leaves} leaves")
    block = np.einsum("lm,lkc->lmkc", scalars, book.settled[:, stages.start : stages.stop])
    levels = tree.conditional_levels(block.reshape(leaves, -1), tree.horizon, stages.start)
    return [
        np.ascontiguousarray(level.reshape(-1, *block.shape[1:])[:, :, i].swapaxes(0, 1))
        for i, level in enumerate(levels[: len(stages)])
    ]


def apply(
    kind: Kind, tree: ScenarioTree, book: ContractBook, plan: PortfolioProcess
) -> PortfolioProcess:
    """Apply the chosen form's operator to a plan.

    Stage k of the image is the issue-time conditional expectation of the
    plan's final utility (centered for the variance form) times the
    generation-k settled results.
    """
    weight = _centered(kind, tree, final_utility_rv(tree, book, plan).values)
    stages = images(tree, book, range(tree.last_issue + 1), weight[:, None])
    return PortfolioProcess.from_flat(tree, np.concatenate([v.ravel() for (v,) in stages]))


@dataclass
class Representers:
    """Mean and profitability representer processes.

    ``roe[t]`` realizes the period-t profitability functional: its inner
    product with a plan equals expected utility growth over (t, t+1] minus
    the floor rate times expected accumulated utility at t.  ``mean``
    realizes expected final utility.
    """

    mean: PortfolioProcess
    roe: list[PortfolioProcess]

    def combine(self, roe_weights: np.ndarray, mean_weight: float) -> PortfolioProcess:
        """Weighted sum of all representers, mean last."""
        out = self.mean * float(mean_weight)
        for t, w in enumerate(roe_weights):
            if w != 0.0:
                out = out + self.roe[t] * float(w)
        return out

    def all_rows(self) -> list[PortfolioProcess]:
        """Profitability representers in period order, then the mean one."""
        return [*self.roe, self.mean]


def representers(
    tree: ScenarioTree,
    book: ContractBook,
    config: ConstraintConfig,
    self_check: int = 0,
    rng: np.random.Generator | None = None,
) -> Representers:
    """Build all representer processes from the contract book.

    The general conditional form is used throughout; no shortcut is taken
    for books whose settled results happen to be issue-time independent.
    With ``self_check`` > 0, the defining functional identities are verified
    against that many random plans and a failure raises.
    """
    config.check_horizon(tree)
    mean_rep = PortfolioProcess(tree, [tree.conditional_expectation(book.final_utility(k), k)
                                       for k in range(tree.last_issue + 1)])
    roe_reps = []
    for t in range(tree.horizon):
        rate = float(config.roe_rates[t])
        rep = PortfolioProcess.zeros(tree)
        for k in range(min(t, tree.last_issue) + 1):
            nxt = book.utility(k, t + 1).values
            now = tree.lift(book.utility(k, t), t + 1).values
            diff = tree.adapted(t + 1, nxt - (1.0 + rate) * now)
            rep.stage(k).values[...] = tree.conditional_expectation(diff, k).values
        roe_reps.append(rep)
    reps = Representers(mean_rep, roe_reps)

    if self_check > 0:
        rng = rng or np.random.default_rng(0)
        _verify_representers(tree, book, config, reps, self_check, rng)
    return reps


def _verify_representers(tree, book, config, reps, n_checks, rng):
    # the representers are only correct if their inner products reproduce the
    # functionals they stand for, so probe with random plans
    for _ in range(n_checks):
        plan = PortfolioProcess.from_arrays(
            tree, [rng.standard_normal(s.values.shape) for s in reps.mean.stages]
        )
        scale = 1.0 + plan.max_abs()
        got = inner_product(tree, reps.mean, plan)
        want = mean_final(tree, book, plan)
        if abs(got - want) > 1e-10 * scale * 10:
            raise NumericalFailure(
                f"mean representer identity off by {abs(got - want):.3e}"
            )
        for t in range(tree.horizon):
            got = inner_product(tree, reps.roe[t], plan)
            growth = float(tree.expectation(utility_growth(tree, book, plan, t)))
            held = float(tree.expectation(utility_process(tree, book, plan, t)))
            want = growth - float(config.roe_rates[t]) * held
            if abs(got - want) > 1e-10 * scale * 10:
                raise NumericalFailure(
                    f"profitability representer {t} identity off by {abs(got - want):.3e}"
                )


# -- dense coordinates ------------------------------------------------------


def dense_matrix(
    kind: Kind,
    tree: ScenarioTree,
    book: ContractBook,
    max_dim: int = DENSE_MAX_DIM,
) -> np.ndarray:
    """Assemble the chosen form's Gram matrix in probability-weighted
    coordinates, by leaf enumeration.

    Coordinate (k, v, i) sits where a plan's ``flat`` keeps that entry,
    at ``tree.plan_offsets[k] + v * n_contracts + i``.  It is the unit plan
    "one contract i at node v, issue time k", scaled by the square root of
    the node's path probability.  Its final utility at a leaf is
    ``u_k[leaf, i] / sqrt(p_v)`` if v is the leaf's depth-k ancestor and 0
    otherwise, so each leaf has one nonzero per (issue stage, contract).
    ``idx[leaf, (k, i)]`` holds that nonzero's coordinate and
    ``val[leaf, (k, i)]`` its value.  Entry (a, b) sums
    ``p_leaf * (val_a * val_b)`` over the leaves, every entry in one
    scatter-add over all leaves' pairs; the variance form subtracts
    ``m m^T``, with ``m_a`` the sum of ``p_leaf * val_a``.  A pair's weight
    is the same number in both orders, so the matrix is exactly symmetric.
    Memory grows with ``leaves * (stages * contracts)**2 + dim**2``.

    The weighting makes plain Euclidean solves and eigendecompositions
    equivalent to the tree's own geometry.  Past ``max_dim`` coordinates
    the matrix is not built: the input is valid, but too large for a dense
    method.
    """
    dim, nc = tree.plan_offsets[-1], tree.n_contracts
    if dim > max_dim:
        raise NumericalFailure(f"dense dimension {dim} exceeds cap {max_dim}")
    p_leaf = tree.path_prob[tree.horizon]
    leaves = len(p_leaf)
    idx = np.empty((leaves, tree.last_issue + 1, nc), dtype=np.intp)
    val = np.empty(idx.shape)
    anc = np.arange(leaves)
    for d in range(tree.horizon, -1, -1):
        # anc is the row of each leaf's depth-d ancestor
        if d <= tree.last_issue:
            idx[:, d] = tree.plan_offsets[d] + nc * anc[:, None] + np.arange(nc)
            val[:, d] = book.settled[:, d] / np.sqrt(tree.path_prob[d][anc])[:, None]
        if d > 0:
            anc = tree.parent_row[d][anc]
    idx = idx.reshape(leaves, -1)
    val = val.reshape(leaves, -1)

    pairs = idx[:, :, None] * dim + idx[:, None, :]
    weights = val[:, :, None] * val[:, None, :]
    weights *= p_leaf[:, None, None]
    gram = np.bincount(pairs.ravel(), weights.ravel(), dim * dim).reshape(dim, dim)
    if kind is Kind.VARIANCE:
        means = np.bincount(idx.ravel(), (p_leaf[:, None] * val).ravel(), dim)
        gram -= np.outer(means, means)
    return gram
