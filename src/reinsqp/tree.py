"""Finite scenario trees and the calculus of adapted quantities on them.

A scenario tree realizes a filtered finite probability space: depth-t nodes
are the time-t information states, each node carries the conditional
probability of reaching it from its parent, and the leaves at the final depth
are the elementary scenarios.  Everything the optimizer touches (utilities,
portfolios, operator images, representers) is an adapted quantity: one value,
scalar or vector, per node of some depth.  Nodes are addressed by their row
in the canonical order (depth-major, then ascending id): ``node_ids[d]``
holds the sorted ids of depth d, and the tree keeps no per-node lookup
table.

The class below caches, on first use, one sparse averaging matrix per level
(rows are parents, columns their children, entries the conditional
probabilities) and one ancestor index per pair of depths.  Conditioning is
then one sparse product per level, and lifting one gather.  The columns of
a block are averaged independently, so a block whose columns are meant for
different depths is swept up once and each column read off at its own
depth, with the same bits as a sweep of that column alone.

A plan is one flat array, stage-major, then node, then contract.  The
tree caches where each stage starts (``plan_offsets``); a plan's stages
are views into its array, and the oracle's coordinates are that array,
scaled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import attrgetter

import numpy as np
from scipy import sparse

from .errors import DimensionMismatch, InputError

#: absolute tolerance for probability sums
PROB_TOL = 1e-9
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class NodeSpec:
    """Raw description of one tree node."""

    id: int
    parent: int | None
    depth: int
    prob: float


def validate_structure(
    n_contracts: int,
    last_issue: int,
    settlement_lag: int,
    nodes: list[NodeSpec],
) -> list[str]:
    """Every violation of the tree invariants in a raw node list; an empty
    list means :class:`ScenarioTree` can be built from it.

    All violations are collected and reported together rather than failing on
    the first one, so a malformed file produces one complete diagnosis.  A
    repeated node id ends the checks there, since the later ones look nodes
    up by id.  Ids and parents must fit in int64, the dtype of the tree's
    id arrays.
    """
    problems: list[str] = []
    if n_contracts < 1:
        problems.append(f"n_contracts must be >= 1, got {n_contracts}")
    if last_issue < 0:
        problems.append(f"last_issue must be >= 0, got {last_issue}")
    if settlement_lag < 1:
        problems.append(f"settlement_lag must be >= 1, got {settlement_lag}")
    horizon = last_issue + settlement_lag

    by_id = {n.id: n for n in nodes}
    if len(by_id) != len(nodes):
        problems.append("node ids are not unique")
        return problems

    roots = [n for n in nodes if n.parent is None]
    if len(roots) != 1:
        problems.append(f"expected exactly one root node, found {len(roots)}")
    else:
        root = roots[0]
        if root.depth != 0:
            problems.append(f"root node {root.id} has depth {root.depth}, expected 0")
        if abs(root.prob - 1.0) > PROB_TOL:
            problems.append(f"root node {root.id} has prob {root.prob}, expected 1")

    children: dict[int, list[NodeSpec]] = {n.id: [] for n in nodes}
    for n in nodes:
        if not (_INT64.min <= n.id <= _INT64.max
                and (n.parent is None or _INT64.min <= n.parent <= _INT64.max)):
            problems.append(f"node {n.id} has an id or parent outside the int64 range")
        if n.depth < 0 or n.depth > horizon:
            problems.append(f"node {n.id} has depth {n.depth} outside [0, {horizon}]")
        if n.parent is not None:
            if n.parent not in by_id:
                problems.append(f"node {n.id} references unknown parent {n.parent}")
                continue
            parent = by_id[n.parent]
            if parent.depth != n.depth - 1:
                problems.append(
                    f"node {n.id} at depth {n.depth} has parent {n.parent} "
                    f"at depth {parent.depth}"
                )
            children[n.parent].append(n)
        if not (n.prob > 0.0):
            problems.append(f"node {n.id} has nonpositive conditional prob {n.prob}")

    for n in nodes:
        kids = children[n.id]
        if n.depth < horizon:
            if not kids:
                problems.append(
                    f"node {n.id} at depth {n.depth} < horizon {horizon} has no children"
                )
            else:
                total = sum(c.prob for c in kids)
                if abs(total - 1.0) > PROB_TOL:
                    problems.append(
                        f"children of node {n.id} have prob sum {total!r}, expected 1"
                    )
        elif kids:
            problems.append(f"terminal node {n.id} at depth {n.depth} has children")

    return problems


@dataclass(frozen=True)
class AdaptedVariable:
    """One value per node at a fixed depth, in the tree's canonical node order.

    ``values`` has shape ``(n_nodes,)`` for scalar quantities or
    ``(n_nodes, m)`` for vector ones.
    """

    depth: int
    values: np.ndarray

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 2


class ScenarioTree:
    """A validated finite scenario tree with fast adapted-variable calculus.

    Use :meth:`build` to construct one from raw node specs, which raises on
    any problem :func:`validate_structure` finds; the constructor assumes
    the specs have none.
    """

    def __init__(
        self,
        n_contracts: int,
        last_issue: int,
        settlement_lag: int,
        nodes: list[NodeSpec],
    ):
        self.n_contracts = n_contracts
        self.last_issue = last_issue
        self.settlement_lag = settlement_lag
        self.horizon = last_issue + settlement_lag

        # canonical order: depth-major, then ascending node id
        self.node_ids: list[np.ndarray] = []
        self.cond_prob: list[np.ndarray] = []
        self.parent_row: list[np.ndarray] = []
        self.path_prob: list[np.ndarray] = []
        row_of: dict[int, int] = {}
        levels: list[list[NodeSpec]] = [[] for _ in range(self.horizon + 1)]
        for n in nodes:
            levels[n.depth].append(n)
        for d, level in enumerate(levels):
            level.sort(key=attrgetter("id"))
            if not level:
                raise InputError(f"no nodes at depth {d}")
            self.node_ids.append(np.array([n.id for n in level], dtype=np.int64))
            self.cond_prob.append(np.array([n.prob for n in level], dtype=float))
            if d == 0:
                self.parent_row.append(np.zeros(len(level), dtype=np.int64))
                self.path_prob.append(np.ones(len(level)))
            else:
                rows = np.array([row_of[n.parent] for n in level], dtype=np.int64)
                self.parent_row.append(rows)
                self.path_prob.append(self.path_prob[d - 1][rows] * self.cond_prob[d])
            row_of.update({n.id: i for i, n in enumerate(level)})
        self._ancestors: dict[tuple[int, int], np.ndarray] = {}

    @classmethod
    def build(
        cls,
        n_contracts: int,
        last_issue: int,
        settlement_lag: int,
        nodes: list[NodeSpec],
    ) -> "ScenarioTree":
        problems = validate_structure(n_contracts, last_issue, settlement_lag, nodes)
        if problems:
            raise InputError("invalid scenario tree: " + "; ".join(problems))
        return cls(n_contracts, last_issue, settlement_lag, nodes)

    # -- indexing -----------------------------------------------------------

    def n_nodes(self, depth: int) -> int:
        return len(self.node_ids[depth])

    @cached_property
    def plan_offsets(self) -> tuple[int, ...]:
        """Where each issue stage starts in a flat plan (stage-major, node,
        contract), then the plan's size."""
        sizes = [self.n_nodes(k) * self.n_contracts for k in range(self.last_issue + 1)]
        return tuple(accumulate(sizes, initial=0))

    # -- adapted-variable calculus -----------------------------------------

    def adapted(self, depth: int, values: np.ndarray) -> AdaptedVariable:
        values = np.asarray(values, dtype=float)
        if values.shape[0] != self.n_nodes(depth):
            raise DimensionMismatch(
                f"{values.shape[0]} values for {self.n_nodes(depth)} nodes at depth {depth}"
            )
        return AdaptedVariable(depth, values)

    def zeros(self, depth: int, n_components: int | None = None) -> AdaptedVariable:
        shape = (self.n_nodes(depth),) if n_components is None else (
            self.n_nodes(depth),
            n_components,
        )
        return AdaptedVariable(depth, np.zeros(shape))

    def expectation(self, x: AdaptedVariable) -> float | np.ndarray:
        """Expectation under the path probabilities of ``x``'s depth."""
        p = self.path_prob[x.depth]
        if x.is_vector:
            return p @ x.values
        return float(p @ x.values)

    @cached_property
    def _averaging(self) -> list[sparse.csr_array | None]:
        """Per depth d >= 1, the (parents x children) matrix of conditional
        probabilities that averages depth-d values onto depth d - 1.

        Each row lists its children in canonical order, so every parent sums
        its weighted children in the same order as a sequential scatter-add.
        """
        up: list[sparse.csr_array | None] = [None]
        for d in range(1, self.horizon + 1):
            rows = self.parent_row[d]
            children = np.argsort(rows, kind="stable")
            counts = np.bincount(rows, minlength=self.n_nodes(d - 1))
            indptr = np.concatenate(([0], np.cumsum(counts)))
            up.append(
                sparse.csr_array(
                    (self.cond_prob[d][children], children, indptr),
                    shape=(self.n_nodes(d - 1), self.n_nodes(d)),
                )
            )
        return up

    def conditional_levels(
        self, values: np.ndarray, depth: int, lowest: int
    ) -> list[np.ndarray]:
        """Depth-``depth`` values conditioned on every depth from ``lowest``
        up to ``depth``, in one sweep: entry i is at depth ``lowest + i``.

        Each level is one sparse product: the value at a node is the
        conditional-probability weighted sum over its children.
        """
        if not 0 <= lowest <= depth:
            raise DimensionMismatch(
                f"cannot condition depth-{depth} values on depth {lowest}"
            )
        levels = [values]
        up = self._averaging
        for d in range(depth, lowest, -1):
            levels.append(up[d] @ levels[-1])
        return levels[::-1]

    def conditional_expectation(self, x: AdaptedVariable, depth: int) -> AdaptedVariable:
        """Project ``x`` onto the coarser information at ``depth`` <= x.depth."""
        if depth > x.depth:
            raise DimensionMismatch(
                f"cannot condition depth-{x.depth} variable on finer depth {depth}"
            )
        return AdaptedVariable(depth, self.conditional_levels(x.values, x.depth, depth)[0])

    def _ancestor_rows(self, depth: int, finer: int) -> np.ndarray:
        """Row of each depth-``finer`` node's ancestor at ``depth``."""
        rows = self._ancestors.get((depth, finer))
        if rows is None:
            rows = self.parent_row[finer]
            for d in range(finer - 1, depth, -1):
                rows = self.parent_row[d][rows]
            self._ancestors[(depth, finer)] = rows
        return rows

    def lift(self, x: AdaptedVariable, depth: int) -> AdaptedVariable:
        """Extend ``x`` to ``depth`` >= x.depth by copying along descendants."""
        if depth < x.depth:
            raise DimensionMismatch(
                f"cannot lift depth-{x.depth} variable down to depth {depth}"
            )
        if depth == x.depth:
            return AdaptedVariable(depth, x.values)
        rows = self._ancestor_rows(x.depth, depth)
        return AdaptedVariable(depth, np.take(x.values, rows, axis=0))


class PortfolioProcess:
    """An adapted underwriting plan: one vector of positions per issue time.

    The plan is one float array, ``flat``, in stage-major, node, contract
    order.  ``stages`` is a tuple of views into it: stage ``k``, at
    ``tree.plan_offsets[k]``, holds the ``(n_nodes(k), n_contracts)``
    volumes of each contract written at every depth-k node.  The
    constructor copies its stages into a new ``flat``; arithmetic, ``copy``,
    ``min_value`` and ``max_abs`` are each one numpy operation on ``flat``.
    """

    def __init__(self, tree: ScenarioTree, stages: list[AdaptedVariable]):
        if len(stages) != tree.last_issue + 1:
            raise DimensionMismatch(
                f"{len(stages)} stages for {tree.last_issue + 1} issue times"
            )
        for k, stage in enumerate(stages):
            if stage.depth != k:
                raise DimensionMismatch(f"stage {k} has depth {stage.depth}")
            if stage.values.shape != (tree.n_nodes(k), tree.n_contracts):
                raise DimensionMismatch(
                    f"stage {k} has shape {stage.values.shape}, expected "
                    f"({tree.n_nodes(k)}, {tree.n_contracts})"
                )
        self.tree, self._stages = tree, None
        self.flat = np.concatenate([s.values.ravel() for s in stages], dtype=float)

    @classmethod
    def from_flat(cls, tree: ScenarioTree, flat: np.ndarray) -> "PortfolioProcess":
        """The plan whose ``flat`` is ``flat`` itself, not a copy."""
        size = tree.plan_offsets[-1]
        if flat.shape != (size,):
            raise DimensionMismatch(f"flat plan has shape {flat.shape}, wanted ({size},)")
        plan = cls.__new__(cls)
        plan.tree, plan.flat, plan._stages = tree, flat, None
        return plan

    @property
    def stages(self) -> tuple[AdaptedVariable, ...]:
        """Each stage's view into ``flat``, made on first use."""
        if self._stages is None:
            at, nc = self.tree.plan_offsets, self.tree.n_contracts
            self._stages = tuple(AdaptedVariable(k, self.flat[at[k] : at[k + 1]].reshape(-1, nc))
                                 for k in range(len(at) - 1))
        return self._stages

    @classmethod
    def zeros(cls, tree: ScenarioTree) -> "PortfolioProcess":
        return cls.from_flat(tree, np.zeros(tree.plan_offsets[-1]))

    @classmethod
    def from_arrays(cls, tree: ScenarioTree, arrays: list[np.ndarray]) -> "PortfolioProcess":
        return cls(tree, [tree.adapted(k, a) for k, a in enumerate(arrays)])

    def stage(self, k: int) -> AdaptedVariable:
        return self.stages[k]

    def copy(self) -> "PortfolioProcess":
        return PortfolioProcess.from_flat(self.tree, self.flat.copy())

    def __add__(self, other: "PortfolioProcess") -> "PortfolioProcess":
        return PortfolioProcess.from_flat(self.tree, self.flat + other.flat)

    def __sub__(self, other: "PortfolioProcess") -> "PortfolioProcess":
        return PortfolioProcess.from_flat(self.tree, self.flat - other.flat)

    def __mul__(self, scalar: float) -> "PortfolioProcess":
        return PortfolioProcess.from_flat(self.tree, self.flat * scalar)

    __rmul__ = __mul__

    def min_value(self) -> float:
        return float(self.flat.min())

    def max_abs(self) -> float:
        return float(np.abs(self.flat).max())


def inner_product(tree: ScenarioTree, a: PortfolioProcess, b: PortfolioProcess) -> float:
    """The path-probability weighted inner product of two portfolio processes:
    one row dot product per node over their ``flat`` arrays, summed stage by
    stage."""
    nc = tree.n_contracts
    rows = row_dot(a.flat.reshape(-1, nc), b.flat.reshape(-1, nc))
    total, start = 0.0, 0
    for p in tree.path_prob[: tree.last_issue + 1]:
        total += float(np.sum(p * rows[start : start + len(p)]))
        start += len(p)
    return total


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two ``(n, m)`` arrays, adding the columns left
    to right.  For m < 8 this is bitwise ``np.sum(a * b, axis=1)``; past
    that numpy sums in pairwise blocks and the last bits can differ."""
    out = a[:, 0] * b[:, 0]
    for c in range(1, a.shape[1]):
        out += a[:, c] * b[:, c]
    return out


def norm(tree: ScenarioTree, a: PortfolioProcess) -> float:
    return float(np.sqrt(max(inner_product(tree, a, a), 0.0)))
