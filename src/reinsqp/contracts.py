"""Contract books, their moment tables, and the model hypothesis checks.

A contract book stores the accumulated-result process of every contract
generation: ``utility(k, t)`` is the adapted vector of per-contract results
at time ``t`` for the generation issued at time ``k``.  Results are zero up
to and including the issue time and reach their final value at the horizon.

The optimizer only ever sees the book through its moment tables (second
moments, covariances, and the conditional second moments at coarser
information levels) and through a few conditional expectations, all of which
are exact finite sums on the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InputError
from .tree import AdaptedVariable, ScenarioTree

#: absolute tolerance for moment identity checks
MOMENT_TOL = 1e-8
#: relative (to trace) eigenvalue floor for positive definiteness checks
PD_TOL = 1e-9


class ContractBook:
    """Per-generation accumulated results on a scenario tree.

    Parameters
    ----------
    tree
        The scenario tree the results live on.
    entries
        Mapping ``(issue_time, t) -> array`` of shape
        ``(n_nodes(t), n_contracts)``.  Pairs with ``t <= issue_time`` are
        rejected (results are zero there by definition); omitted pairs
        default to zero.
    """

    def __init__(self, tree: ScenarioTree, entries: dict[tuple[int, int], np.ndarray]):
        self.tree = tree
        self._entries: dict[tuple[int, int], AdaptedVariable] = {}
        for (k, t), values in entries.items():
            if not 0 <= k <= tree.last_issue:
                raise InputError(f"issue time {k} outside [0, {tree.last_issue}]")
            if not k < t <= tree.horizon:
                raise InputError(
                    f"result time {t} for issue time {k} outside ({k}, {tree.horizon}]"
                )
            values = np.asarray(values, dtype=float)
            if values.shape != (tree.n_nodes(t), tree.n_contracts):
                raise DimensionMismatch(
                    f"utility({k},{t}) has shape {values.shape}, expected "
                    f"({tree.n_nodes(t)}, {tree.n_contracts})"
                )
            self._entries[(k, t)] = AdaptedVariable(t, values)

    def utility(self, issue_time: int, t: int) -> AdaptedVariable:
        """The accumulated result of generation ``issue_time`` at time ``t``."""
        if not 0 <= t <= self.tree.horizon:
            raise InputError(f"time {t} outside [0, {self.tree.horizon}]")
        if t <= issue_time:
            return self.tree.zeros(t, self.tree.n_contracts)
        stored = self._entries.get((issue_time, t))
        if stored is None:
            return self.tree.zeros(t, self.tree.n_contracts)
        return stored

    def final_utility(self, issue_time: int) -> AdaptedVariable:
        """The settled per-contract result of one generation, at the horizon."""
        return self.utility(issue_time, self.tree.horizon)

    @cached_property
    def settled(self) -> np.ndarray:
        """Every generation's settled results: ``[leaf, issue_time, contract]``."""
        return np.stack([self.final_utility(k).values for k in range(self.tree.last_issue + 1)], 1)

    def stored_entries(self) -> dict[tuple[int, int], np.ndarray]:
        """The explicitly stored ``(issue_time, t) -> values`` arrays."""
        return {key: av.values for key, av in self._entries.items()}


@dataclass
class MomentTables:
    """Exact moment matrices of the settled results.

    ``second_moment[k]`` and ``covariance[k]`` are the N x N matrices of the
    generation-k final results; ``mean[k]`` their expectation.
    ``cond_second_moment[n][k]`` is the second moment of the depth-n
    conditional expectation of the generation-k final results.
    """

    second_moment: list[np.ndarray]
    covariance: list[np.ndarray]
    mean: list[np.ndarray]
    cond_second_moment: list[list[np.ndarray]]

    @property
    def last_issue(self) -> int:
        return len(self.second_moment) - 1


def compute_moments(tree: ScenarioTree, book: ContractBook) -> MomentTables:
    """Assemble all moment tables in one pass over the tree."""
    kmax = tree.last_issue
    second, cov, mean = [], [], []
    cond_second: list[list[np.ndarray]] = [[None] * (kmax + 1) for _ in range(kmax + 1)]
    p_leaf = tree.path_prob[tree.horizon]
    for k in range(kmax + 1):
        u = book.final_utility(k).values
        m = p_leaf @ u
        ma = u.T @ (u * p_leaf[:, None])
        mean.append(m)
        second.append(ma)
        cov.append(ma - np.outer(m, m))
        # the finer levels are only steps of the sweep; drop them at once
        levels = tree.conditional_levels(u, tree.horizon, 0)[: kmax + 1]
        for n in range(kmax + 1):
            ubar = levels[n]
            cond_second[n][k] = ubar.T @ (ubar * tree.path_prob[n][:, None])
    return MomentTables(second, cov, mean, cond_second)


@dataclass
class HypothesisReport:
    """Result of the model hypothesis checks, with worst violations located."""

    h1_ok: bool
    h2_ok: bool
    h3_ok: bool
    h1_worst: float = 0.0
    h1_where: str = ""
    h2_min_eig: float = float("inf")
    h2_where: str = ""
    h3_worst: float = 0.0
    h3_where: str = ""

    @property
    def all_ok(self) -> bool:
        return self.h1_ok and self.h2_ok and self.h3_ok

    def as_dict(self) -> dict:
        return {
            "h1_ok": self.h1_ok,
            "h2_ok": self.h2_ok,
            "h3_ok": self.h3_ok,
            "h1_worst": self.h1_worst,
            "h1_where": self.h1_where,
            "h2_min_eig": None if self.h2_min_eig == float("inf") else self.h2_min_eig,
            "h2_where": self.h2_where,
            "h3_worst": self.h3_worst,
            "h3_where": self.h3_where,
        }


def check_h1(tree: ScenarioTree, book: ContractBook):
    """Settled results carry no information available at their issue time.

    Verified through moment identities: the depth-k conditional first and
    second moments of the generation-k final results must equal the
    unconditional ones at every depth-k node.
    """
    worst, where = 0.0, ""
    for k in range(tree.last_issue + 1):
        u = book.final_utility(k)
        m = tree.expectation(u)
        cond_m = tree.conditional_expectation(u, k).values
        dev = float(np.abs(cond_m - m[None, :]).max()) if cond_m.size else 0.0
        if dev > worst:
            worst, where = dev, f"first moment, issue {k}"
        prods = u.values[:, :, None] * u.values[:, None, :]
        flat = prods.reshape(prods.shape[0], -1)
        second = tree.path_prob[tree.horizon] @ flat
        cond_second = tree.conditional_expectation(
            tree.adapted(tree.horizon, flat), k
        ).values
        dev = float(np.abs(cond_second - second[None, :]).max())
        if dev > worst:
            worst, where = dev, f"second moment, issue {k}"
    return worst <= MOMENT_TOL, worst, where


def check_h2(moments: MomentTables):
    """Every generation's settled-result covariance is positive definite.

    The eigenvalue floor is relative to the trace so the check is scale free.
    """
    min_rel, where, ok = float("inf"), "", True
    for k, mb in enumerate(moments.covariance):
        eigs = np.linalg.eigvalsh(mb)
        scale = max(float(np.trace(mb)), np.finfo(float).tiny)
        rel = float(eigs[0]) / scale
        if rel < min_rel:
            min_rel, where = rel, f"covariance, issue {k}"
        if float(eigs[0]) < PD_TOL * scale:
            ok = False
    return ok, min_rel, where


def check_h3(tree: ScenarioTree, book: ContractBook):
    """Settled results of distinct generations are independent.

    Verified through conditional mixed-moment factorization at every
    issue-time information level: E(u_i(k) u_j(l) | F_n) must equal
    E(u_i(k) | F_n) E(u_j(l) | F_n) for all k != l.  A single issue time
    passes vacuously.
    """
    worst, where = 0.0, ""
    kmax = tree.last_issue
    settled = [book.final_utility(k).values for k in range(kmax + 1)]
    cond = [tree.conditional_levels(u, tree.horizon, 0)[: kmax + 1] for u in settled]
    for k in range(kmax + 1):
        uk = settled[k]
        # the (l, k) products are the (k, l) ones transposed, with the same
        # deviations, so the first visit of each pair decides
        for l in range(k + 1, kmax + 1):
            ul = settled[l]
            prods = uk[:, :, None] * ul[:, None, :]
            flat = prods.reshape(prods.shape[0], -1)
            joints = tree.conditional_levels(flat, tree.horizon, 0)[: kmax + 1]
            for n in range(kmax + 1):
                joint = joints[n]
                ck, cl = cond[k][n], cond[l][n]
                split = (ck[:, :, None] * cl[:, None, :]).reshape(joint.shape)
                dev = float(np.abs(joint - split).max())
                if dev > worst:
                    worst, where = dev, f"issues ({k},{l}) conditioned at depth {n}"
    return worst <= MOMENT_TOL, worst, where


def check_hypotheses(
    tree: ScenarioTree,
    book: ContractBook,
    moments: MomentTables | None = None,
) -> HypothesisReport:
    """Run all three hypothesis checks and collect one report."""
    if moments is None:
        moments = compute_moments(tree, book)
    h1_ok, h1_worst, h1_where = check_h1(tree, book)
    h2_ok, h2_min, h2_where = check_h2(moments)
    h3_ok, h3_worst, h3_where = check_h3(tree, book)
    return HypothesisReport(
        h1_ok, h2_ok, h3_ok, h1_worst, h1_where, h2_min, h2_where, h3_worst, h3_where
    )
