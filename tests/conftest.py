"""Shared fixtures: the two-stage coin instance and a random generator.

The generator builds instances that satisfy the moment hypotheses exactly,
not just approximately.  Branching counts and branch probabilities depend
only on depth, so the per-step moves are independent of the past, and each
issue time's settled utilities depend on a designated set of future steps,
disjoint across issue times.  Conditional moments then equal unconditional
ones by independence, and mixed conditional moments factorize.

Covariance nondegeneracy needs enough randomness per issue time: the
number of move combinations in a designated set must exceed the contract
count.  With branchings capped at three this forces the designated step of
a two-contract issue to branch three ways, and three contracts fit only
with a single issue time spanning two designated steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib.resources import files

import numpy as np
import pytest

from reinsqp import oracle
from reinsqp.contracts import ContractBook
from reinsqp.errors import Infeasible
from reinsqp.operators import Kind, dense_matrix
from reinsqp.portfolio import ConstraintConfig, mean_final
from reinsqp.qp import phase1_point
from reinsqp.scenario import Scenario, parse
from reinsqp.tree import NodeSpec, PortfolioProcess, ScenarioTree


def coin2_data() -> dict:
    return json.loads(files("reinsqp").joinpath("data/coin2.json").read_text())


@pytest.fixture
def coin2() -> Scenario:
    return parse(coin2_data())


@dataclass
class RandomInstance:
    tree: ScenarioTree
    book: ContractBook
    config: ConstraintConfig
    move_sets: list[tuple[int, ...]]

    @property
    def scenario(self) -> Scenario:
        return Scenario(self.tree, self.book, self.config)


def _build_tree(
    n_contracts: int,
    t_bar: int,
    t_lag: int,
    branchings: list[int],
    probs: list[np.ndarray],
) -> tuple[ScenarioTree, list[tuple[int, ...]]]:
    """Depth-homogeneous tree plus each leaf's tuple of branch choices."""
    nodes = [NodeSpec(0, None, 0, 1.0)]
    level: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    next_id = 1
    for d in range(1, t_bar + t_lag + 1):
        new_level = []
        for parent_id, path in level:
            for c in range(branchings[d - 1]):
                nodes.append(NodeSpec(next_id, parent_id, d, float(probs[d - 1][c])))
                new_level.append((next_id, path + (c,)))
                next_id += 1
        level = new_level
    tree = ScenarioTree.build(n_contracts, t_bar, t_lag, nodes)
    return tree, [path for _, path in level]


def _settled_table(
    rng: np.random.Generator,
    n_contracts: int,
    moves: tuple[int, ...],
    branchings: list[int],
    probs: list[np.ndarray],
) -> np.ndarray:
    """Value per combination of designated branch choices, one column per
    contract, with a well-conditioned covariance and positive means."""
    shape = [branchings[j - 1] for j in moves]
    weights = np.ones(shape)
    for axis, j in enumerate(moves):
        w = probs[j - 1].reshape([-1 if a == axis else 1 for a in range(len(moves))])
        weights = weights * w
    weights = weights.reshape(-1)
    n_combo = int(np.prod(shape))
    for _ in range(100):
        table = rng.normal(1.2, 1.0, size=(n_combo, n_contracts))
        mean = weights @ table
        table = table + np.maximum(0.0, 0.25 - mean)
        mean = weights @ table
        cov = (table - mean).T @ ((table - mean) * weights[:, None])
        eig = np.linalg.eigvalsh(cov)
        if eig[0] >= 1e-3 * max(np.trace(cov), 1e-12):
            return table
    raise AssertionError("could not draw a nondegenerate settled table")


def random_instance(
    rng: np.random.Generator,
    n_contracts: int | None = None,
    t_bar: int | None = None,
    t_lag: int | None = None,
    max_branch: int = 3,
    with_noise: bool = True,
    max_cond: float = 1e7,
) -> RandomInstance:
    """One feasible instance with exactly satisfied moment hypotheses.

    Draws whose quadratic forms are conditioned worse than ``max_cond`` are
    rejected: route-agreement tests assume a well-posed instance, and the
    mean-dominated draws that produce huge condition numbers are a
    conditioning stress, not an algorithmic one.
    """
    for _ in range(40):
        n = int(n_contracts if n_contracts is not None else rng.integers(1, 4))
        if n == 3:
            tb, tl = 0, 2
            move_sets = [(1, 2)]
        else:
            tb = int(t_bar if t_bar is not None else rng.integers(0, 4))
            tl = int(t_lag if t_lag is not None else rng.integers(1, 3))
            move_sets = [(k + 1,) for k in range(tb + 1)]
        horizon = tb + tl
        branchings = [int(rng.integers(2, max_branch + 1)) for _ in range(horizon)]
        if n == 2:
            for (j,) in move_sets:
                branchings[j - 1] = max(branchings[j - 1], 3)
        probs = [
            (lambda raw: raw / raw.sum())(rng.uniform(0.2, 1.0, b))
            for b in branchings
        ]
        tree, leaf_paths = _build_tree(n, tb, tl, branchings, probs)

        entries: dict[tuple[int, int], np.ndarray] = {}
        for k in range(tb + 1):
            moves = move_sets[k]
            table = _settled_table(rng, n, moves, branchings, probs)
            shape = [branchings[j - 1] for j in moves]
            final = np.empty((tree.n_nodes(horizon), n))
            for row, path in enumerate(leaf_paths):
                combo = np.ravel_multi_index([path[j - 1] for j in moves], shape)
                final[row] = table[combo]
            entries[(k, horizon)] = final

            settled = tree.adapted(horizon, final)
            scale = float(np.abs(final).mean()) or 1.0
            for t in range(k + 1, horizon):
                ramp = (t - k) / (horizon - k)
                base = ramp * tree.conditional_expectation(settled, t).values
                if with_noise:
                    noise = rng.normal(0.0, 0.3 * (1 - ramp) * scale, base.shape)
                    noise = noise - tree.path_prob[t] @ noise
                    base = base + noise
                entries[(k, t)] = base
        book = ContractBook(tree, entries)

        if rng.uniform() < 0.7:
            rates = np.zeros(horizon)
            equity = 0.0
        else:
            rates = rng.uniform(0.0, 0.04, horizon)
            equity = float(rng.uniform(0.0, 0.5))
        all_ones = PortfolioProcess.from_arrays(
            tree,
            [np.ones((tree.n_nodes(k), n)) for k in range(tb + 1)],
        )
        floor = float(rng.uniform(0.3, 0.8)) * mean_final(tree, book, all_ones)
        config = ConstraintConfig(
            roe_rates=rates,
            mean_floor=floor,
            variance_cap=None,
            initial_equity=equity,
        )

        if max(
            np.linalg.cond(dense_matrix(Kind.SECOND_MOMENT, tree, book)),
            np.linalg.cond(dense_matrix(Kind.VARIANCE, tree, book)),
        ) > max_cond:
            continue

        rows, levels = oracle.constraint_rows(tree, book, config)
        dim = rows.shape[1]
        try:
            phase1_point(None, None, rows, levels, dim)
        except Infeasible:
            continue
        return RandomInstance(tree, book, config, move_sets)
    raise AssertionError("could not draw a feasible instance")


def scenario_dict(inst: RandomInstance) -> dict:
    """Serialize an instance back to the scenario file format."""
    tree, book, config = inst.tree, inst.book, inst.config
    nodes = []
    for d in range(tree.horizon + 1):
        for row, node_id in enumerate(tree.node_ids[d]):
            parent = None
            if d > 0:
                parent = int(tree.node_ids[d - 1][tree.parent_row[d][row]])
            nodes.append(
                {
                    "id": int(node_id),
                    "parent": parent,
                    "depth": d,
                    "prob": float(tree.cond_prob[d][row]),
                }
            )
    utilities = []
    for (k, t), values in sorted(book.stored_entries().items()):
        for row in range(values.shape[0]):
            for i in range(values.shape[1]):
                v = float(values[row, i])
                if v != 0.0:
                    utilities.append(
                        {
                            "issue_time": k,
                            "contract": i,
                            "node": int(tree.node_ids[t][row]),
                            "value": v,
                        }
                    )
    return {
        "N": tree.n_contracts,
        "T_bar": tree.last_issue,
        "T": tree.settlement_lag,
        "K0": float(config.initial_equity),
        "nodes": nodes,
        "utilities": utilities,
        "constraints": {
            "c": [float(x) for x in config.roe_rates],
            "e": float(config.mean_floor),
            "sigma2": config.variance_cap,
        },
    }
