"""Seeded scenario instances whose moment hypotheses hold exactly.

Every tree is depth-homogeneous: all nodes at one depth branch the same
number of ways with the same conditional probabilities, and node ids run
breadth first, so the children of a node are consecutive.  The per-step
moves are then independent of the past.  Generation k settles on the move
made at depth k + 1 alone; those steps are disjoint across generations, so
conditional moments equal unconditional ones (H1) and mixed moments
factorize (H3).  A step that carries a generation branches at least
``N + 1`` ways and its value table is redrawn until its covariance is well
away from singular (H2).

The generator owns every array it writes (tree, tables, interim results,
constraint levels); the checks in ``checks.py`` recompute dense Gram
matrices, constraint rows and moment tables from these arrays and never
from what the program parsed.  Nothing here imports the program or the
test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linprog


@dataclass
class Instance:
    """One scenario in the generator's own arrays.

    ``branch[d]`` and ``probs[d]`` describe step d (from depth d - 1 to d),
    index 0 unused.  ``final[k]`` holds generation k's settled value per
    move at depth k + 1, shape ``(branch[k + 1], N)``.  ``interim[(k, t)]``
    holds its accumulated result at every depth-t node for k < t < horizon.
    """

    name: str
    n_contracts: int
    last_issue: int
    lag: int
    branch: list[int]
    probs: list[np.ndarray]
    final: list[np.ndarray]
    interim: dict[tuple[int, int], np.ndarray]
    rates: np.ndarray
    equity: float
    floor: float
    cap: float | None = None

    @property
    def horizon(self) -> int:
        return self.last_issue + self.lag

    def n_nodes(self, depth: int) -> int:
        return int(np.prod(self.branch[1 : depth + 1], dtype=np.int64))

    def moves(self, depth: int, step: int) -> np.ndarray:
        """Move taken at ``step`` on the path to each depth-``depth`` node."""
        below = int(np.prod(self.branch[step + 1 : depth + 1], dtype=np.int64))
        return (np.arange(self.n_nodes(depth)) // below) % self.branch[step]

    def path_prob(self, depth: int) -> np.ndarray:
        p = np.ones(1)
        for d in range(1, depth + 1):
            p = np.outer(p, self.probs[d]).ravel()
        return p

    def utility(self, k: int, t: int) -> np.ndarray:
        """Accumulated result of generation k at every depth-t node."""
        if t <= k:
            return np.zeros((self.n_nodes(t), self.n_contracts))
        if t == self.horizon:
            return self.final[k][self.moves(t, k + 1)]
        return self.interim[(k, t)]

    @property
    def dim(self) -> int:
        return self.n_contracts * sum(self.n_nodes(k) for k in range(self.last_issue + 1))

    def to_json(self) -> dict:
        nodes, offset = [], 0
        offsets = []
        for d in range(self.horizon + 1):
            offsets.append(offset)
            n = self.n_nodes(d)
            if d == 0:
                nodes.append({"id": 0, "parent": None, "depth": 0, "prob": 1.0})
            else:
                b = self.branch[d]
                prob = [float(p) for p in self.probs[d]]
                nodes.extend(
                    {"id": offset + r, "parent": offsets[d - 1] + r // b, "depth": d,
                     "prob": prob[r % b]}
                    for r in range(n)
                )
            offset += n
        utilities = []
        for k in range(self.last_issue + 1):
            for t in range(k + 1, self.horizon + 1):
                values = self.utility(k, t).tolist()
                base = offsets[t]
                utilities.extend(
                    {"issue_time": k, "contract": i, "node": base + r, "value": v}
                    for r, row in enumerate(values)
                    for i, v in enumerate(row)
                    if v != 0.0
                )
        return {
            "N": self.n_contracts,
            "T_bar": self.last_issue,
            "T": self.lag,
            "K0": float(self.equity),
            "nodes": nodes,
            "utilities": utilities,
            "constraints": {
                "c": [float(c) for c in self.rates],
                "e": float(self.floor),
                "sigma2": None if self.cap is None else float(self.cap),
            },
        }

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.json"
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, separators=(",", ":"))
        return path


def cond_expectation(inst: Instance, values: np.ndarray, depth: int) -> np.ndarray:
    """Average leaf-or-node ``values`` at some depth down to ``depth``,
    using the consecutive-children layout."""
    d = values.shape[0]
    src = next(t for t in range(inst.horizon + 1) if inst.n_nodes(t) == d)
    out = values
    for t in range(src, depth, -1):
        b = inst.branch[t]
        out = np.einsum("rb...,b->r...", out.reshape((-1, b) + out.shape[1:]), inst.probs[t])
    return out


def _probs(rng: np.random.Generator, b: int) -> np.ndarray:
    raw = rng.uniform(0.2, 1.0, b)
    return raw / raw.sum()


def _table(rng: np.random.Generator, weights: np.ndarray, n: int) -> np.ndarray:
    """Settled values per move, rounded to 1e-4, with positive means and a
    covariance whose smallest eigenvalue is at least 1e-3 of its trace."""
    while True:
        table = np.round(rng.normal(1.2, 1.0, (weights.size, n)), 4)
        table += np.round(np.maximum(0.0, 0.25 - weights @ table), 4)
        centered = table - weights @ table
        cov = centered.T @ (centered * weights[:, None])
        if np.linalg.eigvalsh(cov)[0] >= 1e-3 * np.trace(cov):
            return table


def draw(
    rng: np.random.Generator,
    name: str,
    n_contracts: int,
    last_issue: int,
    lag: int,
    branch: list[int] | None = None,
    zero_rates: bool | None = None,
) -> Instance:
    """One instance; steps that carry no generation branch 2 or 3 ways
    unless ``branch`` fixes every step."""
    horizon = last_issue + lag
    if branch is None:
        branch = [0] + [int(rng.integers(2, 4)) for _ in range(horizon)]
        for k in range(last_issue + 1):
            branch[k + 1] = max(branch[k + 1], n_contracts + 1)
    probs = [np.ones(1)] + [_probs(rng, b) for b in branch[1:]]
    final = [_table(rng, probs[k + 1], n_contracts) for k in range(last_issue + 1)]
    inst = Instance(name, n_contracts, last_issue, lag, branch, probs, final, {},
                    np.zeros(horizon), 0.0, 0.0)
    for k in range(last_issue + 1):
        settled = inst.utility(k, horizon)
        scale = float(np.abs(settled).mean())
        for t in range(k + 1, horizon):
            ramp = (t - k) / (horizon - k)
            base = ramp * cond_expectation(inst, settled, t)
            noise = rng.normal(0.0, 0.3 * (1 - ramp) * scale, base.shape)
            noise -= inst.path_prob(t) @ noise
            inst.interim[(k, t)] = np.round(base + noise, 6)
    if zero_rates is None:
        zero_rates = rng.uniform() < 0.7
    if not zero_rates:
        inst.rates = np.round(rng.uniform(0.0, 0.04, horizon), 4)
        inst.equity = round(float(rng.uniform(0.0, 0.5)), 4)
    ones_mean = sum(
        float(inst.path_prob(horizon) @ inst.utility(k, horizon).sum(axis=1))
        for k in range(last_issue + 1)
    )
    inst.floor = round(float(rng.uniform(0.3, 0.8)) * ones_mean, 6)
    return inst


def feasible(inst: Instance, rows: np.ndarray, levels: np.ndarray) -> bool:
    """Whether some nonnegative plan meets every constraint row."""
    res = linprog(np.zeros(rows.shape[1]), A_ub=-rows, b_ub=-levels,
                  bounds=(0, None), method="highs")
    return res.status == 0
