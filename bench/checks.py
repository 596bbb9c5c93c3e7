"""Answer checks that share no code with the program.

Everything here works from the generator's arrays in plain (unweighted)
plan coordinates, ordered stage, node, contract.  A plan ``x`` has final
utility ``A x`` at the leaves, where column (k, v, i) of ``A`` holds
generation k's settled value of contract i on the leaves below node v.
The variance Gram matrix is ``A' P A - (A' p)(A' p)'`` with ``P`` the
diagonal of leaf probabilities, and the program's tree inner product is
the plain one weighted by each coordinate's node probability ``w``.  In
these coordinates a minimum-variance optimum with multipliers
``(lam, mu, nu)`` satisfies

    G x = sum_t lam_t r_t + mu m + w * nu,

with every multiplier nonnegative and complementary to its slack.  Each
check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from gen import Instance, cond_expectation

#: relative stationarity and complementarity tolerance of the certificate
CERT_TOL = 1e-6
#: relative distance within which two plans count as the same optimum
AGREE_TOL = 1e-5
#: residual a structured linear solve must reach (the program's own target)
RESIDUAL_TARGET = 1e-9
#: absolute tolerance for moment tables and hypothesis identities
MOMENT_TOL = 1e-8


@dataclass
class Dense:
    """An instance flattened into plain coordinates."""

    gram: np.ndarray
    raw_gram: np.ndarray
    rows: np.ndarray
    levels: np.ndarray
    weights: np.ndarray


def _offsets(inst: Instance) -> list[int]:
    out, total = [], 0
    for k in range(inst.last_issue + 1):
        out.append(total)
        total += inst.n_nodes(k) * inst.n_contracts
    return out


def utility_map(inst: Instance, t: int) -> np.ndarray:
    """Matrix taking a plan to its accumulated utility at each depth-t node."""
    n_t, nc = inst.n_nodes(t), inst.n_contracts
    out = np.zeros((n_t, inst.dim))
    rows = np.arange(n_t)
    for k, base in enumerate(_offsets(inst)):
        if t <= k:
            continue
        u = inst.utility(k, t)
        anc = rows // (n_t // inst.n_nodes(k))
        for i in range(nc):
            out[rows, base + anc * nc + i] = u[:, i]
    return out


def dense(inst: Instance) -> Dense:
    h = inst.horizon
    maps = [utility_map(inst, t) for t in range(h + 1)]
    p = [inst.path_prob(t) for t in range(h + 1)]
    means = [p[t] @ maps[t] for t in range(h + 1)]
    rows = [means[t + 1] - (1.0 + inst.rates[t]) * means[t] for t in range(h)]
    rows.append(means[h])
    levels = np.append(inst.rates * inst.equity, inst.floor)
    a = maps[h]
    raw = a.T @ (a * p[h][:, None])
    weights = np.concatenate([
        np.repeat(inst.path_prob(k), inst.n_contracts) for k in range(inst.last_issue + 1)
    ])
    return Dense(raw - np.outer(means[h], means[h]), raw, np.array(rows), levels, weights)


def flatten(stages) -> np.ndarray:
    """Plain coordinates of a plan given as per-stage ``(nodes, N)`` arrays."""
    return np.concatenate([np.asarray(s, dtype=float).ravel() for s in stages])


def certificate(sys: Dense, x: np.ndarray, lam: np.ndarray, mu: float,
                nu: np.ndarray, floor: float | None = None) -> list[str]:
    """Optimality certificate of the minimum-variance form at ``floor``
    (the instance's own floor when None): stationarity, feasibility, sign
    and complementarity."""
    levels = sys.levels.copy()
    if floor is not None:
        levels[-1] = floor
    mults = np.append(lam, mu)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(mults)) and np.all(np.isfinite(nu))):
        return ["non-finite plan or multipliers"]
    problems = []
    force = sys.rows.T @ mults + sys.weights * nu
    scale = 1.0 + np.linalg.norm(force) + np.linalg.norm(sys.gram @ x)
    stat = np.linalg.norm(sys.gram @ x - force) / scale
    if stat > CERT_TOL:
        problems.append(f"stationarity {stat:.3e}")
    slack = sys.rows @ x - levels
    size = 1.0 + np.abs(sys.rows).sum(axis=1) * (1.0 + np.abs(x).max())
    if np.any(slack < -CERT_TOL * size) or x.min() < -CERT_TOL * (1.0 + np.abs(x).max()):
        problems.append(f"infeasible: slack {slack.min():.3e}, position {x.min():.3e}")
    if mults.min() < -CERT_TOL * (1.0 + np.abs(mults).max()) or (
            nu.size and nu.min() < -CERT_TOL * (1.0 + np.abs(nu).max())):
        problems.append("negative multiplier")
    compl = max(
        float(np.max(np.abs(mults * slack) / ((1.0 + np.abs(mults)) * size))),
        float(np.max(np.abs(nu * x) / ((1.0 + np.abs(nu)) * (1.0 + np.abs(x).max())),
                     initial=0.0)),
    )
    if compl > CERT_TOL:
        problems.append(f"complementarity {compl:.3e}")
    return problems


def agree(x: np.ndarray, ref: np.ndarray) -> list[str]:
    gap = float(np.linalg.norm(x - ref)) / (1.0 + float(np.linalg.norm(ref)))
    return [] if gap <= AGREE_TOL else [f"plan differs from the oracle by {gap:.3e}"]


def small_qp(gram: np.ndarray, a_in: np.ndarray, b_in: np.ndarray):
    """Minimize 0.5 x'Gx subject to a_in x >= b_in by trying every active
    set: the unique one whose equality solution is feasible with
    nonnegative multipliers is the optimum of a strictly convex problem.
    Returns the minimizer and one multiplier per row."""
    n, m = gram.shape[0], a_in.shape[0]
    for size in range(min(n, m) + 1):
        for active in combinations(range(m), size):
            rows = a_in[list(active)]
            kkt = np.block([[gram, -rows.T], [rows, np.zeros((size, size))]])
            rhs = np.concatenate([np.zeros(n), b_in[list(active)]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x, mult = sol[:n], sol[n:]
            if np.all(a_in @ x >= b_in - 1e-12) and np.all(mult >= -1e-12):
                full = np.zeros(m)
                full[list(active)] = mult
                return x, full
    raise ValueError("no active set is optimal")


def min_variance_by_enumeration(sys: Dense, floor: float):
    """Minimum-variance optimum at ``floor`` with its multipliers
    ``(x, lam, mu, nu)`` in the certificate's convention."""
    n, h = sys.gram.shape[0], sys.rows.shape[0] - 1
    a_in = np.vstack([sys.rows, np.eye(n)])
    b_in = np.concatenate([sys.levels[:-1], [floor], np.zeros(n)])
    x, mult = small_qp(sys.gram, a_in, b_in)
    return x, mult[:h], float(mult[h]), mult[h + 1:] / sys.weights


def max_mean_by_enumeration(sys: Dense, cap: float, hi: float) -> float:
    """Largest mean floor whose minimal variance stays within ``cap``,
    by bisection on ``[0, hi]``."""
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        x = min_variance_by_enumeration(sys, mid)[0]
        if x @ sys.gram @ x <= cap:
            lo = mid
        else:
            hi = mid
    return lo


def frontier_shape(floors: list[float], variances: list[float]) -> list[str]:
    """Optimal variance must be nondecreasing and convex in the floor."""
    v = np.asarray(variances)
    f = np.asarray(floors)
    tol = 1e-7 * (1.0 + np.abs(v).max())
    problems = []
    if np.any(np.diff(v) < -tol):
        problems.append("variance decreases along the frontier")
    slopes = np.diff(v) / np.diff(f)
    if np.any(np.diff(slopes) < -tol / np.diff(f).min()):
        problems.append("variance is not convex in the floor")
    return problems


# -- exact moments and hypotheses ---------------------------------------------


def exact_moments(inst: Instance):
    """Moment tables of the settled results from the generator's tables.

    Generation k's value depends on the move at depth k + 1 alone, so its
    depth-n conditional expectation is the value itself for n > k and its
    mean otherwise."""
    second, mean, cond = [], [], []
    for k, table in enumerate(inst.final):
        w = inst.probs[k + 1]
        m = w @ table
        s = table.T @ (table * w[:, None])
        mean.append(m)
        second.append(s)
    for n in range(inst.last_issue + 1):
        cond.append([second[k] if n > k else np.outer(mean[k], mean[k])
                     for k in range(inst.last_issue + 1)])
    return second, mean, cond


def moment_problems(inst: Instance, moments) -> list[str]:
    second, mean, cond = exact_moments(inst)
    worst = 0.0
    for k in range(inst.last_issue + 1):
        worst = max(worst, np.abs(moments.second_moment[k] - second[k]).max(),
                    np.abs(moments.mean[k] - mean[k]).max(),
                    np.abs(moments.covariance[k] - (second[k] - np.outer(mean[k], mean[k]))).max())
        for n in range(inst.last_issue + 1):
            worst = max(worst, np.abs(moments.cond_second_moment[n][k] - cond[n][k]).max())
    return [] if worst <= MOMENT_TOL else [f"moment tables off by {worst:.3e}"]


# -- leaf-level operator --------------------------------------------------------


def leaf_apply(inst: Instance, centered: bool, plan: list[np.ndarray]) -> list[np.ndarray]:
    """Image of a plan under the raw (or centered) form, one stage per
    issue time: the issue-time conditional expectation of each
    generation's settled values times the plan's (centered) final
    utility, summed leaf by leaf."""
    h = inst.horizon
    n_leaf = inst.n_nodes(h)
    final = np.zeros(n_leaf)
    for k, x in enumerate(plan):
        final += np.sum(inst.utility(k, h) * np.repeat(x, n_leaf // inst.n_nodes(k), axis=0),
                        axis=1)
    if centered:
        final = final - inst.path_prob(h) @ final
    return [cond_expectation(inst, inst.utility(k, h) * final[:, None], k)
            for k in range(len(plan))]


def operator_residual(inst: Instance, centered: bool, shift: float,
                      rhs: list[np.ndarray], plan: list[np.ndarray]) -> float:
    """Relative residual of ``(form - shift) plan = rhs`` in the tree norm."""
    num = den = 0.0
    for k, (image, x, b) in enumerate(zip(leaf_apply(inst, centered, plan), plan, rhs)):
        w = inst.path_prob(k)
        r = b - (image - shift * x)
        num += float(w @ (r * r).sum(axis=1))
        den += float(w @ (b * b).sum(axis=1))
    return float(np.sqrt(num / den)) if den > 0 else float(np.sqrt(num))


def residual_problems(mine: float, reported: float) -> list[str]:
    """The program's own residual must match the leaf-level one."""
    if abs(mine - reported) > 1e-12 + 0.01 * max(mine, reported):
        return [f"reported residual {reported:.3e}, leaf-level residual {mine:.3e}"]
    return []
