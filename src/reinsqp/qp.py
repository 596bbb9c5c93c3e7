"""Active-set solvers for the package's quadratic programs, and the dense
simplex that starts them.

Two entry points share the same philosophy (strictly convex objectives,
explicit active sets, lowest-index anti-cycling, and a full step going
straight to the multiplier test of the solve that produced it):

``nonneg_qp``
    The sign-constrained projection primitive: minimize a strictly convex
    quadratic over the nonnegative orthant, returning the minimizer together
    with its complementary multiplier vector.  This is the building block
    the multiplier pipeline applies nodewise and on the small representer
    Gram system.

``solve_qp``
    A primal active-set method for dense quadratic programs over the
    nonnegative orthant with equality and inequality rows, used by the
    brute-force oracle.  Its start is the vertex that ``phase1_point``
    finds (or ``Infeasible``).

``phase1_point`` and ``lp_maximum`` share one dense tableau simplex on the
standard form ``[x, surplus]``, with artificials where no surplus column
can start the basis.  The entering column has the most negative reduced
cost (Dantzig) until the first pivot with a zero step, and the lowest
index after it (Bland, Math. Oper. Res. 2, 1977), which ends cycling; the
leaving row is the minimum ratio, ties going to the lowest basic column.
A system is infeasible when the least sum of artificials exceeds
``PHASE1_TOL`` times the largest |right-hand side|, so the verdict and the
vertex do not depend on the units of the levels.  Vertices have exact
zeros off the basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, MaxPivotsExceeded, NotSPD


@dataclass
class NonnegQP:
    """Minimizer over the nonnegative orthant and its multipliers.

    ``primal * dual == 0`` holds exactly: each component is zero in at
    least one of the two by construction.  Both have the shape of the
    right-hand side; ``n_pivots`` counts the pivots of every row.
    """

    primal: np.ndarray
    dual: np.ndarray
    n_pivots: int


def nonneg_qp(m: np.ndarray, x: np.ndarray, max_pivots: int | None = None) -> NonnegQP:
    """Minimize 0.5 y'my - x'y over y >= 0 for symmetric positive definite m.

    Active-set scheme in the style of nonnegative least squares: grow the
    free set by the lowest-index violated gradient component, and whenever
    the unconstrained solve on the free set leaves the orthant, step to the
    boundary and retire the variables that hit zero.  The lowest-index rule
    rules out cycling, and a pivot budget guards the loop regardless.

    ``x`` may be a stack of right-hand sides, one per row: ``m`` is checked
    once, and each row is solved on its own with its own scale and pivot
    budget, exactly as a call with that row alone would solve it.
    """
    m = np.asarray(m, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if m.shape != (n, n):
        raise NotSPD(f"matrix shape {m.shape} is not symmetric of order {n}")
    m_max = float(np.abs(m).max())
    if not math.isfinite(m_max):
        raise NotSPD("matrix has a non-finite entry")
    # np.allclose(m, m.T, atol=...) on a finite matrix, without its overhead
    if not (np.abs(m - m.T) <= 1e-12 * (1 + m_max) + 1e-5 * np.abs(m.T)).all():
        raise NotSPD(f"matrix shape {m.shape} is not symmetric of order {n}")
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotSPD("matrix is not positive definite") from exc
    if max_pivots is None:
        max_pivots = 100 * n + 1000

    rows = x.reshape(-1, n)
    primal, dual = np.empty_like(rows), np.empty_like(rows)
    pivots = 0
    for i, row in enumerate(rows):
        primal[i], dual[i], row_pivots = _nonneg_row(m, m_max, row, max_pivots)
        pivots += row_pivots
    return NonnegQP(primal.reshape(x.shape), dual.reshape(x.shape), pivots)


def _nonneg_row(
    m: np.ndarray, m_max: float, x: np.ndarray, max_pivots: int
) -> tuple[np.ndarray, np.ndarray, int]:
    n = x.shape[0]
    scale = max(float(np.abs(x).max()), m_max, 1.0)
    grad_tol = 1e-13 * scale
    free = np.zeros(n, dtype=bool)
    y = np.zeros(n)
    pivots = 0
    while True:
        grad = m @ y - x
        candidates = np.flatnonzero(~free & (grad < -grad_tol))
        if candidates.size == 0:
            break
        free[candidates[0]] = True
        while True:
            pivots += 1
            if pivots > max_pivots:
                raise MaxPivotsExceeded(f"nonneg_qp exceeded {max_pivots} pivots")
            idx = np.flatnonzero(free)
            z = np.linalg.solve(m[np.ix_(idx, idx)], x[idx])
            if np.all(z > 0.0):
                y = np.zeros(n)
                y[idx] = z
                break
            # step from y toward z until the first free variable hits zero
            yf = y[idx]
            neg = z <= 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(neg, yf / (yf - z), np.inf)
            alpha = float(ratios.min())
            yf = yf + alpha * (z - yf)
            yf[neg & (ratios <= alpha + 1e-15)] = 0.0
            y = np.zeros(n)
            y[idx] = np.maximum(yf, 0.0)
            free[idx[y[idx] == 0.0]] = False
    primal = np.zeros(n)
    primal[free] = y[free]
    dual = np.zeros(n)
    inactive = ~free
    dual[inactive] = (m @ primal - x)[inactive]
    return primal, dual, pivots


@dataclass
class QPResult:
    """Solution of a dense QP with the multipliers of its rows and bounds."""

    x: np.ndarray
    eq_multipliers: np.ndarray
    ineq_multipliers: np.ndarray
    bound_multipliers: np.ndarray
    n_pivots: int


#: phase 1 declares a system infeasible when its least sum of artificials
#: exceeds this fraction of the largest |right-hand side|
PHASE1_TOL = 1e-10


class _Tableau:
    """Dense simplex tableau of {x >= 0, a_eq x = b_eq, a_in x >= b_in}.

    Columns are ``[x, surplus, artificials, rhs]`` and the last row holds
    the reduced costs.  Rows are negated where needed so that the
    right-hand side is nonnegative; an inequality row whose level is <= 0
    starts on its surplus column, every other row on an artificial.
    """

    def __init__(self, a_eq, b_eq, a_in, b_in, n: int):
        a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
        a_in = np.zeros((0, n)) if a_in is None else np.asarray(a_in, dtype=float)
        b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
        b_in = np.zeros(0) if b_in is None else np.asarray(b_in, dtype=float)
        m_eq, m_in = b_eq.size, b_in.size
        self.n, self.real = n, n + m_in
        on_surplus = np.concatenate([np.zeros(m_eq, dtype=bool), b_in <= 0.0])
        artificial = np.flatnonzero(~on_surplus)
        t = np.zeros((m_eq + m_in + 1, self.real + artificial.size + 1))
        t[:m_eq, :n] = a_eq
        t[m_eq:-1, :n] = a_in
        t[m_eq:-1, n : self.real] = -np.eye(m_in)
        t[:-1, -1] = np.concatenate([b_eq, b_in])
        t[:-1] *= np.where(on_surplus | (t[:-1, -1] < 0.0), -1.0, 1.0)[:, None]
        t[artificial, self.real + np.arange(artificial.size)] = 1.0
        self.basis = np.empty(m_eq + m_in, dtype=int)
        self.basis[on_surplus] = n + np.flatnonzero(b_in <= 0.0)
        self.basis[artificial] = self.real + np.arange(artificial.size)
        # phase 1 minimizes the sum of the artificials
        t[-1, : self.real] = -t[artificial, : self.real].sum(axis=0)
        self.t = t
        self.b_scale = float(np.abs(t[:-1, -1]).max(initial=0.0))
        self.pivot_tol = 1e-11 * float(np.abs(t[:-1, : self.real]).max(initial=0.0))
        self.pivots, self.max_pivots = 0, 50 * (self.real + t.shape[0]) + 1000

    def vertex(self) -> np.ndarray:
        """The basic solution: the levels on the basis, exact zeros off it."""
        x = np.zeros(self.t.shape[1] - 1)
        x[self.basis] = self.t[:-1, -1]
        return x

    def pivot(self, r: int, e: int) -> None:
        self.pivots += 1
        if self.pivots > self.max_pivots:
            raise MaxPivotsExceeded(f"simplex exceeded {self.max_pivots} pivots")
        t = self.t
        t[r] /= t[r, e]
        col = t[:, e].copy()
        col[r] = 0.0
        t -= np.outer(col, t[r])
        t[:, e] = 0.0
        t[r, e] = 1.0
        rhs = t[:-1, -1]
        rhs[rhs <= 1e-14 * self.b_scale] = 0.0
        self.basis[r] = e

    def run(self) -> int | None:
        """Pivot to optimality over the real columns: Dantzig's most
        negative reduced cost enters until a pivot with a zero step, Bland's
        lowest index after it; the minimum ratio leaves, ties going to the
        lowest basic column.  Returns a column along which the objective
        falls without bound, or None at the optimum."""
        costs = self.t[-1, : self.real]
        tol = 1e-11 * float(np.abs(costs).max(initial=0.0))
        bland = False
        while True:
            costs = self.t[-1, : self.real]
            if bland:
                entering = np.flatnonzero(costs < -tol)
                if not entering.size:
                    return None
                e = int(entering[0])
            else:
                e = int(np.argmin(costs))
                if not costs[e] < -tol:
                    return None
            col = self.t[:-1, e]
            rising = col > self.pivot_tol
            if not rising.any():
                return e
            ratios = np.full(col.shape, np.inf)
            ratios[rising] = self.t[:-1, -1][rising] / col[rising]
            ties = np.flatnonzero(ratios == ratios.min())
            r = int(ties[np.argmin(self.basis[ties])])
            bland |= bool(ratios[r] == 0.0)
            self.pivot(r, e)

    def phase1(self) -> np.ndarray:
        """A vertex of the system, or ``Infeasible``."""
        self.run()
        left = self.t[:-1, -1][self.basis >= self.real].sum()
        if left > PHASE1_TOL * self.b_scale:
            raise Infeasible("constraint set is empty")
        return self.vertex()[: self.n]

    def maximum(self, c: np.ndarray) -> float | None:
        """Phase 2 from the phase-1 vertex: the supremum of c'x, None when
        unbounded."""
        for r in np.flatnonzero(self.basis >= self.real)[::-1]:
            self.t[r, -1] = 0.0  # within PHASE1_TOL of zero
            j = int(np.argmax(np.abs(self.t[r, : self.real])))
            if abs(self.t[r, j]) > self.pivot_tol:
                self.pivot(r, j)
            else:  # a redundant row
                self.t = np.delete(self.t, r, axis=0)
                self.basis = np.delete(self.basis, r)
        self.t = np.delete(self.t, np.s_[self.real : -1], axis=1)
        costs = np.zeros(self.real + 1)
        costs[: self.n] = -c
        self.t[-1] = costs - costs[self.basis] @ self.t[:-1]
        if self.run() is not None:
            return None
        return float(c @ self.vertex()[: self.n])


def phase1_point(
    a_eq: np.ndarray | None,
    b_eq: np.ndarray | None,
    a_in: np.ndarray | None,
    b_in: np.ndarray | None,
    n: int,
) -> np.ndarray:
    """Find a vertex of {x >= 0, a_eq x = b_eq, a_in x >= b_in} or raise
    ``Infeasible``.

    Phase 1 of a dense tableau simplex minimizes the sum of artificials
    (Dantzig's rule, then Bland's after the first zero step).  The system
    is infeasible when that sum exceeds ``PHASE1_TOL`` times the largest
    |right-hand side|, with no absolute floor, so the verdict and the
    vertex's support do not change when every level is scaled.  The
    vertex has exact zeros off the basis.
    """
    return _Tableau(a_eq, b_eq, a_in, b_in, n).phase1()


def lp_maximum(c: np.ndarray, a_in: np.ndarray, b_in: np.ndarray) -> float | None:
    """Supremum of c'x over {x >= 0, a_in x >= b_in}; None when unbounded,
    ``Infeasible`` when the set is empty.

    Phase 2 continues from :func:`phase1_point`'s tableau: artificials left
    at level zero leave the basis (or their redundant row is dropped), and
    the same pivoting rules maximize c'x.  An entering column with no
    positive entry is a ray along which c'x grows without bound.
    """
    c = np.asarray(c, dtype=float)
    tableau = _Tableau(None, None, a_in, b_in, c.size)
    tableau.phase1()
    return tableau.maximum(c)


def _independent(rows: np.ndarray) -> bool:
    """Whether the rows, each scaled to unit length, have full row rank."""
    scaled = rows / np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1e-300)
    return np.linalg.matrix_rank(scaled) == rows.shape[0]


def solve_qp(
    g: np.ndarray,
    c: np.ndarray,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    a_in: np.ndarray | None = None,
    b_in: np.ndarray | None = None,
) -> QPResult:
    """Minimize 0.5 x'gx + c'x over x >= 0 subject to a_eq x = b_eq and
    a_in x >= b_in.

    Primal active set with the bounds as variable fixing (Lawson and
    Hanson's free-variable subproblem): the working set is the coordinates
    fixed at zero, the equality rows and some active inequality rows, and
    each pivot solves on the free coordinates only.  A blocking row joins,
    a blocking coordinate is fixed (rows win ties).  After a full or a
    vanishing step, the same solve's multipliers decide (Nocedal and Wright,
    Alg. 16.3): the lowest-index negative row multiplier leaves, else the
    lowest-index negative bound multiplier ``(gx + c - A'mu)_j`` frees its
    coordinate.  ``n_pivots`` counts the solves.
    At the phase-1 vertex the zero coordinates are fixed (freed in index
    order until the equality rows are independent on the rest), and active
    rows join only while independent on the free coordinates, so no KKT
    matrix is singular however degenerate the vertex.
    """
    g = np.asarray(g, dtype=float)
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    a_in = np.zeros((0, n)) if a_in is None else np.asarray(a_in, dtype=float)
    b_in = np.zeros(0) if b_in is None else np.asarray(b_in, dtype=float)
    m_eq, m_in = a_eq.shape[0], a_in.shape[0]
    x = phase1_point(a_eq, b_eq, a_in, b_in, n)
    max_pivots = 50 * (2 * n + m_in) + 1000

    fixed = x <= 1e-9
    x[fixed] = 0.0
    for j in np.flatnonzero(fixed):
        if _independent(a_eq[:, ~fixed]):
            break
        fixed[j] = False
    working = np.zeros(m_in, dtype=bool)
    for i in np.flatnonzero(a_in @ x - b_in <= 1e-9 * (1.0 + np.abs(b_in))):
        working[i] = True  # kept only if independent of the rows before it
        working[i] = _independent(np.vstack([a_eq, a_in[working]])[:, ~fixed])

    scale = 1.0 + float(np.abs(g).max()) + float(np.abs(c).max())
    pivots = 0
    while True:
        pivots += 1
        if pivots > max_pivots:
            raise MaxPivotsExceeded(f"solve_qp exceeded {max_pivots} pivots")
        act_idx = np.flatnonzero(working)
        free = np.flatnonzero(~fixed)
        rows = np.vstack([a_eq, a_in[act_idx]])
        nf = free.size
        grad = g @ x + c
        kkt = np.zeros((nf + rows.shape[0],) * 2)
        kkt[:nf, :nf] = g[np.ix_(free, free)]
        kkt[nf:, :nf] = rows[:, free]
        kkt[:nf, nf:] = -kkt[nf:, :nf].T
        rhs = np.zeros(kkt.shape[0])
        rhs[:nf] = -grad[free]
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        d = np.zeros(n)
        d[free] = sol[:nf]
        mults = sol[nf:]
        if float(np.abs(d).max(initial=0.0)) > 1e-11 * (1.0 + float(np.abs(x).max())):
            # longest step along d keeping inactive rows, then free coordinates
            inact_idx = np.flatnonzero(~working)
            slack = np.concatenate([a_in[inact_idx] @ x - b_in[inact_idx], x[free]])
            rate = np.concatenate([a_in[inact_idx] @ d, d[free]])
            decreasing = rate < -1e-13 * scale
            steps = np.where(decreasing, -slack / np.where(decreasing, rate, -1.0), np.inf)
            steps = np.maximum(steps, 0.0)
            j = int(np.argmin(np.append(1.0, steps)))  # 0 is the full step
            x = x + (steps[j - 1] if j else 1.0) * d
            if j > inact_idx.size:
                coord = free[j - 1 - inact_idx.size]
                fixed[coord] = True
                x[coord] = 0.0
                continue
            if j:
                working[inact_idx[j - 1]] = True
                continue
        ineq_mults = mults[m_eq:]
        nu = np.where(fixed, grad + g @ d - rows.T @ mults, 0.0)
        # drop the lowest-index negative row multiplier, then bound one
        neg = np.flatnonzero(ineq_mults < -1e-9 * scale)
        if neg.size:
            working[act_idx[neg[0]]] = False
            continue
        neg = np.flatnonzero(nu < -1e-9 * scale)
        if neg.size:
            fixed[neg[0]] = False
            continue
        full = np.zeros(m_in)
        full[act_idx] = ineq_mults
        return QPResult(x, mults[:m_eq], full, nu, pivots)
