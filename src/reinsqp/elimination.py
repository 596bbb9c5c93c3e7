"""Block triangularization of the shifted quadratic-form operators.

Both operators are block matrices over issue times whose (k, l) blocks act
node-by-node through conditional expectations.  Under the model hypotheses,
eliminating the last issue time from the shifted system leaves a system of
the same shape one stage shorter, with the diagonal blocks corrected by a
scalar-weighted conditional moment matrix and all off-diagonal blocks
rescaled by one common factor.  Running this to the bottom yields a lower
triangular system whose diagonal blocks invert stage by stage, so a full
solve costs one short recursion on small moment matrices plus, per stage,
one leaf scalar and one sweep of the tree that conditions all of that
stage's off-diagonal block images together.

The same recursion parameterizes the candidate spectra: a number belongs to
the operator's spectrum exactly when one of the level matrices, with the
recursion's scalars evaluated at that number, has it as an eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contracts import ContractBook, MomentTables
from .errors import InputError, SingularPivot
from .operators import Kind, apply, images, leaf_scalar
from .tree import AdaptedVariable, PortfolioProcess, ScenarioTree, norm

#: condition number ceiling for pivot matrices
COND_MAX = 1e12
#: relative residual ceiling for a structured solve to count as verified
RESIDUAL_TOL = 1e-9


@dataclass
class EliminationCoefficients:
    """State of the stage elimination recursion at a given spectral shift.

    ``pivots[n][k]`` is the stage-k diagonal matrix of the raw form after
    all stages above n have been eliminated (shift included);
    ``mean_quad[n]`` the pivot-inverse quadratic form of the stage-n mean,
    ``block_scale[n]`` the common factor carried by off-diagonal blocks at
    level n, and ``mean_weight[n]`` the total mean-direction weight removed
    so far.  The centered form's diagonals differ by a rank-one mean term
    and are derived on demand.
    """

    shift: float
    mean_quad: np.ndarray
    block_scale: np.ndarray
    mean_weight: np.ndarray
    pivots: list[list[np.ndarray]]
    means: list[np.ndarray]
    #: (level, stage, centered) -> diagonal matrix that passed its
    #: condition check
    _checked: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def pivot_cov(self, n: int, k: int) -> np.ndarray:
        """Centered-form diagonal: the raw pivot minus the remaining
        rank-one mean contribution."""
        m = self.means[k]
        return self.pivots[n][k] - (1.0 - self.mean_weight[n]) * np.outer(m, m)

    def checked_pivot(self, n: int, k: int, centered: bool = False) -> np.ndarray:
        """The level-n stage-k diagonal (raw, or centered), condition-checked
        on first use; a singular one raises at every use."""
        key = (n, k, centered)
        matrix = self._checked.get(key)
        if matrix is None:
            matrix = self.pivot_cov(n, k) if centered else self.pivots[n][k]
            _checked_cond(matrix, n)
            self._checked[key] = matrix
        return matrix


def _checked_cond(matrix: np.ndarray, level: int) -> float:
    cond = float(np.linalg.cond(matrix))
    if not np.isfinite(cond) or cond > COND_MAX:
        raise SingularPivot(level, cond)
    return cond


def elimination_coefficients(
    moments: MomentTables, shift: float
) -> EliminationCoefficients:
    """Run the stage elimination recursion top-down at the given shift.

    The recursion is identical for both forms: the scalars are driven by
    the raw-form pivots alone, while the centered form reuses them with its
    own rank-one-corrected diagonals.
    """
    kmax = moments.last_issue
    n_c = moments.second_moment[0].shape[0]
    eye = np.eye(n_c)
    mean_quad = np.zeros(kmax + 1)
    block_scale = np.ones(kmax + 1)
    mean_weight = np.zeros(kmax + 1)
    pivots: list[list[np.ndarray]] = [[None] * (kmax + 1) for _ in range(kmax + 1)]
    for k in range(kmax + 1):
        pivots[kmax][k] = moments.second_moment[k] - shift * eye
    for n in range(kmax, 0, -1):
        dnn = pivots[n][n]
        _checked_cond(dnn, n)
        m = moments.mean[n]
        mean_quad[n] = float(m @ np.linalg.solve(dnn, m))
        f = block_scale[n]
        w = mean_quad[n] * f * f
        block_scale[n - 1] = f * (1.0 - mean_quad[n] * f)
        mean_weight[n - 1] = mean_weight[n] + w
        for k in range(n):
            pivots[n - 1][k] = pivots[n][k] - w * moments.cond_second_moment[n][k]
    _checked_cond(pivots[0][0], 0)
    m = moments.mean[0]
    mean_quad[0] = float(m @ np.linalg.solve(pivots[0][0], m))
    coeffs = EliminationCoefficients(
        shift, mean_quad, block_scale, mean_weight, pivots, list(moments.mean)
    )
    # every raw level pivot passed its check above
    coeffs._checked.update({(n, n, False): pivots[n][n] for n in range(kmax + 1)})
    return coeffs


def diag_block_inverse(
    kind: Kind,
    coeffs: EliminationCoefficients,
    tree: ScenarioTree,
    n: int,
    k: int,
    x: AdaptedVariable,
) -> AdaptedVariable:
    """Invert the level-n stage-k diagonal block on an adapted input.

    For the raw form this is one small solve applied at every node.  The
    centered form splits the input into its expectation and the centered
    remainder, inverting each with its own matrix.
    """
    if x.depth != k:
        raise InputError(f"stage-{k} input has depth {x.depth}")
    da = coeffs.checked_pivot(n, k)
    if kind is Kind.SECOND_MOMENT:
        return AdaptedVariable(k, np.linalg.solve(da, x.values.T).T)
    db = coeffs.checked_pivot(n, k, centered=True)
    xbar = tree.path_prob[k] @ x.values
    centered = x.values - xbar[None, :]
    out = np.linalg.solve(da, centered.T).T + np.linalg.solve(db, xbar)[None, :]
    return AdaptedVariable(k, out)


def forward_eliminate(
    kind: Kind,
    coeffs: EliminationCoefficients,
    tree: ScenarioTree,
    book: ContractBook,
    rhs: PortfolioProcess,
) -> PortfolioProcess:
    """Fold the right-hand side down the elimination: each level's pivot
    solve propagates, scaled by the level's common block factor, into all
    earlier stages."""
    xi = rhs.copy()
    for n in range(tree.last_issue, 0, -1):
        y = diag_block_inverse(kind, coeffs, tree, n, n, xi.stage(n))
        f = coeffs.block_scale[n]
        scalar = leaf_scalar(kind, tree, book, n, y)
        updates = images(tree, book, [(k, scalar) for k in range(n)])
        for k, update in enumerate(updates):
            xi.stage(k).values[...] -= f * update
    return xi


def back_substitute(
    kind: Kind,
    coeffs: EliminationCoefficients,
    tree: ScenarioTree,
    book: ContractBook,
    xi: PortfolioProcess,
) -> PortfolioProcess:
    """Solve the triangular system bottom-up.  Row k carries the original
    off-diagonal blocks scaled by its own level factor, and its final
    diagonal is the level-k pivot."""
    plan = PortfolioProcess.zeros(tree)
    scalars = []
    for k in range(tree.last_issue + 1):
        acc = xi.stage(k).values.copy()
        f = coeffs.block_scale[k]
        for image in images(tree, book, [(k, s) for s in scalars]):
            acc -= f * image
        plan.stages[k] = diag_block_inverse(
            kind, coeffs, tree, k, k, AdaptedVariable(k, acc)
        )
        if k < tree.last_issue:
            scalars.append(leaf_scalar(kind, tree, book, k, plan.stage(k)))
    return plan


@dataclass
class StructuredSolve:
    """A structured solve with its verification residual."""

    plan: PortfolioProcess
    residual: float
    shift: float
    kind: Kind

    @property
    def residual_ok(self) -> bool:
        return self.residual <= RESIDUAL_TOL


def solve(
    kind: Kind,
    tree: ScenarioTree,
    book: ContractBook,
    moments: MomentTables,
    shift: float,
    rhs: PortfolioProcess,
    coeffs: EliminationCoefficients | None = None,
) -> StructuredSolve:
    """Solve (form operator - shift) plan = rhs by triangularization.

    One round of iterative refinement is applied when the first pass leaves
    a measurable residual.  The result always carries its final relative
    residual, measured by applying the operator to the computed plan;
    callers decide whether to accept, retry densely, or raise.
    """
    if coeffs is None:
        coeffs = elimination_coefficients(moments, shift)
    elif coeffs.shift != shift:
        raise InputError(f"coefficients were built at shift {coeffs.shift}, not {shift}")

    def once(b: PortfolioProcess) -> PortfolioProcess:
        xi = forward_eliminate(kind, coeffs, tree, book, b)
        return back_substitute(kind, coeffs, tree, book, xi)

    def residual_of(plan: PortfolioProcess) -> PortfolioProcess:
        image = apply(kind, tree, book, plan)
        if shift != 0.0:
            image = image - plan * shift
        return rhs - image

    denom = norm(tree, rhs)
    denom = denom if denom > 0 else 1.0
    plan = once(rhs)
    leftover = residual_of(plan)
    resid = norm(tree, leftover) / denom
    if resid > 1e-15:
        refined = plan + once(leftover)
        refined_leftover = residual_of(refined)
        refined_resid = norm(tree, refined_leftover) / denom
        if refined_resid < resid:
            plan, resid = refined, refined_resid
    return StructuredSolve(plan, resid, shift, kind)


# -- candidate spectra ------------------------------------------------------


@dataclass
class SpectralSets:
    """Candidate spectra from the elimination recursion at a fixed shift.

    ``levels_raw[n]`` / ``levels_centered[n]`` hold the eigenvalues of the
    level-n matrices (recursion scalars evaluated at the shift); the flat
    ``raw`` / ``centered`` arrays are their sorted unions, the centered one
    including the raw one.
    """

    shift: float
    levels_raw: list[np.ndarray]
    levels_centered: list[np.ndarray]
    raw: np.ndarray
    centered: np.ndarray


def _level_matrices(moments: MomentTables, shift: float):
    """Yield (level, raw diagonal, centered diagonal) from the top down,
    stopping early if a pivot becomes numerically singular."""
    kmax = moments.last_issue
    weights: list[tuple[int, float]] = []
    f = 1.0
    for n in range(kmax, -1, -1):
        da = moments.second_moment[n].copy()
        db = moments.covariance[n].copy()
        for r, w in weights:
            da = da - w * moments.cond_second_moment[r][n]
            db = db - w * moments.cond_covariance[r][n]
        yield n, da, db
        if n == 0:
            break
        pivot = da - shift * np.eye(da.shape[0])
        cond = float(np.linalg.cond(pivot))
        if not np.isfinite(cond) or cond > COND_MAX:
            # the shift sits (numerically) in this level's spectrum; deeper
            # levels are not defined at it
            break
        m = moments.mean[n]
        d = float(m @ np.linalg.solve(pivot, m))
        weights.append((n, d * f * f))
        f = f * (1.0 - d * f)


def spectral_sets(moments: MomentTables, shift: float = 0.0) -> SpectralSets:
    """Candidate spectra of both forms with recursion scalars at ``shift``."""
    levels_raw, levels_centered = [], []
    for _, da, db in _level_matrices(moments, shift):
        levels_raw.append(np.linalg.eigvalsh(0.5 * (da + da.T)))
        levels_centered.append(np.linalg.eigvalsh(0.5 * (db + db.T)))
    raw = np.sort(np.concatenate(levels_raw))
    centered = np.sort(np.concatenate([raw, *levels_centered]))
    return SpectralSets(shift, levels_raw, levels_centered, raw, centered)


def spectrum_distance(moments: MomentTables, candidate: float, kind: Kind) -> float:
    """Distance from ``candidate`` to the candidate spectrum, recursion
    scalars evaluated at the candidate itself.

    Zero (up to tolerance) exactly when some level matrix, evaluated at the
    candidate, has the candidate as an eigenvalue; for the centered form
    both level families count.
    """
    best = np.inf
    for _, da, db in _level_matrices(moments, candidate):
        eigs = np.linalg.eigvalsh(0.5 * (da + da.T))
        best = min(best, float(np.abs(eigs - candidate).min()))
        if kind is Kind.VARIANCE:
            eigs = np.linalg.eigvalsh(0.5 * (db + db.T))
            best = min(best, float(np.abs(eigs - candidate).min()))
    return best
