"""Block triangularization of the shifted quadratic-form operators.

Both operators are block matrices over issue times whose (k, l) blocks act
node-by-node through conditional expectations.  Under the model hypotheses,
eliminating the last issue time from the shifted system leaves a system of
the same shape one stage shorter, with the diagonal blocks corrected by a
scalar-weighted conditional moment matrix and all off-diagonal blocks
rescaled by one common factor.  Running this to the bottom yields a lower
triangular system whose diagonal blocks invert stage by stage, so a full
solve costs one short recursion on small moment matrices plus, per stage,
one leaf scalar and one sweep of the tree: all the off-diagonal block
images a stage needs form one leaf block, each read off at its own depth.

One top-down recursion serves the solves and the spectra.  Its level
matrices parameterize the candidate spectra: a number belongs to the
operator's spectrum exactly when one of the level matrices, with the
recursion's scalars evaluated at that number, has it as an eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

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
        return _centered(self.pivots[n][k], self.means[k], self.mean_weight[n])

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


def _singular(cond: float) -> bool:
    return not np.isfinite(cond) or cond > COND_MAX


def _checked_cond(matrix: np.ndarray, level: int) -> float:
    cond = float(np.linalg.cond(matrix))
    if _singular(cond):
        raise SingularPivot(level, cond)
    return cond


def _centered(pivot: np.ndarray, mean: np.ndarray, mean_weight: float) -> np.ndarray:
    return pivot - (1.0 - mean_weight) * np.outer(mean, mean)


class _Level(NamedTuple):
    """One level of the elimination: ``pivots[k]`` is the stage-k raw
    diagonal (shift included) for k <= n, ``cond`` the condition number of
    ``pivots[n]``, ``mean`` the stage-n mean and ``mean_quad`` its
    pivot-inverse quadratic form (NaN when the pivot is singular)."""

    n: int
    pivots: list[np.ndarray]
    cond: float
    mean_quad: float
    block_scale: float
    mean_weight: float
    mean: np.ndarray

    def centered(self) -> np.ndarray:
        """The level's centered-form diagonal."""
        return _centered(self.pivots[self.n], self.mean, self.mean_weight)


def _recursion(moments: MomentTables, shift: float) -> Iterator[_Level]:
    """Run the stage elimination top-down at ``shift``, one level at a time.

    The scalars are driven by the raw-form pivots alone.  A level whose
    pivot is numerically singular is the last one yielded: the shift sits
    (numerically) in its spectrum, and deeper levels are not defined there.
    """
    eye = np.eye(moments.second_moment[0].shape[0])
    pivots = [a - shift * eye for a in moments.second_moment]
    scale, weight = 1.0, 0.0
    for n in range(moments.last_issue, -1, -1):
        cond = float(np.linalg.cond(pivots[n]))
        m = moments.mean[n]
        if _singular(cond):
            yield _Level(n, pivots, cond, np.nan, scale, weight, m)
            return
        quad = float(m @ np.linalg.solve(pivots[n], m))
        yield _Level(n, pivots, cond, quad, scale, weight, m)
        w = quad * scale * scale
        scale, weight = scale * (1.0 - quad * scale), weight + w
        pivots = [pivots[k] - w * moments.cond_second_moment[n][k] for k in range(n)]


def elimination_coefficients(
    moments: MomentTables, shift: float
) -> EliminationCoefficients:
    """Run the stage elimination recursion top-down at the given shift.

    The recursion is identical for both forms: the centered form reuses the
    raw-form scalars with its own rank-one-corrected diagonals.  A
    numerically singular pivot raises :class:`SingularPivot` at its level.
    """
    kmax = moments.last_issue
    mean_quad = np.zeros(kmax + 1)
    block_scale = np.ones(kmax + 1)
    mean_weight = np.zeros(kmax + 1)
    pivots: list[list[np.ndarray]] = [None] * (kmax + 1)
    for level in _recursion(moments, shift):
        n = level.n
        if _singular(level.cond):
            raise SingularPivot(n, level.cond)
        mean_quad[n] = level.mean_quad
        block_scale[n] = level.block_scale
        mean_weight[n] = level.mean_weight
        pivots[n] = level.pivots + [None] * (kmax - n)
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
        for k, (update,) in enumerate(images(tree, book, range(n), scalar[:, None])):
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
        if scalars:
            (stacked,) = images(tree, book, range(k, k + 1), np.column_stack(scalars))
            for image in stacked:
                acc -= f * image
        solved = diag_block_inverse(kind, coeffs, tree, k, k, AdaptedVariable(k, acc))
        plan.stage(k).values[...] = solved.values
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
    callers decide whether to accept it or raise.
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

    ``levels_raw`` / ``levels_centered`` hold the eigenvalues of the level
    matrices (recursion scalars evaluated at the shift), one array per
    level from the last issue stage down, ending at the first level whose
    pivot is singular at the shift; the flat ``raw`` / ``centered`` arrays
    are their sorted unions, the centered one including the raw one.
    """

    shift: float
    levels_raw: list[np.ndarray]
    levels_centered: list[np.ndarray]
    raw: np.ndarray
    centered: np.ndarray


def _sym_eigs(matrix: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (matrix + matrix.T))


def spectral_sets(moments: MomentTables, shift: float = 0.0) -> SpectralSets:
    """Candidate spectra of both forms with recursion scalars at ``shift``."""
    levels_raw, levels_centered = [], []
    for level in _recursion(moments, shift):
        levels_raw.append(_sym_eigs(level.pivots[level.n]) + shift)
        levels_centered.append(_sym_eigs(level.centered()) + shift)
    raw = np.sort(np.concatenate(levels_raw))
    centered = np.sort(np.concatenate([raw, *levels_centered]))
    return SpectralSets(shift, levels_raw, levels_centered, raw, centered)


def spectrum_distance(moments: MomentTables, candidate: float, kind: Kind) -> float:
    """Distance from ``candidate`` to the candidate spectrum, recursion
    scalars evaluated at the candidate itself.

    Zero (up to tolerance) exactly when some level matrix, evaluated at the
    candidate, has the candidate as an eigenvalue; the level pivots are
    shifted by the candidate, so that is their smallest eigenvalue in
    magnitude.  For the centered form both level families count.
    """
    best = np.inf
    for level in _recursion(moments, candidate):
        mats = [level.pivots[level.n]]
        if kind is Kind.VARIANCE:
            mats.append(level.centered())
        for mat in mats:
            best = min(best, float(np.abs(_sym_eigs(mat)).min()))
    return best
