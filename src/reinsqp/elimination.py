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

One top-down recursion serves the solves and the spectra, and it records
each level once, as a :class:`Level`: the raw pivots left after the levels
above, the centered form's level pivot, their condition numbers and the
recursion's scalars.  The coefficients of a solve are these levels.  The
level pivots also parameterize the candidate spectra: a number belongs to
the operator's spectrum exactly when one of the level pivots, with the
recursion's scalars evaluated at that number, has it as an eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class Level(NamedTuple):
    """Level n of the elimination, after every stage above n is eliminated.

    ``pivots[k]`` is the raw form's stage-k diagonal (shift included) for
    k <= n, and ``centered`` the centered form's level pivot: ``pivots[n]``
    less the mean direction's remaining weight, ``(1 - mean_weight) m m^T``
    with m the stage-n mean.  ``cond`` and ``centered_cond`` are their
    condition numbers; the spectra read only ``cond``, so only the levels
    of :func:`elimination_coefficients` carry ``centered_cond`` (NaN
    elsewhere).  ``mean_quad`` is the pivot-inverse quadratic form of m
    (NaN when the raw pivot is singular), ``block_scale`` the common factor
    carried by the level's off-diagonal blocks, and ``mean_weight`` the
    mean-direction weight removed by the levels above.
    """

    n: int
    pivots: list[np.ndarray]
    centered: np.ndarray
    cond: float
    centered_cond: float
    mean_quad: float
    block_scale: float
    mean_weight: float


class EliminationCoefficients(NamedTuple):
    """The elimination at a spectral shift: ``levels[n]`` is level n."""

    shift: float
    levels: tuple[Level, ...]


def _singular(cond: float) -> bool:
    return not np.isfinite(cond) or cond > COND_MAX


def _recursion(moments: MomentTables, shift: float) -> Iterator[Level]:
    """Run the stage elimination top-down at ``shift``, one level at a time.

    The scalars are driven by the raw-form pivots alone.  A level whose
    pivot is numerically singular is the last one yielded: the shift sits
    (numerically) in its spectrum, and deeper levels are not defined there.
    Only that raw condition number is computed here; ``centered_cond`` is
    NaN until :func:`elimination_coefficients` fills it in.
    """
    eye = np.eye(moments.second_moment[0].shape[0])
    pivots = [a - shift * eye for a in moments.second_moment]
    scale, weight = 1.0, 0.0
    for n in range(moments.last_issue, -1, -1):
        cond = float(np.linalg.cond(pivots[n]))
        m = moments.mean[n]
        centered = pivots[n] - (1.0 - weight) * np.outer(m, m)
        if _singular(cond):
            yield Level(n, pivots, centered, cond, np.nan, np.nan, scale, weight)
            return
        quad = float(m @ np.linalg.solve(pivots[n], m))
        yield Level(n, pivots, centered, cond, np.nan, quad, scale, weight)
        w = quad * scale * scale
        scale, weight = scale * (1.0 - quad * scale), weight + w
        pivots = [pivots[k] - w * moments.cond_second_moment[n][k] for k in range(n)]


def elimination_coefficients(
    moments: MomentTables, shift: float
) -> EliminationCoefficients:
    """The recursion's levels at the given shift, in level order.

    Both forms share them: the centered form reuses the raw-form scalars
    with its own level pivots, whose condition numbers are computed here,
    once per level.  A numerically singular raw pivot raises
    :class:`SingularPivot` at its level.
    """
    levels = []
    for level in _recursion(moments, shift):
        if _singular(level.cond):
            raise SingularPivot(level.n, level.cond)
        levels.append(level._replace(centered_cond=float(np.linalg.cond(level.centered))))
    return EliminationCoefficients(shift, tuple(levels[::-1]))


def diag_block_inverse(
    kind: Kind, level: Level, tree: ScenarioTree, x: AdaptedVariable
) -> AdaptedVariable:
    """Invert the level's own diagonal block on a stage-n input.

    For the raw form this is one small solve applied at every node.  The
    centered form splits the input into its expectation and the centered
    remainder, inverting each with its own matrix; a singular centered
    pivot raises at every use.
    """
    n = level.n
    if x.depth != n:
        raise InputError(f"stage-{n} input has depth {x.depth}")
    da = level.pivots[n]
    if kind is Kind.SECOND_MOMENT:
        return AdaptedVariable(n, np.linalg.solve(da, x.values.T).T)
    if _singular(level.centered_cond):
        raise SingularPivot(n, level.centered_cond)
    xbar = tree.path_prob[n] @ x.values
    centered = x.values - xbar[None, :]
    out = np.linalg.solve(da, centered.T).T + np.linalg.solve(level.centered, xbar)[None, :]
    return AdaptedVariable(n, out)


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
        level = coeffs.levels[n]
        y = diag_block_inverse(kind, level, tree, xi.stage(n))
        scalar = leaf_scalar(kind, tree, book, n, y)
        for k, (update,) in enumerate(images(tree, book, range(n), scalar[:, None])):
            xi.stage(k).values[...] -= level.block_scale * update
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
        level = coeffs.levels[k]
        acc = xi.stage(k).values.copy()
        if scalars:
            (stacked,) = images(tree, book, range(k, k + 1), np.column_stack(scalars))
            for image in stacked:
                acc -= level.block_scale * image
        solved = diag_block_inverse(kind, level, tree, AdaptedVariable(k, acc))
        plan.stage(k).values[...] = solved.values
        if k < tree.last_issue:
            scalars.append(leaf_scalar(kind, tree, book, k, plan.stage(k)))
    return plan


@dataclass
class StructuredSolve:
    """A structured solve with its verification residual."""

    plan: PortfolioProcess
    residual: float

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
    return StructuredSolve(plan, resid)


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
        levels_centered.append(_sym_eigs(level.centered) + shift)
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
            mats.append(level.centered)
        for mat in mats:
            best = min(best, float(np.abs(_sym_eigs(mat)).min()))
    return best
