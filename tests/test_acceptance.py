"""End-to-end acceptance gate.

Each test sweeps one package-level guarantee at desk scale, prints a
single pass/fail line with the worst observed number, and asserts it.
The random sweeps use fixed seeds so reruns see the same instances.
"""

import dataclasses
import time

import numpy as np
import pytest

from reinsqp.contracts import check_hypotheses, compute_moments
from reinsqp.elimination import (
    diag_block_inverse,
    elimination_coefficients,
    solve,
    spectrum_distance,
)
from reinsqp.multipliers import (
    KKT_TOL,
    MultiplierSet,
    iterate,
    kkt_verify,
)
from reinsqp.operators import Kind, apply, dense_matrix, representers
from reinsqp.oracle import (
    Form,
    assemble,
    dense_qp,
    dense_solve_linear,
    from_coords,
    to_coords,
)
from reinsqp.qp import nonneg_qp
from reinsqp.tree import inner_product, norm

from conftest import random_instance
from test_operators import basis_plan, random_plan
from test_qp import enumerate_orthant_solution, random_spd


def _verdict(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _squared_settlement_ceiling(tree, book) -> float:
    """Largest mean squared settlement magnitude, ``max_k E|u_k|^2``.

    Under H1 this bounds the centered form on any plan carried by a single
    issue stage: ``Var(u_k . eta_k) <= E[eta_k' S_k eta_k] <= tr S_k |eta|^2``,
    with ``S_k = E[u_k u_k']`` and ``tr S_k = E|u_k|^2``.  On plans spread
    over several stages the cross-stage covariances can add coherently and
    exceed it.
    """
    p = tree.path_prob[tree.horizon]
    return max(
        float(p @ (book.final_utility(k).values ** 2).sum(axis=1))
        for k in range(tree.last_issue + 1)
    )


def _on_one_stage(plan, k: int):
    """``plan`` with every issue stage other than ``k`` set to zero."""
    for j, stage in enumerate(plan.stages):
        if j != k:
            stage.values[:] = 0.0
    return plan


def test_structured_solves_match_the_dense_oracle():
    rng = np.random.default_rng(111)
    worst = 0.0
    slowest = 0.0
    for i in range(50):
        inst = random_instance(rng)
        kind = Kind.SECOND_MOMENT if i % 2 == 0 else Kind.VARIANCE
        moments = compute_moments(inst.tree, inst.book)
        rhs = random_plan(inst.tree, rng)
        start = time.perf_counter()
        res = solve(kind, inst.tree, inst.book, moments, 0.0, rhs)
        slowest = max(slowest, time.perf_counter() - start)
        problem = assemble(inst.tree, inst.book, inst.config, kind)
        dense_plan, _ = dense_solve_linear(problem, rhs)
        rel = norm(inst.tree, res.plan - dense_plan) / norm(inst.tree, dense_plan)
        worst = max(worst, rel)
    _verdict(
        worst <= 1e-8 and slowest < 1.0,
        "structured vs dense solves",
        f"50 instances, worst relative error {worst:.2e}, "
        f"slowest {slowest * 1e3:.0f} ms",
    )


def test_dense_eigenvalues_lie_in_the_stagewise_sets():
    rng = np.random.default_rng(222)
    worst = 0.0
    min_centered = np.inf
    all_valid = True
    for _ in range(20):
        inst = random_instance(rng)
        all_valid &= check_hypotheses(inst.tree, inst.book).all_ok
        moments = compute_moments(inst.tree, inst.book)
        for kind in (Kind.SECOND_MOMENT, Kind.VARIANCE):
            eigs = np.linalg.eigvalsh(dense_matrix(kind, inst.tree, inst.book))
            worst = max(
                worst,
                max(spectrum_distance(moments, float(ev), kind) for ev in eigs),
            )
            if kind is Kind.VARIANCE:
                min_centered = min(min_centered, float(eigs.min()))
    _verdict(
        all_valid and worst <= 1e-6 and min_centered > 0,
        "spectrum containment and positivity",
        f"20 instances, worst set distance {worst:.2e}, "
        f"smallest centered eigenvalue {min_centered:.2e}",
    )


def test_centered_form_stays_under_the_settlement_ceiling():
    # per-stage sweep: each sampled plan is confined to one issue stage,
    # cycling through the stages, where the plain ceiling is a theorem
    # under H1 (see _squared_settlement_ceiling)
    rng = np.random.default_rng(303)
    h1_everywhere = True
    violations = 0
    worst_excess = 0.0
    worst_ratio = 0.0
    for _ in range(20):
        inst = random_instance(rng)
        h1_everywhere &= check_hypotheses(inst.tree, inst.book).h1_ok
        stages = inst.tree.last_issue + 1
        ceiling = _squared_settlement_ceiling(inst.tree, inst.book)
        for s in range(100):
            eta = _on_one_stage(random_plan(inst.tree, rng), s % stages)
            value = inner_product(
                inst.tree, eta, apply(Kind.VARIANCE, inst.tree, inst.book, eta)
            )
            bound = ceiling * norm(inst.tree, eta) ** 2
            worst_ratio = max(worst_ratio, value / bound)
            excess = (value - bound) / bound
            if excess > 1e-10:
                violations += 1
                worst_excess = max(worst_excess, excess)
    _verdict(
        h1_everywhere and violations == 0,
        "centered form under the plain settlement ceiling, per stage",
        f"2000 single-stage samples, H1 {'holds' if h1_everywhere else 'fails'}, "
        f"{violations} violations, worst excess {worst_excess:.2e}, "
        f"worst ratio {worst_ratio:.8f}",
    )


def test_centered_form_stays_under_the_stage_counted_ceiling():
    # companion sweep on full plans: under H1 each stage's term u_k . eta_k
    # has variance at most the plain ceiling times |eta_k|^2 (the sweep
    # above), and Cauchy-Schwarz over the K stages,
    # Var(sum_k X_k) <= K sum_k Var(X_k), gives the factor K
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(20):
        inst = random_instance(rng)
        stages = inst.tree.last_issue + 1
        ceiling = stages * _squared_settlement_ceiling(inst.tree, inst.book)
        for _ in range(100):
            eta = random_plan(inst.tree, rng)
            value = inner_product(
                inst.tree, eta, apply(Kind.VARIANCE, inst.tree, inst.book, eta)
            )
            if value > ceiling * norm(inst.tree, eta) ** 2 * (1 + 1e-10):
                violations += 1
    _verdict(
        violations == 0,
        "centered form under the stage-counted ceiling",
        f"2000 samples, {violations} violations",
    )


def test_raw_form_dominates_the_centered_form():
    rng = np.random.default_rng(404)
    worst = np.inf
    for _ in range(10):
        inst = random_instance(rng)
        gap = dense_matrix(Kind.SECOND_MOMENT, inst.tree, inst.book) - dense_matrix(
            Kind.VARIANCE, inst.tree, inst.book
        )
        for _ in range(100):
            x = rng.standard_normal(gap.shape[0])
            worst = min(worst, float(x @ gap @ x / (x @ x)))
    _verdict(
        worst >= -1e-10,
        "raw form dominates centered form",
        f"1000 Rayleigh quotients, smallest {worst:.2e}",
    )


@pytest.mark.parametrize(
    "form, seed",
    [(Form.MIN_VARIANCE, 505), (Form.FIXED_MEAN, 101)],
    ids=["min-variance", "fixed-mean"],
)
def test_oracle_optima_certify_and_reassemble(form, seed):
    rng = np.random.default_rng(seed)
    worst_residual = 0.0
    worst_rebuild = 0.0
    for _ in range(20):
        inst = random_instance(rng)
        sol = dense_qp(inst.tree, inst.book, inst.config, form)
        mults = MultiplierSet(
            sol.roe_multipliers, sol.mean_multiplier, sol.bound_multipliers
        )
        report = kkt_verify(
            inst.tree, inst.book, inst.config, sol.plan, mults, form=form
        )
        worst_residual = max(worst_residual, report.total)
        reps = representers(inst.tree, inst.book, inst.config)
        rhs = reps.combine(mults.roe, mults.mean) + mults.bounds
        moments = compute_moments(inst.tree, inst.book)
        rebuilt = solve(form.kind, inst.tree, inst.book, moments, 0.0, rhs).plan
        worst_rebuild = max(
            worst_rebuild,
            norm(inst.tree, rebuilt - sol.plan) / max(norm(inst.tree, sol.plan), 1e-12),
        )
    _verdict(
        worst_residual <= 1e-8 and worst_rebuild <= 1e-6,
        f"{form.value} optimality certificates round trip",
        f"20 instances, worst residual {worst_residual:.2e}, "
        f"worst reassembly deviation {worst_rebuild:.2e}",
    )


def test_mean_maximal_form_recovers_the_variance_minimizer():
    rng = np.random.default_rng(606)
    worst_plan = 0.0
    worst_var = 0.0
    for _ in range(10):
        inst = random_instance(rng)
        mn = dense_qp(inst.tree, inst.book, inst.config, Form.MIN_VARIANCE)
        capped = dataclasses.replace(inst.config, variance_cap=mn.variance_value)
        mx = dense_qp(inst.tree, inst.book, capped, Form.MAX_MEAN)
        worst_plan = max(
            worst_plan,
            norm(inst.tree, mx.plan - mn.plan) / max(norm(inst.tree, mn.plan), 1e-12),
        )
        worst_var = max(
            worst_var,
            abs(mx.variance_value - mn.variance_value) / mn.variance_value,
        )
    _verdict(
        worst_plan <= 1e-6 and worst_var <= 1e-8,
        "mean-maximal round trip",
        f"10 instances, worst plan deviation {worst_plan:.2e}, "
        f"worst variance deviation {worst_var:.2e}",
    )


def test_sign_constrained_projections_at_scale():
    rng = np.random.default_rng(707)
    exact_complementarity = True
    worst_reconstruction = 0.0
    active_sets_match = True
    enumerated = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = random_spd(rng, n)
        x = 2.0 * rng.standard_normal(n)
        res = nonneg_qp(m, x)
        exact_complementarity &= (
            float(np.minimum(res.primal, res.dual).max(initial=0.0)) == 0.0
        )
        worst_reconstruction = max(
            worst_reconstruction, float(np.abs(m @ res.primal - res.dual - x).max())
        )
        if n <= 4:
            expected, _ = enumerate_orthant_solution(m, x)
            active_sets_match &= bool(
                np.array_equal(res.primal > 0, expected > 0)
            )
            enumerated += 1
    _verdict(
        exact_complementarity and worst_reconstruction <= 1e-10 and active_sets_match,
        "sign-constrained projection suite",
        f"1000 draws, complementarity exact {exact_complementarity}, "
        f"worst reconstruction {worst_reconstruction:.2e}, "
        f"{enumerated} active sets matched enumeration",
    )


def test_coin_recursion_goldens_survive_dense_recomputation(coin2):
    tree, book = coin2.tree, coin2.book
    moments = compute_moments(tree, book)
    levels = elimination_coefficients(moments, shift=0.0).levels

    # recompute the stage-zero pivot as a dense Schur complement and the
    # raw basis image as a dense matrix column before trusting the frozen
    # numbers
    raw = dense_matrix(Kind.SECOND_MOMENT, tree, book)
    schur = raw[:1, :1] - raw[:1, 1:] @ np.linalg.inv(raw[1:, 1:]) @ raw[1:, :1]
    basis = basis_plan(tree, 0, 0, 0)
    image = apply(Kind.SECOND_MOMENT, tree, book, basis)
    dense_image = from_coords(tree, raw @ to_coords(tree, basis))
    recomputed = np.allclose(schur, levels[0].pivots[0], atol=1e-12) and all(
        np.allclose(image.stage(k).values, dense_image.stage(k).values, atol=1e-12)
        for k in range(2)
    )

    golden = (
        levels[1].mean_quad == pytest.approx(0.5, abs=1e-12)
        and levels[0].block_scale == pytest.approx(0.5, abs=1e-12)
        and levels[0].mean_weight == pytest.approx(0.5, abs=1e-12)
        and np.allclose(levels[0].pivots[0], [[2.5]], atol=1e-12)
        and np.allclose(image.stage(0).values, [[5.0]], atol=1e-12)
        and np.allclose(image.stage(1).values, [[3.0], [1.0]], atol=1e-12)
    )
    _verdict(
        recomputed and golden,
        "coin recursion goldens",
        f"dense recomputation agrees {recomputed}, frozen values hold {golden}",
    )


def test_block_inverses_round_trip_off_the_spectra():
    rng = np.random.default_rng(909)
    instances = [random_instance(rng) for _ in range(3)]
    tables = [
        (inst.tree, compute_moments(inst.tree, inst.book)) for inst in instances
    ]
    worst = 0.0
    for j in range(100):
        tree, moments = tables[j % 3]
        kind = Kind.SECOND_MOMENT if j % 2 == 0 else Kind.VARIANCE
        while True:
            shift = float(rng.uniform(-1.0, 6.0))
            if min(
                spectrum_distance(moments, shift, Kind.SECOND_MOMENT),
                spectrum_distance(moments, shift, Kind.VARIANCE),
            ) > 1e-3:
                break
        for level in elimination_coefficients(moments, shift=shift).levels:
            n, da = level.n, level.pivots[level.n]
            x = tree.adapted(n, rng.standard_normal((tree.n_nodes(n), tree.n_contracts)))
            if kind is Kind.SECOND_MOMENT:
                forward = tree.adapted(n, (da @ x.values.T).T)
            else:
                xbar = tree.path_prob[n] @ x.values
                centered = x.values - xbar[None, :]
                forward = tree.adapted(
                    n, (da @ centered.T).T + (level.centered @ xbar)[None, :]
                )
            back = diag_block_inverse(kind, level, tree, forward)
            worst = max(worst, float(np.abs(back.values - x.values).max()))
    _verdict(
        worst <= 1e-10,
        "diagonal block inverses",
        f"100 shifts off the spectra, worst round-trip error {worst:.2e}",
    )


def test_iteration_reports_stay_honest():
    rng = np.random.default_rng(101)
    all_monotone_or_flagged = True
    all_honest = True
    n_converged = 0
    n_flagged = 0
    for _ in range(20):
        inst = random_instance(rng)
        res = iterate(inst.tree, inst.book, inst.config, max_iter=30)
        h = res.history
        monotone = all(b <= a * (1 + 1e-12) for a, b in zip(h, h[1:]))
        all_monotone_or_flagged &= monotone or res.non_monotone
        all_honest &= res.converged == (res.report.total <= KKT_TOL)
        n_converged += res.converged
        n_flagged += res.non_monotone
    _verdict(
        all_monotone_or_flagged and all_honest,
        "iteration honesty",
        f"20 instances, {n_converged} converged, {n_flagged} flagged "
        f"non-monotone, no unearned convergence claims",
    )
