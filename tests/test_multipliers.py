"""The successive-approximation ladder: deterministic seed, Gram step,
nodewise projections, and the honest fixed-point iteration."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from reinsqp import elimination, multipliers, oracle
from reinsqp.contracts import ContractBook, compute_moments
from reinsqp.elimination import RESIDUAL_TOL
from reinsqp.errors import InfeasibleDeterministic, InputError, NumericalFailure
from reinsqp.multipliers import (
    GRAM_COND_MAX,
    KktReport,
    MultiplierSet,
    deterministic_solution,
    iterate,
    iterate_max_mean,
    kkt_verify,
    l_gram,
)
from reinsqp.operators import Kind, apply, images, leaf_scalar, representers
from reinsqp.oracle import Form, assemble, dense_qp, dense_solve_linear
from reinsqp.portfolio import mean_final, variance_final
from reinsqp.qp import nonneg_qp
from reinsqp.tree import PortfolioProcess, norm

from conftest import random_instance


@pytest.fixture
def coin_oracle(coin2):
    return dense_qp(coin2.tree, coin2.book, coin2.config, Form.MIN_VARIANCE)


@pytest.fixture(scope="module")
def diverging_draw():
    # seed-101 draw 9 (two issue stages): the ladder's KKT total passes 1e3
    # by cycle 2 and is NaN long before cycle 300; the best total is the
    # first approximation's
    rng = np.random.default_rng(101)
    inst = [random_instance(rng) for _ in range(10)][9]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return iterate(inst.tree, inst.book, inst.config, max_iter=300)


def oracle_multiplier_set(sol) -> MultiplierSet:
    return MultiplierSet(sol.roe_multipliers, sol.mean_multiplier, sol.bound_multipliers)


def plan_of(inst, mults: MultiplierSet) -> PortfolioProcess:
    """The plan a multiplier set stands for: one structured solve of the
    variance form against the combined representers, whatever its residual."""
    reps = representers(inst.tree, inst.book, inst.config)
    rhs = reps.combine(mults.roe, mults.mean) + mults.bounds
    moments = compute_moments(inst.tree, inst.book)
    return elimination.solve(Kind.VARIANCE, inst.tree, inst.book, moments, 0.0, rhs).plan


def project_at_optimum(inst, sol):
    """Both parts of the projection of the oracle's plan and weights."""
    moments = compute_moments(inst.tree, inst.book)
    reps = representers(inst.tree, inst.book, inst.config)
    weighted = reps.combine(sol.roe_multipliers, sol.mean_multiplier)
    return multipliers._project(inst.tree, inst.book, moments, Kind.VARIANCE, weighted, sol.plan)


def project_stage_by_stage(tree, book, moments, kind, weighted, plan):
    """Reference for the projection: each stage sweeps the tree for its own
    couplings, subtracts them in ascending stage order, and splits."""
    stages = range(tree.last_issue + 1)
    scalars = [leaf_scalar(kind, tree, book, l, plan.stage(l)) for l in stages]
    positions, bounds = [], []
    for k in stages:
        arg = weighted.stage(k).values
        ma = moments.second_moment[k]
        if kind is Kind.VARIANCE:
            stage_mean = tree.path_prob[k] @ plan.stage(k).values
            arg = arg + ((ma - moments.covariance[k]) @ stage_mean)[None, :]
        others = [s for l, s in enumerate(scalars) if l != k]
        if others:
            (stacked,) = images(tree, book, range(k, k + 1), np.column_stack(others))
            for image in stacked:
                arg = arg - image
        result = nonneg_qp(ma, arg)
        positions.append(result.primal)
        bounds.append(result.dual)
    return positions, bounds


class TestDeterministic:
    def test_coin_positions_and_multipliers(self, coin2):
        det = deterministic_solution(coin2.tree, coin2.book, coin2.config)
        np.testing.assert_allclose(det.stage_positions, [12 / 13, 15 / 13], atol=1e-10)
        assert det.multipliers.mean == pytest.approx(30 / 13, abs=1e-9)
        np.testing.assert_allclose(det.multipliers.roe, [0.0, 0.0], atol=1e-10)

    def test_plan_is_constant_per_stage(self, coin2):
        det = deterministic_solution(coin2.tree, coin2.book, coin2.config)
        np.testing.assert_allclose(det.plan.stage(0).values, [[12 / 13]], atol=1e-10)
        np.testing.assert_allclose(
            det.plan.stage(1).values, [[15 / 13], [15 / 13]], atol=1e-10
        )
        assert mean_final(coin2.tree, coin2.book, det.plan) == pytest.approx(3.0)

    def test_mean_equality_matches_when_floor_binds(self, coin2):
        det = deterministic_solution(
            coin2.tree, coin2.book, coin2.config, form=Form.FIXED_MEAN
        )
        np.testing.assert_allclose(det.stage_positions, [12 / 13, 15 / 13], atol=1e-10)
        assert det.multipliers.mean == pytest.approx(30 / 13, abs=1e-9)

    def test_unreachable_profitability_level(self, coin2):
        # nothing settles in period 0, so a positive charge cannot be met
        bad = dataclasses.replace(
            coin2.config, roe_rates=np.array([0.1, 0.0]), initial_equity=1.0
        )
        with pytest.raises(InfeasibleDeterministic):
            deterministic_solution(coin2.tree, coin2.book, bad)


class TestRepresenterGram:
    def test_coin_pairing_matrix(self, coin2):
        gram = l_gram(coin2.tree, coin2.book, coin2.config)
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 9.0, 9.0], [0.0, 9.0, 9.0]])
        np.testing.assert_allclose(gram.inverse_gram, expected, atol=1e-9)

    def test_coin_rows_are_dependent(self, coin2):
        gram = l_gram(coin2.tree, coin2.book, coin2.config)
        assert gram.near_singular
        assert not np.isfinite(gram.cond) or gram.cond > GRAM_COND_MAX

    def test_relaxed_plan_matches_a_direct_solve(self, coin2):
        # the cycle solves only the bound multipliers and combines the
        # Gram's solved representers: the relaxed plan must be the direct
        # solve of the whole right-hand side, with a verified residual
        rng = np.random.default_rng(101)
        cases = [coin2] + [random_instance(rng) for _ in range(20)]
        for inst in cases:
            for form in (Form.MIN_VARIANCE, Form.FIXED_MEAN):
                moments = compute_moments(inst.tree, inst.book)
                gram = l_gram(inst.tree, inst.book, inst.config, moments, kind=form.kind)
                det = deterministic_solution(
                    inst.tree, inst.book, inst.config, moments, gram.reps, form
                )
                nu = det.multipliers.bounds
                for _ in range(3):
                    mults, _, relaxed = multipliers._projection_cycle(
                        inst.tree, inst.book, inst.config, moments, gram, nu, form
                    )
                    rhs = gram.reps.combine(mults.roe, mults.mean) + nu
                    direct = elimination.solve(
                        form.kind, inst.tree, inst.book, moments, 0.0, rhs,
                        coeffs=gram.coeffs,
                    ).plan
                    gap = (relaxed - direct).max_abs()
                    assert gap <= 1e-9 * max(direct.max_abs(), 1e-300)
                    leftover = rhs - apply(form.kind, inst.tree, inst.book, relaxed)
                    assert norm(inst.tree, leftover) <= RESIDUAL_TOL * norm(inst.tree, rhs)
                    nu = mults.bounds

    def test_pairing_is_symmetric_psd(self):
        rng = np.random.default_rng(11)
        inst = random_instance(rng)
        gram = l_gram(inst.tree, inst.book, inst.config)
        np.testing.assert_allclose(gram.inverse_gram, gram.inverse_gram.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(gram.inverse_gram)
        assert eigs.min() > -1e-9 * max(eigs.max(), 1.0)


class TestTheta:
    """The nodewise projection of every stage (``multipliers._project``)
    at the oracle optimum."""

    def test_fixed_point_at_optimum(self, coin2, coin_oracle):
        # the optimal plan and bound multipliers reproduce themselves
        positions, bounds = project_at_optimum(coin2, coin_oracle)
        for k in range(coin2.tree.last_issue + 1):
            np.testing.assert_allclose(
                positions.stage(k).values, coin_oracle.plan.stage(k).values, atol=1e-6
            )
            np.testing.assert_allclose(
                bounds.stage(k).values, coin_oracle.bound_multipliers.stage(k).values, atol=1e-6
            )

    def test_split_is_complementary(self, coin2, coin_oracle):
        positions, bounds = project_at_optimum(coin2, coin_oracle)
        for k in range(coin2.tree.last_issue + 1):
            parts = positions.stage(k).values, bounds.stage(k).values
            assert float(np.minimum(*parts).max()) == 0.0


class TestFirstApproximation:
    # the first approximation is the ladder's cycle 0
    def test_coin_plan_and_multipliers(self, coin2):
        fa = iterate(coin2.tree, coin2.book, coin2.config, max_iter=0)
        np.testing.assert_allclose(fa.plan.stage(0).values, [[4 / 3]], atol=1e-8)
        np.testing.assert_allclose(
            fa.plan.stage(1).values, [[0.0], [1.0]], atol=1e-8
        )
        assert fa.multipliers.mean == pytest.approx(1 / 3, abs=1e-8)
        np.testing.assert_allclose(fa.multipliers.roe, [0.0, 0.0], atol=1e-8)

    def test_coin_projection_split(self, coin2):
        # the relaxed plan keeps the negative branch that the bound
        # multiplier absorbs
        fa = iterate(coin2.tree, coin2.book, coin2.config, max_iter=0)
        np.testing.assert_allclose(
            fa.relaxed_plan.stage(1).values, [[-1 / 3], [1.0]], atol=1e-8
        )
        np.testing.assert_allclose(
            fa.multipliers.bounds.stage(1).values, [[2 / 3], [0.0]], atol=1e-8
        )
        np.testing.assert_allclose(
            fa.multipliers.bounds.stage(0).values, [[0.0]], atol=1e-8
        )

    def test_cycle_sweeps_the_tree_once_and_solves_once_per_node(self, coin2, monkeypatch):
        rng = np.random.default_rng(101)
        _, single, three = [random_instance(rng) for _ in range(3)]
        assert (single.tree.last_issue, three.tree.last_issue) == (0, 2)
        sweeps, rows = [], []
        sweep, solve = multipliers.images, multipliers.nonneg_qp
        monkeypatch.setattr(multipliers, "images", lambda *a: sweeps.append(a[2]) or sweep(*a))
        monkeypatch.setattr(
            multipliers, "nonneg_qp",
            lambda *a: rows.append(np.atleast_2d(a[1]).shape[0]) or solve(*a),
        )
        for inst, max_iter in ((coin2, 0), (coin2, 3), (three, 2), (single, 2)):
            sweeps.clear()
            rows.clear()
            res = iterate(inst.tree, inst.book, inst.config, max_iter=max_iter)
            tree, cycles = inst.tree, res.iterations + 1
            stages = range(tree.last_issue + 1)
            # per cycle, one sweep over all stages (none when one stage
            # couples nothing), one Gram step, then one stacked solve per
            # stage with one row per node, serving both parts
            assert sweeps == ([stages] * cycles if tree.last_issue else [])
            assert rows == ([1] + [tree.n_nodes(k) for k in stages]) * cycles

    def test_one_sweep_matches_a_sweep_per_stage(self, coin2):
        # products are elementwise and the tree conditions each column on
        # its own, so every stage's split keeps its bits
        rng = np.random.default_rng(101)
        cases = [coin2] + [random_instance(rng) for _ in range(10)]
        assert max(inst.tree.last_issue for inst in cases) == 3
        for inst in cases:
            tree, book = inst.tree, inst.book
            moments = compute_moments(tree, book)
            for form in (Form.MIN_VARIANCE, Form.FIXED_MEAN):
                gram = l_gram(tree, book, inst.config, moments, kind=form.kind)
                det = deterministic_solution(tree, book, inst.config, moments, gram.reps, form)
                nu = det.multipliers.bounds
                for _ in range(3):
                    mults, plan, relaxed = multipliers._projection_cycle(
                        tree, book, inst.config, moments, gram, nu, form
                    )
                    weighted = gram.reps.combine(mults.roe, mults.mean)
                    positions, bounds = project_stage_by_stage(
                        tree, book, moments, form.kind, weighted, relaxed
                    )
                    for k in range(tree.last_issue + 1):
                        assert np.array_equal(plan.stage(k).values, positions[k])
                        assert np.array_equal(mults.bounds.stage(k).values, bounds[k])
                    nu = mults.bounds

    def test_coin_mean_equality_shift(self, coin2):
        # the raw-form equality weight carries the floor on top of the
        # centered weight
        fa = iterate(coin2.tree, coin2.book, coin2.config, max_iter=0, form=Form.FIXED_MEAN)
        np.testing.assert_allclose(fa.plan.stage(0).values, [[4 / 3]], atol=1e-8)
        assert fa.multipliers.mean == pytest.approx(1 / 3 + 3.0, abs=1e-8)


class TestKktVerify:
    def test_oracle_optimum_passes(self, coin2, coin_oracle):
        report = kkt_verify(
            coin2.tree, coin2.book, coin2.config,
            coin_oracle.plan, oracle_multiplier_set(coin_oracle),
        )
        assert report.total < 1e-12
        assert report.converged

    def test_perturbed_plan_is_flagged(self, coin2, coin_oracle):
        moved = PortfolioProcess.from_arrays(
            coin2.tree,
            [coin_oracle.plan.stage(0).values + 0.05, coin_oracle.plan.stage(1).values],
        )
        report = kkt_verify(
            coin2.tree, coin2.book, coin2.config,
            moved, oracle_multiplier_set(coin_oracle),
        )
        assert not report.converged
        assert report.total > 1e-3

    def test_wrong_sign_multiplier_is_flagged(self, coin2, coin_oracle):
        mults = MultiplierSet(
            np.array([-0.2, 0.0]),
            coin_oracle.mean_multiplier,
            coin_oracle.bound_multipliers,
        )
        report = kkt_verify(
            coin2.tree, coin2.book, coin2.config, coin_oracle.plan, mults
        )
        assert report.worst_sign == pytest.approx(0.2, abs=1e-12)
        assert not report.converged

    def test_tolerance_is_respected(self, coin2, coin_oracle):
        moved = PortfolioProcess.from_arrays(
            coin2.tree,
            [coin_oracle.plan.stage(0).values + 0.05, coin_oracle.plan.stage(1).values],
        )
        loose = kkt_verify(
            coin2.tree, coin2.book, coin2.config,
            moved, oracle_multiplier_set(coin_oracle), tol=0.5,
        )
        assert loose.converged

    def test_report_round_trips_as_dict(self, coin2, coin_oracle):
        report = kkt_verify(
            coin2.tree, coin2.book, coin2.config,
            coin_oracle.plan, oracle_multiplier_set(coin_oracle),
        )
        d = report.as_dict()
        assert d["converged"] is True
        assert d["total"] == report.total

    def test_exact_zeros_are_positive_zeros(self, coin2, coin_oracle):
        # the oracle pins coordinates at exactly 0, so the worst position and
        # the worst multiplier are exact zeros
        report = kkt_verify(
            coin2.tree, coin2.book, coin2.config,
            coin_oracle.plan, oracle_multiplier_set(coin_oracle),
        )
        for value in report.as_dict().values():
            if value == 0.0:
                assert math.copysign(1.0, value) == 1.0

    def test_a_nan_in_any_component_is_the_total(self):
        for at in range(4):
            parts = [0.0] * 4
            parts[at] = float("nan")
            assert math.isnan(KktReport(*parts, tol=1e-8).total)

    def test_a_nan_bound_multiplier_is_not_swallowed(self, coin2, coin_oracle):
        bounds = coin_oracle.bound_multipliers
        nu = [bounds.stage(k).values.copy() for k in range(2)]
        nu[1][-1, 0] = np.nan  # last entry of the last stage
        mults = MultiplierSet(
            coin_oracle.roe_multipliers, coin_oracle.mean_multiplier,
            PortfolioProcess.from_arrays(coin2.tree, nu),
        )
        report = kkt_verify(coin2.tree, coin2.book, coin2.config, coin_oracle.plan, mults)
        assert math.isnan(report.worst_complementarity)
        assert math.isnan(report.worst_sign)
        assert math.isnan(report.total)
        assert not report.converged


class TestIterate:
    def test_zero_budget_returns_first_approximation(self, coin2):
        # the first approximation: one projection cycle seeded by the
        # deterministic nonnegativity multipliers
        moments = compute_moments(coin2.tree, coin2.book)
        gram = l_gram(coin2.tree, coin2.book, coin2.config, moments)
        det = deterministic_solution(coin2.tree, coin2.book, coin2.config, moments, gram.reps)
        _, plan, _ = multipliers._projection_cycle(
            coin2.tree, coin2.book, coin2.config, moments, gram,
            det.multipliers.bounds, Form.MIN_VARIANCE,
        )
        res = iterate(coin2.tree, coin2.book, coin2.config, max_iter=0)
        assert res.iterations == 0
        assert len(res.history) == 1
        assert not res.converged
        for k in range(2):
            np.testing.assert_array_equal(res.plan.stage(k).values, plan.stage(k).values)

    def test_loose_tolerance_stops_immediately(self, coin2):
        res = iterate(coin2.tree, coin2.book, coin2.config, max_iter=5, tol=0.2)
        assert res.converged
        assert res.iterations == 0
        assert len(res.history) == 1

    def test_first_residual_is_the_verified_one(self, coin2):
        res = iterate(coin2.tree, coin2.book, coin2.config, max_iter=0)
        report = kkt_verify(
            coin2.tree, coin2.book, coin2.config, res.plan, res.multipliers,
        )
        assert res.history[0] == pytest.approx(report.total, rel=1e-12)

    def test_coin_converges_to_oracle_optimum(self, coin2, coin_oracle):
        res = iterate(coin2.tree, coin2.book, coin2.config, max_iter=300)
        assert res.converged
        assert res.iterations < 300
        np.testing.assert_allclose(
            res.plan.stage(0).values, coin_oracle.plan.stage(0).values, atol=1e-6
        )
        np.testing.assert_allclose(
            res.plan.stage(1).values, coin_oracle.plan.stage(1).values, atol=1e-6
        )
        assert res.multipliers.mean == pytest.approx(6 / 17, abs=1e-6)

    def test_coin_oscillation_is_flagged(self, coin2):
        # the coin cycle overshoots on alternate steps before settling,
        # and the history says so
        res = iterate(coin2.tree, coin2.book, coin2.config, max_iter=300)
        assert res.non_monotone
        assert res.near_singular
        assert len(res.history) == res.iterations + 1

    def test_no_convergence_claim_when_short(self, coin2):
        res = iterate(coin2.tree, coin2.book, coin2.config, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_histories_are_monotone_or_flagged(self):
        rng = np.random.default_rng(101)
        for _ in range(4):
            inst = random_instance(rng)
            res = iterate(inst.tree, inst.book, inst.config, max_iter=30)
            h = res.history
            monotone = all(b <= a * (1 + 1e-12) for a, b in zip(h, h[1:]))
            assert monotone or res.non_monotone

    def test_diverging_ladder_returns_its_best_cycle(self, diverging_draw):
        history = np.array(diverging_draw.history)
        assert diverging_draw.report.total == history[np.isfinite(history)].min()
        assert diverging_draw.report.total == history[0]
        assert all(np.isfinite(s.values).all() for s in diverging_draw.plan.stages)

    def test_divergence_warnings_stay_inside(self, diverging_draw):
        # the fixture's call ran with every warning turned into an error
        assert diverging_draw.non_monotone
        assert not np.isfinite(diverging_draw.history).all()

    def test_infeasible_levels_propagate(self, coin2):
        bad = dataclasses.replace(
            coin2.config, roe_rates=np.array([0.1, 0.0]), initial_equity=1.0
        )
        with pytest.raises(InfeasibleDeterministic):
            iterate(coin2.tree, coin2.book, bad, max_iter=1)

    def test_max_mean_form_is_left_to_the_floor_search(self, coin2):
        with pytest.raises(InputError, match="iterate_max_mean"):
            iterate(coin2.tree, coin2.book, coin2.config, form=Form.MAX_MEAN)

    def test_mean_equality_reaches_raw_multiplier(self, coin2):
        res = iterate(
            coin2.tree, coin2.book, coin2.config, max_iter=300, form=Form.FIXED_MEAN
        )
        assert res.converged
        np.testing.assert_allclose(res.plan.stage(0).values, [[21 / 17]], atol=1e-6)
        np.testing.assert_allclose(
            res.plan.stage(1).values, [[0.0], [18 / 17]], atol=1e-6
        )
        assert res.multipliers.mean == pytest.approx(57 / 17, abs=1e-6)


class TestAssembleSolution:
    """The plan a multiplier set stands for (``plan_of``)."""

    def test_zero_multipliers_give_zero_plan(self, coin2):
        mults = MultiplierSet(np.zeros(2), 0.0, PortfolioProcess.zeros(coin2.tree))
        plan = plan_of(coin2, mults)
        assert plan.max_abs() == 0.0

    def test_unit_mean_weight_solves_the_mean_row(self, coin2):
        mults = MultiplierSet(np.zeros(2), 1.0, PortfolioProcess.zeros(coin2.tree))
        plan = plan_of(coin2, mults)
        problem = assemble(coin2.tree, coin2.book, coin2.config, Kind.VARIANCE)
        reps = representers(coin2.tree, coin2.book, coin2.config)
        expected, _ = dense_solve_linear(problem, reps.mean)
        for k in range(2):
            np.testing.assert_allclose(
                plan.stage(k).values, expected.stage(k).values, atol=1e-10
            )

    def test_oracle_multipliers_reproduce_oracle_plan(self, coin2, coin_oracle):
        plan = plan_of(coin2, oracle_multiplier_set(coin_oracle))
        for k in range(2):
            np.testing.assert_allclose(
                plan.stage(k).values, coin_oracle.plan.stage(k).values, atol=1e-10
            )


class TestIterateMaxMean:
    def test_coin_cap_at_minimum_variance(self, coin2):
        config = dataclasses.replace(coin2.config, variance_cap=18 / 17)
        out = iterate_max_mean(coin2.tree, coin2.book, config, max_iter=200)
        assert out.cap_binding
        assert out.result.converged
        assert out.mean_floor == pytest.approx(3.0, abs=1e-5)
        assert mean_final(coin2.tree, coin2.book, out.result.plan) == pytest.approx(
            3.0, abs=1e-5
        )
        assert variance_final(
            coin2.tree, coin2.book, out.result.plan
        ) == pytest.approx(18 / 17, rel=1e-4)

    def test_slack_cap_is_reported(self, coin2):
        neg = ContractBook(
            coin2.tree, {k: -v for k, v in coin2.book.stored_entries().items()}
        )
        config = dataclasses.replace(coin2.config, mean_floor=0.0, variance_cap=5.0)
        out = iterate_max_mean(coin2.tree, neg, config, max_iter=200)
        assert not out.cap_binding
        assert abs(out.mean_floor) < 1e-6

    def test_missing_cap_is_rejected(self, coin2):
        with pytest.raises(InputError):
            iterate_max_mean(coin2.tree, coin2.book, coin2.config, max_iter=10)

    def test_floors_share_one_gram_build(self, coin2, monkeypatch):
        calls = []
        real = multipliers.l_gram

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(multipliers, "l_gram", spy)
        config = dataclasses.replace(coin2.config, variance_cap=18 / 17)
        out = iterate_max_mean(coin2.tree, coin2.book, config, max_iter=300)
        assert len(out.trace) == 3
        assert len(calls) == 1

    def test_each_floor_counts_the_build_and_its_own_residual_misses(self):
        # seed-101 draw 9: its cycles' structured solves miss the residual
        # tolerance, so the count is not 0
        rng = np.random.default_rng(101)
        draw = [random_instance(rng) for _ in range(10)][9]
        moments = compute_moments(draw.tree, draw.book)
        gram = l_gram(draw.tree, draw.book, draw.config, moments)
        built = gram.unverified
        want = iterate(draw.tree, draw.book, draw.config, max_iter=100).fallbacks
        for _ in range(2):
            res = multipliers._ladder(draw.tree, draw.book, draw.config, moments, gram, 100,
                                      multipliers.KKT_TOL, Form.MIN_VARIANCE)
            assert res.fallbacks == want > built
        assert gram.unverified == built

    def test_negative_cycle_budget_is_bad_input(self, coin2):
        for form in (Form.MIN_VARIANCE, Form.FIXED_MEAN):
            with pytest.raises(InputError, match="max_iter must be >= 0, got -1"):
                iterate(coin2.tree, coin2.book, coin2.config, max_iter=-1, form=form)
        config = dataclasses.replace(coin2.config, variance_cap=18 / 17)
        with pytest.raises(InputError, match="max_iter must be >= 0, got -1"):
            iterate_max_mean(coin2.tree, coin2.book, config, max_iter=-1)

    def test_diverged_floor_zero_ladder_is_not_infeasible(self):
        # seed-101 acceptance instance 8 (two issue stages): the oracle's
        # max-mean floor at twice its minimal variance is about 1.55, but
        # the floor-0 ladder diverges within 25 cycles to a variance near
        # 1e98, which says nothing about what the cap admits
        rng = np.random.default_rng(101)
        inst = [random_instance(rng) for _ in range(9)][8]
        sol = dense_qp(inst.tree, inst.book, inst.config, Form.MIN_VARIANCE)
        config = dataclasses.replace(inst.config, variance_cap=2 * sol.variance_value)
        assert dense_qp(inst.tree, inst.book, config, Form.MAX_MEAN).mean_value > 1.5
        with pytest.raises(NumericalFailure, match="floor 0 did not converge") as exc:
            iterate_max_mean(inst.tree, inst.book, config, max_iter=25)
        assert "KKT total" in str(exc.value)
        assert "after 25 cycles" in str(exc.value)

    def test_unconverged_floor_stops_the_search(self):
        # seed-101 acceptance instance 13 (two issue stages): the floor-0
        # ladder converges under the cap, but the floor-1 ladder does not
        # within 25 cycles, so its variance cannot steer the search
        rng = np.random.default_rng(101)
        inst = [random_instance(rng) for _ in range(14)][13]
        sol = dense_qp(inst.tree, inst.book, inst.config, Form.MIN_VARIANCE)
        config = dataclasses.replace(inst.config, variance_cap=2 * sol.variance_value)
        assert dense_qp(inst.tree, inst.book, config, Form.MAX_MEAN).mean_value > 4.0
        with pytest.raises(NumericalFailure, match="floor 1 did not converge") as exc:
            iterate_max_mean(inst.tree, inst.book, config, max_iter=25)
        assert "after 25 cycles" in str(exc.value)


class TestStructuredSolvesOnly:
    def test_ladder_never_calls_the_dense_machinery(self, coin2, coin_oracle, monkeypatch):
        # every linear solve of the ladder is structured, also the ones
        # that miss their residual tolerance; those are counted
        rng = np.random.default_rng(101)
        draw = [random_instance(rng) for _ in range(10)][9]

        def refuse(*args, **kwargs):
            raise AssertionError("the structured route called the dense oracle")

        monkeypatch.setattr(oracle, "assemble", refuse)
        monkeypatch.setattr(oracle, "dense_solve_linear", refuse)
        for form in (Form.MIN_VARIANCE, Form.FIXED_MEAN):
            res = iterate(coin2.tree, coin2.book, coin2.config, max_iter=300, form=form)
            assert res.converged
            assert res.fallbacks == 0
        res = iterate(draw.tree, draw.book, draw.config, max_iter=300)
        assert not res.converged
        assert res.fallbacks == 231
        config = dataclasses.replace(coin2.config, variance_cap=18 / 17)
        assert iterate_max_mean(coin2.tree, coin2.book, config, max_iter=300).result.converged
        plan = plan_of(coin2, oracle_multiplier_set(coin_oracle))
        assert np.isfinite(plan.max_abs())
