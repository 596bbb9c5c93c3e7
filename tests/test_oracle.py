"""The dense reference solver and its coordinate bridge."""

import dataclasses

import numpy as np
import pytest

from reinsqp import oracle
from reinsqp.errors import Infeasible, InputError, NumericalFailure
from reinsqp.operators import Kind, dense_matrix, representers
from reinsqp.oracle import (
    Form,
    assemble,
    constraint_rows,
    dense_qp,
    dense_solve_linear,
    from_coords,
    max_attainable_mean,
    max_mean_floor,
    to_coords,
)
from reinsqp.multipliers import MultiplierSet, kkt_verify
from reinsqp.portfolio import evaluate_constraints
from reinsqp.qp import solve_qp
from reinsqp.tree import inner_product, norm

from conftest import random_instance
from test_operators import random_plan

from reinsqp.contracts import ContractBook


def slacks_clear(report, tol: float) -> bool:
    """Whether every slack of an uncapped mean-floor report clears ``tol``."""
    slacks = np.append(report.roe_slacks, [report.mean_slack, report.min_position])
    return bool((slacks >= -tol).all())


class TestCoordinates:
    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng)
        for _ in range(5):
            plan = random_plan(inst.tree, rng)
            assert float(np.linalg.norm(to_coords(inst.tree, plan))) == pytest.approx(
                norm(inst.tree, plan), rel=1e-12
            )

    def test_inner_product_preserved(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng)
        p, q = random_plan(inst.tree, rng), random_plan(inst.tree, rng)
        assert float(to_coords(inst.tree, p) @ to_coords(inst.tree, q)) == pytest.approx(
            inner_product(inst.tree, p, q), rel=1e-12
        )

    def test_bad_length_rejected(self, coin2):
        with pytest.raises(InputError):
            from_coords(coin2.tree, np.zeros(5))


class TestAssemble:
    def test_rows_realize_the_functionals(self):
        # dual route: matrix rows acting on coordinates against
        # representer inner products on plans
        rng = np.random.default_rng(9)
        inst = random_instance(rng)
        tree = inst.tree
        rows, _ = constraint_rows(tree, inst.book, inst.config)
        reps = representers(tree, inst.book, inst.config)
        for _ in range(5):
            plan = random_plan(tree, rng)
            x = to_coords(tree, plan)
            for i, rep in enumerate(reps.all_rows()):
                assert float(rows[i] @ x) == pytest.approx(
                    inner_product(tree, rep, plan), rel=1e-9, abs=1e-11
                )

    def test_coin_levels(self, coin2):
        _, levels = constraint_rows(coin2.tree, coin2.book, coin2.config)
        np.testing.assert_allclose(levels, [0.0, 0.0, 3.0])

    def test_levels_carry_equity_charge(self, coin2):
        config = dataclasses.replace(
            coin2.config, roe_rates=np.array([0.2, 0.05]), initial_equity=2.0
        )
        _, levels = constraint_rows(coin2.tree, coin2.book, config)
        np.testing.assert_allclose(levels, [0.4, 0.1, 3.0])

    def test_spectrum_ascending_and_positive_for_centered(self, coin2):
        eigs = np.linalg.eigvalsh(dense_matrix(Kind.VARIANCE, coin2.tree, coin2.book))
        assert (np.diff(eigs) >= 0).all()
        assert eigs[0] > 0


class TestDenseSolveLinear:
    def test_solves_and_reports_residual(self, coin2):
        rng = np.random.default_rng(21)
        problem = assemble(coin2.tree, coin2.book, coin2.config, Kind.VARIANCE)
        rhs = random_plan(coin2.tree, rng)
        plan, resid = dense_solve_linear(problem, rhs)
        assert resid < 1e-12
        image = problem.gram @ to_coords(coin2.tree, plan)
        np.testing.assert_allclose(image, to_coords(coin2.tree, rhs), atol=1e-10)

    def test_shifted_solve(self, coin2):
        rng = np.random.default_rng(22)
        problem = assemble(coin2.tree, coin2.book, coin2.config, Kind.VARIANCE)
        rhs = random_plan(coin2.tree, rng)
        plan, _ = dense_solve_linear(problem, rhs, shift=-1.0)
        image = (problem.gram + np.eye(3)) @ to_coords(coin2.tree, plan)
        np.testing.assert_allclose(image, to_coords(coin2.tree, rhs), atol=1e-10)

    def test_nan_right_hand_side_is_refused(self, coin2):
        # a NaN residual compares false against the tolerance
        rng = np.random.default_rng(23)
        problem = assemble(coin2.tree, coin2.book, coin2.config, Kind.VARIANCE)
        rhs = random_plan(coin2.tree, rng)
        rhs.stage(1).values[0, 0] = np.nan
        with pytest.raises(NumericalFailure, match="residual nan"):
            dense_solve_linear(problem, rhs)


class TestMinVariance:
    def test_coin_optimum(self, coin2):
        sol = dense_qp(coin2.tree, coin2.book, coin2.config, Form.MIN_VARIANCE)
        np.testing.assert_allclose(sol.plan.stage(0).values, [[21 / 17]], atol=1e-9)
        np.testing.assert_allclose(
            sol.plan.stage(1).values, [[0.0], [18 / 17]], atol=1e-9
        )
        assert sol.variance_value == pytest.approx(18 / 17, rel=1e-10)
        assert sol.objective == pytest.approx(18 / 17, rel=1e-10)
        assert sol.mean_value == pytest.approx(3.0, rel=1e-10)

    def test_coin_multipliers(self, coin2):
        sol = dense_qp(coin2.tree, coin2.book, coin2.config, Form.MIN_VARIANCE)
        assert sol.mean_multiplier == pytest.approx(6 / 17, abs=1e-9)
        np.testing.assert_allclose(sol.roe_multipliers, [0.0, 0.0], atol=1e-9)
        # the clamped stage-1 position carries the only bound multiplier
        bm = sol.bound_multipliers
        assert bm.stage(1).values[0, 0] > 0
        assert abs(bm.stage(0).values[0, 0]) < 1e-9

    def test_solution_is_feasible(self, coin2):
        sol = dense_qp(coin2.tree, coin2.book, coin2.config, Form.MIN_VARIANCE)
        report = evaluate_constraints(coin2.tree, coin2.book, coin2.config, sol.plan)
        assert slacks_clear(report, 1e-8)

    def test_beats_sampled_feasible_plans(self, coin2):
        sol = dense_qp(coin2.tree, coin2.book, coin2.config, Form.MIN_VARIANCE)
        rng = np.random.default_rng(33)
        for _ in range(50):
            cand = sol.plan + 0.3 * random_plan(coin2.tree, rng)
            report = evaluate_constraints(coin2.tree, coin2.book, coin2.config, cand)
            if slacks_clear(report, 0.0):
                assert report.variance_value >= sol.variance_value - 1e-9

    def test_infeasible_floor_raises(self, coin2):
        negated = ContractBook(
            coin2.tree,
            {k: -v for k, v in coin2.book.stored_entries().items()},
        )
        with pytest.raises(Infeasible):
            dense_qp(coin2.tree, negated, coin2.config, Form.MIN_VARIANCE)


class TestCertificate:
    @pytest.mark.parametrize(
        "scale, shift, component",
        [(1.0, 0.5, "stationarity"), (0.5, 0.0, "feasibility"), (2.0, 0.0, "complementarity")],
    )
    def test_uncertified_answer_is_refused(self, coin2, monkeypatch, scale, shift, component):
        # scaling the solve's point and every multiplier keeps stationarity
        # and breaks the floor (0.5) or its complementarity (2); a shift of
        # the point breaks stationarity
        def corrupted(*args, **kwargs):
            res = solve_qp(*args, **kwargs)
            return dataclasses.replace(
                res,
                x=scale * res.x + shift,
                eq_multipliers=scale * res.eq_multipliers,
                ineq_multipliers=scale * res.ineq_multipliers,
                bound_multipliers=scale * res.bound_multipliers,
            )

        monkeypatch.setattr(oracle, "solve_qp", corrupted)
        with pytest.raises(NumericalFailure, match=f"fails its {component} check: [0-9.e+-]+$"):
            dense_qp(coin2.tree, coin2.book, coin2.config, Form.MIN_VARIANCE)

    def test_fixed_coordinates_are_exactly_zero(self, coin2):
        sol = dense_qp(coin2.tree, coin2.book, coin2.config, Form.MIN_VARIANCE)
        assert sol.plan.stage(1).values[0, 0] == 0.0


class TestFixedMean:
    def test_same_plan_different_multiplier(self, coin2):
        free = dense_qp(coin2.tree, coin2.book, coin2.config, Form.MIN_VARIANCE)
        pinned = dense_qp(coin2.tree, coin2.book, coin2.config, Form.FIXED_MEAN)
        np.testing.assert_allclose(pinned.coords, free.coords, atol=1e-8)
        # raw-form multiplier shifts by exactly the pinned mean
        assert pinned.mean_multiplier == pytest.approx(57 / 17, abs=1e-8)
        assert pinned.objective == pytest.approx(11.0 * (18 / 17 + 9) / 11, rel=1e-9)

    def test_mean_hit_exactly(self, coin2):
        pinned = dense_qp(coin2.tree, coin2.book, coin2.config, Form.FIXED_MEAN)
        assert pinned.mean_value == pytest.approx(3.0, abs=1e-9)


class TestMaxMean:
    def test_cap_at_minimum_variance_returns_the_same_portfolio(self, coin2):
        free = dense_qp(coin2.tree, coin2.book, coin2.config, Form.MIN_VARIANCE)
        cfg = dataclasses.replace(
            coin2.config, variance_cap=free.variance_value, mean_floor=0.0
        )
        capped = dense_qp(coin2.tree, coin2.book, cfg, Form.MAX_MEAN)
        assert capped.cap_binding
        assert capped.mean_value == pytest.approx(3.0, rel=1e-6)
        dev = np.linalg.norm(capped.coords - free.coords) / np.linalg.norm(free.coords)
        assert dev < 1e-5

    def test_unit_cap_mean_squared_is_rational(self, coin2):
        # along the scaling ray the attainable mean at cap 1 satisfies
        # mean^2 = 9 * 17/18 = 17/2
        cfg = dataclasses.replace(coin2.config, variance_cap=1.0, mean_floor=0.0)
        sol = dense_qp(coin2.tree, coin2.book, cfg, Form.MAX_MEAN)
        assert sol.mean_value**2 == pytest.approx(8.5, rel=1e-5)
        assert sol.variance_value == pytest.approx(1.0, rel=1e-5)
        assert sol.mean_floor == pytest.approx(sol.mean_value, rel=1e-9)
        # sigma is linear along the scaling ray: floor 0, floor 1, then the root
        assert len(sol.bisection_trace) == 3

    def test_missing_cap_rejected(self, coin2):
        with pytest.raises(InputError):
            dense_qp(coin2.tree, coin2.book, coin2.config, Form.MAX_MEAN)

    def test_tiny_cap_infeasible_when_rows_force_positions(self, coin2):
        config = dataclasses.replace(
            coin2.config,
            roe_rates=np.array([0.0, 0.1]),
            initial_equity=1.0,
            variance_cap=1e-12,
            mean_floor=0.0,
        )
        with pytest.raises(Infeasible):
            dense_qp(coin2.tree, coin2.book, config, Form.MAX_MEAN)

    def test_slack_cap_reported_not_binding(self, coin2):
        # a book whose mean functional tops out at zero: the cap can
        # never bind and the largest attainable floor is returned
        book = ContractBook(
            coin2.tree,
            {
                (0, 2): np.full((4, 1), -1.0),
                (1, 2): coin2.book.stored_entries()[(1, 2)] - 1.0,
            },
        )
        config = dataclasses.replace(coin2.config, variance_cap=5.0, mean_floor=0.0)
        sol = dense_qp(coin2.tree, book, config, Form.MAX_MEAN)
        assert not sol.cap_binding
        # floor 0 is the largest attainable mean, solved once
        assert sol.bisection_trace == [(0.0, 0.0)]
        assert sol.variance_value < 5.0 * (1 - 1e-6)

    def test_unknown_form_rejected(self, coin2):
        with pytest.raises(InputError):
            dense_qp(coin2.tree, coin2.book, coin2.config, "maximize-everything")


def squared_variance(offset: float = 0.0):
    """A synthetic floor solve: V(e) = offset + e^2, mean e, mean multiplier
    V'(e) / 2 = e; the result names its floor so tests can see which solve
    came back."""
    return lambda e: (f"solve at {e!r}", offset + e * e, e, e)


def riskless(e):
    """A synthetic floor solve whose variance is 0 at every floor."""
    return f"solve at {e!r}", 0.0, e, 0.0


#: rows and levels whose largest attainable mean is 5 (x <= 5, maximize x)
CAPPED_ROWS, CAPPED_LEVELS = np.array([[-1.0], [1.0]]), np.array([-5.0, 0.0])
#: rows and levels with no largest attainable mean
OPEN_ROWS, OPEN_LEVELS = np.array([[0.0], [1.0]]), np.array([0.0, 0.0])


class TestMaxMeanFloor:
    def test_binding_cap_newton_steps_to_the_root(self):
        out = max_mean_floor(squared_variance(), 9.0, CAPPED_ROWS, CAPPED_LEVELS)
        assert out.cap_binding
        # sigma(e) = e is linear, so one Newton step from floor 1 is exact
        assert out.trace == [(0.0, 0.0), (1.0, 1.0), (3.0, 9.0)]
        assert out.mean_floor == 3.0
        assert out.result == "solve at 3.0"

    def test_slack_cap_returns_the_largest_attainable_floor(self):
        out = max_mean_floor(squared_variance(), 100.0, CAPPED_ROWS, CAPPED_LEVELS)
        assert not out.cap_binding
        # the Newton step to 10 is clamped to the largest attainable mean
        assert out.trace == [(0.0, 0.0), (1.0, 1.0), (5.0, 25.0)]
        assert out.mean_floor == 5.0
        assert out.result == "solve at 5.0"

    def test_curved_frontier_descends_to_the_root(self):
        out = max_mean_floor(squared_variance(1.0), 10.0, OPEN_ROWS, OPEN_LEVELS)
        assert out.cap_binding
        floors = [e for e, _ in out.trace]
        assert floors[:2] == [0.0, 1.0]
        # one step from the left overshoots the root 3, then every step falls
        assert all(a > b > 3.0 for a, b in zip(floors[2:], floors[3:]))
        assert len(floors) <= 6
        assert abs(out.trace[-1][1] - 10.0) <= oracle.CAP_TOL * 10.0
        assert out.result == f"solve at {out.mean_floor!r}"

    def test_cap_below_floor_zero_is_infeasible(self):
        with pytest.raises(Infeasible, match="minimal attainable variance 1"):
            max_mean_floor(squared_variance(1.0), 0.5, CAPPED_ROWS, CAPPED_LEVELS)

    def test_floor_zero_check_runs_before_the_verdict(self):
        # a floor solve that refuses its own answer raises out of the search:
        # at floor 0 before the cap verdict, and at any later floor
        seen = []

        def refusing(offset: float, at: float):
            def solve_at(e):
                seen.append(e)
                if e == at:
                    raise NumericalFailure(f"floor {e!r} not trusted")
                return squared_variance(offset)(e)

            return solve_at

        with pytest.raises(NumericalFailure, match="floor 0.0 not trusted"):
            max_mean_floor(refusing(1.0, 0.0), 0.5, CAPPED_ROWS, CAPPED_LEVELS)
        assert seen == [0.0]
        with pytest.raises(NumericalFailure, match="floor 1.0 not trusted"):
            max_mean_floor(refusing(0.0, 1.0), 9.0, CAPPED_ROWS, CAPPED_LEVELS)
        assert seen[1:] == [0.0, 1.0]

    def test_unbounded_mean_takes_one_newton_step(self):
        assert max_attainable_mean(OPEN_ROWS, OPEN_LEVELS) is None
        out = max_mean_floor(squared_variance(), 1e6, OPEN_ROWS, OPEN_LEVELS)
        assert out.cap_binding
        assert out.trace == [(0.0, 0.0), (1.0, 1.0), (1000.0, 1e6)]

    def test_riskless_unbounded_mean_is_a_numerical_failure(self):
        # the floor doubles while the variance stays 0 and the cap never binds
        with pytest.raises(NumericalFailure, match="not met within"):
            max_mean_floor(riskless, 1.0, OPEN_ROWS, OPEN_LEVELS)

    def test_binding_profitability_rows_take_few_floors(self):
        rng = np.random.default_rng(909)
        for _ in range(10):
            inst = random_instance(rng)
            config = dataclasses.replace(
                inst.config,
                roe_rates=np.full(inst.tree.horizon, 0.5),
                initial_equity=3.0,
                mean_floor=0.0,
            )
            least = dense_qp(inst.tree, inst.book, config, Form.MIN_VARIANCE)
            cap = 3 * least.variance_value
            capped = dataclasses.replace(config, variance_cap=cap)
            sol = dense_qp(inst.tree, inst.book, capped, Form.MAX_MEAN)
            assert sol.cap_binding
            assert abs(sol.variance_value - cap) <= oracle.CAP_TOL * cap
            assert len(sol.bisection_trace) <= 8
            at_floor = dataclasses.replace(config, mean_floor=sol.mean_floor)
            mults = MultiplierSet(
                sol.roe_multipliers, sol.mean_multiplier, sol.bound_multipliers
            )
            kkt = kkt_verify(
                inst.tree, inst.book, at_floor, sol.plan, mults, Form.MIN_VARIANCE
            )
            assert kkt.converged, kkt.as_dict()


class TestMeanRange:
    def test_unbounded_for_coin(self, coin2):
        rows, levels = constraint_rows(coin2.tree, coin2.book, coin2.config)
        assert max_attainable_mean(rows, levels) is None

    def test_bounded_when_all_results_negative(self, coin2):
        negated = ContractBook(
            coin2.tree, {k: -v for k, v in coin2.book.stored_entries().items()}
        )
        rows, levels = constraint_rows(coin2.tree, negated, coin2.config)
        assert max_attainable_mean(rows, levels) == pytest.approx(0.0, abs=1e-9)

    def test_unbounded_mean_is_not_an_empty_set(self):
        # x = 0 is feasible and the ray (0, 0.64, 0, 1) raises the mean
        # without bound; HiGHS's presolve calls this LP infeasible
        rows = np.array([
            [1.1, 0.84, -0.98, -0.46],
            [1.55, -0.73, 0.19, 0.47],
            [-0.36, 0.09, -1.56, 0.02],
        ])
        levels = np.array([-0.22, -0.21, 0.0])
        assert max_attainable_mean(rows, levels) is None
