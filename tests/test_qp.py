"""Active-set solvers: the orthant complementarity kernel and the
general equality/inequality quadratic program."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from reinsqp.errors import Infeasible, MaxPivotsExceeded, NotSPD
from reinsqp.oracle import constraint_rows, max_attainable_mean
from reinsqp.qp import NonnegQP, nonneg_qp, phase1_point, solve_qp

from conftest import random_instance


def random_spd(rng, n, spread=1.0):
    q = rng.standard_normal((n, n))
    return q @ q.T + (0.1 + spread * rng.random()) * np.eye(n)


def enumerate_orthant_solution(m, x):
    """Brute force over all free/clamped splits; unique by strict convexity."""
    n = x.shape[0]
    for clamped in itertools.product([False, True], repeat=n):
        clamped = np.array(clamped)
        free = ~clamped
        y = np.zeros(n)
        if free.any():
            y[free] = np.linalg.solve(m[np.ix_(free, free)], x[free])
        if (y[free] < 0).any():
            continue
        slack = m @ y - x
        if (slack[clamped] < 0).any():
            continue
        return y, slack
    raise AssertionError("no orthant split satisfied the optimality system")


class TestNonnegQP:
    def test_interior_case(self):
        out = nonneg_qp(np.array([[2.0]]), np.array([3.0]))
        np.testing.assert_allclose(out.primal, [1.5])
        np.testing.assert_allclose(out.dual, [0.0])

    def test_fully_clamped_case(self):
        out = nonneg_qp(np.array([[2.0]]), np.array([-3.0]))
        np.testing.assert_allclose(out.primal, [0.0])
        np.testing.assert_allclose(out.dual, [3.0])

    def test_mixed_two_by_two(self):
        # strong coupling pushes the second coordinate out of the orthant
        m = np.array([[1.0, 0.9], [0.9, 1.0]])
        x = np.array([1.0, -0.5])
        out = nonneg_qp(m, x)
        np.testing.assert_allclose(out.primal, [1.0, 0.0])
        np.testing.assert_allclose(out.dual, [0.0, 1.4])

    def test_complementarity_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            out = nonneg_qp(random_spd(rng, n), rng.standard_normal(n))
            # no tolerance here on purpose: clamped coordinates are
            # exactly zero, free ones have exactly zero slack
            assert float(np.minimum(out.primal, out.dual).max(initial=0.0)) == 0.0

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            m, x = random_spd(rng, n), rng.standard_normal(n)
            out = nonneg_qp(m, x)
            scale = max(1.0, float(np.abs(x).max()))
            assert float(np.abs(m @ out.primal - out.dual - x).max()) < 1e-10 * scale

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            m, x = random_spd(rng, n), rng.standard_normal(n)
            out = nonneg_qp(m, x)
            y, slack = enumerate_orthant_solution(m, x)
            np.testing.assert_allclose(out.primal, y, atol=1e-9)
            np.testing.assert_array_equal(out.primal == 0.0, y == 0.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSPD):
            nonneg_qp(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSPD):
            nonneg_qp(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))

    def test_pivot_budget(self):
        rng = np.random.default_rng(11)
        with pytest.raises(MaxPivotsExceeded):
            nonneg_qp(random_spd(rng, 5), np.ones(5), max_pivots=0)

    def test_stacked_rows_equal_single_calls_bitwise(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n, rows = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            m = random_spd(rng, n)
            # rows of very different sizes, so each needs its own scale
            x = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-6, 7, (rows, 1))
            out = nonneg_qp(m, x)
            alone = [nonneg_qp(m, row) for row in x]
            assert out.primal.shape == out.dual.shape == x.shape
            assert np.array_equal(out.primal, np.array([a.primal for a in alone]))
            assert np.array_equal(out.dual, np.array([a.dual for a in alone]))
            assert out.n_pivots == sum(a.n_pivots for a in alone)

    def test_stacked_rows_still_check_the_matrix(self):
        x = np.ones((3, 2))
        with pytest.raises(NotSPD):
            nonneg_qp(np.array([[1.0, 2.0], [0.0, 1.0]]), x)
        with pytest.raises(NotSPD):
            nonneg_qp(np.array([[1.0, 0.0], [0.0, -1.0]]), x)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 6))
def test_nonneg_qp_optimality_property(seed, n):
    """The returned point minimizes the objective over sampled orthant points."""
    rng = np.random.default_rng(seed)
    m, x = random_spd(rng, n), rng.standard_normal(n)
    out = nonneg_qp(m, x)

    def objective(y):
        return 0.5 * y @ m @ y - x @ y

    best = objective(out.primal)
    for _ in range(20):
        y = np.abs(rng.standard_normal(n))
        assert best <= objective(y) + 1e-9


class TestPhase1:
    def test_simple_feasible_point(self):
        a_in = np.array([[1.0, 1.0]])
        b_in = np.array([2.0])
        x = phase1_point(None, None, a_in, b_in, 2)
        assert x @ np.ones(2) >= 2.0 - 1e-9
        assert (x >= -1e-12).all()

    def test_equality_honored(self):
        a_eq = np.array([[1.0, -1.0]])
        b_eq = np.array([0.5])
        x = phase1_point(a_eq, b_eq, None, None, 2)
        assert x[0] - x[1] == pytest.approx(0.5, abs=1e-9)

    def test_infeasible_raises(self):
        # x >= 1 and -x >= 0 cannot hold together
        a_in = np.array([[1.0], [-1.0]])
        b_in = np.array([1.0, 0.0])
        with pytest.raises(Infeasible):
            phase1_point(None, None, a_in, b_in, 1)

    @pytest.mark.parametrize("t", [1.0, 1e-11, 1e-20])
    def test_a_tiny_infeasibility_is_still_infeasible(self, t):
        # x >= t and -x >= 0 cannot hold together however small t is: the
        # verdict is relative to the levels, with no absolute floor
        a_in = np.array([[1.0], [-1.0]])
        with pytest.raises(Infeasible):
            phase1_point(None, None, a_in, np.array([t, 0.0]), 1)

    def test_vertex_scales_with_the_levels(self):
        # the oracle's system on the seed-101 draws, every level scaled by
        # 10^j: the same vertex, scaled, with exact zeros in the same places
        rng = np.random.default_rng(101)
        for _ in range(20):
            inst = random_instance(rng)
            rows, levels = constraint_rows(inst.tree, inst.book, inst.config)
            n = rows.shape[1]
            base = phase1_point(None, None, rows, levels, n)
            assert np.count_nonzero(base) <= rows.shape[0]
            for j in range(-14, 7):
                t = 10.0**j
                x = phase1_point(None, None, rows, t * levels, n)
                np.testing.assert_array_equal(x > 0.0, base > 0.0)
                np.testing.assert_allclose(x, t * base, rtol=0, atol=1e-13 * t * base.max())


def _random_system(rng, i):
    """Rows with two-decimal entries (so ties and degenerate vertices
    occur), every third system with a duplicated row, an objective that
    is bounded over the rows on half the systems, raised levels on a
    quarter, and up to two equality rows with negative right-hand sides."""
    m, n = int(rng.integers(1, 7)), int(rng.integers(1, 41))
    a = np.round(rng.standard_normal((m, n)), 2)
    b = np.round(rng.standard_normal(m), 2)
    if i % 3 == 0:
        k = int(rng.integers(m))
        a, b = np.vstack([a, a[k]]), np.append(b, b[k])
    if i % 4 == 1:  # c <= -a'y with y >= 0: bounded when feasible
        c = -a.T @ rng.uniform(0.0, 1.0, a.shape[0]) - rng.uniform(0.0, 0.1, n)
    elif i % 4 == 2:
        c = -np.abs(np.round(rng.standard_normal(n), 2))
    else:
        c = np.round(rng.standard_normal(n), 2)
        if i % 4 == 3:
            b = b + 2.0
    m_eq = int(rng.integers(0, 3))
    a_eq = np.round(rng.standard_normal((m_eq, n)), 2)
    b_eq = -np.abs(np.round(rng.standard_normal(m_eq), 2))
    return a, b, c, a_eq, b_eq


def _highs(c, a, b, a_eq=None, b_eq=None, presolve=True):
    return linprog(-c, A_ub=-a, b_ub=-b, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                   method="highs", options={"presolve": presolve})


class TestAgainstHiGHS:
    """The simplex against scipy's HiGHS as an independent reference."""

    def test_random_systems(self):
        rng = np.random.default_rng(2024)
        seen = {"infeasible": 0, "unbounded": 0, "bounded": 0}
        for i in range(300):
            a, b, c, a_eq, b_eq = _random_system(rng, i)
            n = a.shape[1]
            eq = (a_eq, b_eq) if b_eq.size else (None, None)
            ref = _highs(np.zeros(n), a, b, *eq)
            assert ref.status in (0, 2), ref.message
            try:
                x = phase1_point(a_eq, b_eq, a, b, n)
            except Infeasible:
                assert ref.status == 2, f"system {i}: HiGHS finds a point"
            else:
                assert ref.status == 0, f"system {i}: HiGHS finds it empty"
                assert (x >= 0.0).all()
                assert (a @ x - b).min() >= -1e-9
                np.testing.assert_allclose(a_eq @ x, b_eq, rtol=0, atol=1e-9)

            # HiGHS's presolve calls some unbounded LPs infeasible; it
            # decides only where the plain simplex stops undecided
            ref = _highs(c, a, b, presolve=False)
            if ref.status not in (0, 2, 3):
                ref = _highs(c, a, b)
            rows, levels = np.vstack([a, c]), np.append(b, 0.0)
            if ref.status == 2:
                seen["infeasible"] += 1
                with pytest.raises(Infeasible):
                    max_attainable_mean(rows, levels)
            elif ref.status == 3:
                seen["unbounded"] += 1
                assert max_attainable_mean(rows, levels) is None, f"system {i}"
            else:
                seen["bounded"] += 1
                top = max_attainable_mean(rows, levels)
                assert top == pytest.approx(-ref.fun, rel=1e-9, abs=1e-9), f"system {i}"
        assert min(seen.values()) >= 20, seen

    def test_beale_cycling_example_terminates(self):
        # Beale (1955): min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 under
        # 1/4 x4 - 8 x5 - x6 + 9 x7 <= 0, 1/2 x4 - 12 x5 - 1/2 x6 + 3 x7 <= 0
        # and x6 <= 1, whose degenerate start cycles under Dantzig's rule
        rows = np.array([
            [-0.25, 8.0, 1.0, -9.0],
            [-0.5, 12.0, 0.5, -3.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.75, -20.0, 0.5, -6.0],
        ])
        levels = np.array([0.0, 0.0, -1.0, 0.0])
        assert max_attainable_mean(rows, levels) == pytest.approx(1.25, rel=1e-12)


class TestSolveQP:
    def test_equality_constrained_projection(self):
        # closest point to the origin on x0 + x1 = 2
        res = solve_qp(np.eye(2), np.zeros(2), a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([2.0]))
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(res.eq_multipliers, [1.0], atol=1e-10)

    def test_inequality_activates_when_binding(self):
        # unconstrained optimum (3, 0) violates x1 - x0 >= 0
        g = np.eye(2)
        c = np.array([-3.0, 0.0])
        a_in = np.array([[-1.0, 1.0]])
        res = solve_qp(g, c, a_in=a_in, b_in=np.zeros(1))
        np.testing.assert_allclose(res.x, [1.5, 1.5], atol=1e-9)
        assert res.ineq_multipliers[0] == pytest.approx(1.5, abs=1e-9)

    def test_inactive_constraint_keeps_zero_multiplier(self):
        g = np.eye(2)
        c = np.array([-1.0, -1.0])
        a_in = np.array([[1.0, 0.0]])
        b_in = np.array([-5.0])
        res = solve_qp(g, c, a_in=a_in, b_in=b_in)
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)
        assert res.ineq_multipliers[0] == pytest.approx(0.0)

    def test_stationarity_of_random_problems(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            g = random_spd(rng, n)
            c = rng.standard_normal(n)
            a_in = rng.standard_normal((2, n))
            b_in = -np.abs(rng.standard_normal(2)) - 1.0
            res = solve_qp(g, c, a_in=a_in, b_in=b_in)
            grad = g @ res.x + c
            nu = res.bound_multipliers
            stat = grad - a_in.T @ res.ineq_multipliers - nu
            scale = 1.0 + float(np.abs(grad).max())
            assert float(np.abs(stat).max()) < 1e-8 * scale
            assert (res.ineq_multipliers >= -1e-8 * scale).all()
            assert (nu >= -1e-8 * scale).all()
            assert (a_in @ res.x - b_in >= -1e-8).all()
            assert (res.x >= 0.0).all()
            comp = res.ineq_multipliers * (a_in @ res.x - b_in)
            assert float(np.abs(comp).max()) < 1e-7 * scale
            assert float(np.abs(nu * res.x).max()) < 1e-7 * scale

    def test_bounds_are_native(self):
        # the unconstrained optimum (2, -1) leaves the orthant; x1 is fixed
        # at zero with multiplier (gx + c)_1 = 1
        res = solve_qp(np.eye(2), np.array([-2.0, 1.0]))
        np.testing.assert_array_equal(res.x, [2.0, 0.0])
        np.testing.assert_allclose(res.bound_multipliers, [0.0, 1.0], atol=1e-12)

    def test_degenerate_vertex_with_an_equality_row(self):
        # sum(x) = 1 with r.x = -0.1 written as two opposite rows: every
        # vertex of the feasible set has 4 active constraints on 3
        # coordinates, and the optimum lies between two of them
        a_eq, b_eq = np.ones((1, 3)), np.ones(1)
        r = np.array([0.3, -0.1, -0.4])
        a_in, b_in = np.array([r, -r]), np.array([-0.1, 0.1])
        vertex = phase1_point(a_eq, b_eq, a_in, b_in, 3)
        assert 1 + 2 + np.count_nonzero(vertex <= 1e-9) > 3
        res = solve_qp(np.eye(3), -np.ones(3), a_eq, b_eq, a_in, b_in)
        # the optimum is interior to the orthant: the projection of
        # (1, 1, 1) onto {sum(x) = 1, r.x = -0.1}
        rows = np.array([np.ones(3), r])
        kkt = np.block([[np.eye(3), rows.T], [rows, np.zeros((2, 2))]])
        expected = np.linalg.solve(kkt, np.array([1.0, 1.0, 1.0, 1.0, -0.1]))[:3]
        assert (expected > 0.1).all()
        np.testing.assert_allclose(res.x, expected, atol=1e-12)
        np.testing.assert_allclose(a_eq @ res.x, b_eq, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_a_full_step_goes_straight_to_the_multiplier_test(self, n):
        # phase 1 starts at 0 with every coordinate fixed: the first pivot
        # frees coordinate 0, and each later one takes a full step and, from
        # the same solve, frees the next coordinate or stops; solving the
        # working set again after each full step would take 2n + 1 pivots
        res = solve_qp(np.eye(n), -np.ones(n))
        np.testing.assert_array_equal(res.x, np.ones(n))
        assert res.n_pivots == n + 1

    def test_infeasible_problem_raises(self):
        a_in = np.array([[1.0], [-1.0]])
        b_in = np.array([2.0, -1.0])
        with pytest.raises(Infeasible):
            solve_qp(np.eye(1), np.zeros(1), a_in=a_in, b_in=b_in)
