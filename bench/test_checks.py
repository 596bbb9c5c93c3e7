"""Each answer check accepts a right answer and rejects a perturbed one.

Run from the repository root:

    python3 -m pytest -q bench/test_checks.py

The right answers come from the checks' own enumeration and leaf-level
operator, so these tests do not need the program.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import checks
import gen
import workloads


@pytest.fixture(scope="module")
def small():
    """A feasible two-stage, one-contract draw small enough to enumerate."""
    rng = np.random.default_rng(7)
    while True:
        inst = gen.draw(rng, "small", 1, 1, 1, branch=[0, 2, 2], zero_rates=True)
        sys = checks.dense(inst)
        if gen.feasible(inst, sys.rows, sys.levels):
            return inst, sys


@pytest.fixture(scope="module")
def optimum(small):
    inst, sys = small
    return checks.min_variance_by_enumeration(sys, inst.floor)


def test_certificate_accepts_the_enumerated_optimum(small, optimum):
    assert checks.certificate(small[1], *optimum) == []


@pytest.mark.parametrize("part, index, delta, expected", [
    (0, 0, 1e-3, "stationarity"),
    (0, 1, -1.0, "infeasible"),
    (1, 0, -1e-2, "negative multiplier"),
    (2, None, -1e3, "negative multiplier"),
    (3, -1, 1e-3, "stationarity"),
])
def test_certificate_rejects_a_perturbed_answer(small, optimum, part, index, delta, expected):
    answer = [np.array(a, dtype=float, copy=True) if np.ndim(a) else a for a in optimum]
    if index is None:
        answer[part] += delta
    else:
        answer[part][index] += delta
    problems = checks.certificate(small[1], *answer)
    assert any(expected in p for p in problems), problems


def test_complementarity_is_checked(small, optimum):
    x, lam, mu, nu = optimum
    nu = nu.copy()
    j = int(np.argmax(x))
    nu[j] += 1e-2
    # keep stationarity by moving the plan along the Gram system
    shift = np.linalg.lstsq(small[1].gram, small[1].weights * np.eye(x.size)[j] * 1e-2,
                            rcond=None)[0]
    problems = checks.certificate(small[1], x + shift, lam, mu, nu)
    assert any("complementarity" in p for p in problems), problems


def test_agreement_rejects_a_different_plan(optimum):
    x = optimum[0]
    assert checks.agree(x, x) == []
    assert checks.agree(x * (1 + 1e-3), x)


def test_coin_max_mean_by_enumeration():
    sys = checks.dense(workloads.coin())
    floor = checks.max_mean_by_enumeration(sys, 18 / 17, 100.0)
    assert floor == pytest.approx(3.0, abs=1e-9)
    x = checks.min_variance_by_enumeration(sys, floor)[0]
    assert x @ sys.gram @ x == pytest.approx(18 / 17, rel=1e-9)


def _answer(inst, x, lam, mu, nu, floor, cap_binding=True):
    stages, bounds, i = [], [], 0
    for k in range(inst.last_issue + 1):
        n = inst.n_nodes(k) * inst.n_contracts
        stages.append(SimpleNamespace(values=x[i:i + n].reshape(-1, inst.n_contracts)))
        bounds.append(SimpleNamespace(values=nu[i:i + n].reshape(-1, inst.n_contracts)))
        i += n
    return SimpleNamespace(plan=SimpleNamespace(stages=stages), roe_multipliers=lam,
                           mean_multiplier=mu, bound_multipliers=SimpleNamespace(stages=bounds),
                           mean_floor=floor, cap_binding=cap_binding)


def test_max_mean_check_rejects_a_wrong_floor():
    inst = workloads.coin()
    case = workloads.Case(inst, None, checks.dense(inst), cap=18 / 17, best_floor=3.0)
    right = checks.min_variance_by_enumeration(case.dense, 3.0)
    assert workloads._max_mean_problems(case, _answer(inst, *right, 3.0), 18 / 17) == []
    low = checks.min_variance_by_enumeration(case.dense, 2.9)
    problems = workloads._max_mean_problems(case, _answer(inst, *low, 2.9), 18 / 17)
    assert any("misses the cap" in p for p in problems)
    assert any("enumeration gives" in p for p in problems)


def test_frontier_shape():
    floors = [0.0, 1.0, 2.0, 3.0]
    assert checks.frontier_shape(floors, [0.0, 1.0, 4.0, 9.0]) == []
    assert checks.frontier_shape(floors, [0.0, 1.0, 0.5, 9.0])
    assert checks.frontier_shape(floors, [0.0, 3.0, 5.0, 6.0])


def test_moment_tables(small):
    inst = small[0]
    second, mean, cond = checks.exact_moments(inst)
    moments = SimpleNamespace(
        second_moment=second, mean=mean, cond_second_moment=cond,
        covariance=[s - np.outer(m, m) for s, m in zip(second, mean)])
    assert checks.moment_problems(inst, moments) == []
    moments.cond_second_moment = [[c.copy() for c in row] for row in cond]
    moments.cond_second_moment[0][1][0, 0] += 1e-6
    assert checks.moment_problems(inst, moments)


def test_generator_is_hypothesis_exact():
    """Conditional first and second moments of each generation equal the
    unconditional ones at its issue time (H1); mixed moments of two
    generations factorize at every issue-time depth (H3)."""
    inst = gen.draw(np.random.default_rng(3), "h", 2, 2, 2)
    h = inst.horizon
    p = inst.path_prob(h)
    for k in range(inst.last_issue + 1):
        u = inst.utility(k, h)
        prods = (u[:, :, None] * u[:, None, :]).reshape(u.shape[0], -1)
        for values in (u, prods):
            cond = gen.cond_expectation(inst, values, k)
            assert np.allclose(cond, p @ values, atol=1e-12)
        for l in range(inst.last_issue + 1):
            if l == k:
                continue
            v = inst.utility(l, h)
            mixed = (u[:, :, None] * v[:, None, :]).reshape(u.shape[0], -1)
            for n in range(inst.last_issue + 1):
                cu = gen.cond_expectation(inst, u, n)
                cv = gen.cond_expectation(inst, v, n)
                split = (cu[:, :, None] * cv[:, None, :]).reshape(cu.shape[0], -1)
                assert np.allclose(gen.cond_expectation(inst, mixed, n), split, atol=1e-12)


def test_leaf_operator_matches_the_dense_gram(small):
    """Two constructions of the same form: the leaf-level operator, and the
    Gram matrix built from the utility maps."""
    inst, sys = small
    rng = np.random.default_rng(1)
    plan = [rng.standard_normal((inst.n_nodes(k), 1)) for k in range(inst.last_issue + 1)]
    for centered, gram in ((True, sys.gram), (False, sys.raw_gram)):
        image = checks.flatten(checks.leaf_apply(inst, centered, plan))
        assert np.allclose(sys.weights * image, gram @ checks.flatten(plan), atol=1e-12)


def test_residual_check_rejects_a_perturbed_solve(small):
    inst = small[0]
    rng = np.random.default_rng(2)
    plan = [rng.standard_normal((inst.n_nodes(k), 1)) for k in range(inst.last_issue + 1)]
    shift = -1.0
    rhs = [im - shift * x for im, x in zip(checks.leaf_apply(inst, True, plan), plan)]
    assert checks.operator_residual(inst, True, shift, rhs, plan) < 1e-14
    plan[1][0] += 1e-6
    mine = checks.operator_residual(inst, True, shift, rhs, plan)
    assert mine > checks.RESIDUAL_TARGET
    assert checks.residual_problems(mine, mine) == []
    assert checks.residual_problems(mine, 1e-15)


def test_setup_check_rejects_a_false_hypothesis_report(small):
    inst = small[0]
    second, mean, cond = checks.exact_moments(inst)
    moments = SimpleNamespace(
        second_moment=second, mean=mean, cond_second_moment=cond,
        covariance=[s - np.outer(m, m) for s, m in zip(second, mean)])
    tree = SimpleNamespace(n_contracts=1, last_issue=1, settlement_lag=1)
    ready = workloads.Ready(workloads.Case(inst, None), SimpleNamespace(tree=tree), moments,
                            SimpleNamespace(all_ok=True), None)
    assert workloads.check_setup([ready]) == []
    ready.hypotheses = SimpleNamespace(all_ok=False)
    assert workloads.check_setup([ready])
