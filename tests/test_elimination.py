"""Stage elimination: coefficients, structured solves, and spectra."""

import numpy as np
import pytest

from reinsqp.contracts import compute_moments
from reinsqp.elimination import (
    back_substitute,
    diag_block_inverse,
    elimination_coefficients,
    forward_eliminate,
    solve,
    spectral_sets,
    spectrum_distance,
)
from reinsqp.errors import SingularPivot
from reinsqp.operators import Kind, dense_matrix
from reinsqp.oracle import from_coords, to_coords
from reinsqp.tree import AdaptedVariable, PortfolioProcess, norm

from conftest import random_instance
from test_operators import pair_block, random_plan


@pytest.fixture
def coin2_moments(coin2):
    return compute_moments(coin2.tree, coin2.book)


class TestCoefficients:
    def test_recursion_values(self, coin2_moments):
        levels = elimination_coefficients(coin2_moments, shift=0.0).levels
        np.testing.assert_allclose([lv.mean_quad for lv in levels], [1.6, 0.5])
        np.testing.assert_allclose([lv.block_scale for lv in levels], [0.5, 1.0])
        np.testing.assert_allclose([lv.mean_weight for lv in levels], [0.5, 0.0])
        assert [lv.n for lv in levels] == [0, 1]

    def test_pivot_tables(self, coin2_moments):
        levels = elimination_coefficients(coin2_moments, shift=0.0).levels
        np.testing.assert_allclose(levels[1].pivots[0], [[5.0]])
        np.testing.assert_allclose(levels[1].pivots[1], [[2.0]])
        np.testing.assert_allclose(levels[0].pivots[0], [[2.5]])

    def test_centered_pivots_via_rank_one_correction(self, coin2_moments):
        levels = elimination_coefficients(coin2_moments, shift=0.0).levels
        np.testing.assert_allclose(levels[1].centered, [[1.0]])
        np.testing.assert_allclose(levels[0].centered, [[0.5]])
        # both condition numbers come with the level
        assert [(lv.cond, lv.centered_cond) for lv in levels] == [(1.0, 1.0), (1.0, 1.0)]

    def test_shift_enters_top_level_only(self, coin2_moments):
        shifted = elimination_coefficients(coin2_moments, shift=0.25)
        np.testing.assert_allclose(shifted.levels[1].pivots[1], [[1.75]])
        # downstream pivots then differ through the recursion, not by
        # another shift subtraction
        d1 = 1.0 / 1.75
        np.testing.assert_allclose(
            shifted.levels[0].pivots[0], [[5.0 - 0.25 - d1 * 5.0]]
        )

    def test_singular_pivot_raises(self, coin2_moments):
        with pytest.raises(SingularPivot):
            elimination_coefficients(coin2_moments, shift=2.0)


class TestSpectralSets:
    def test_coin_sets(self, coin2_moments):
        sets = spectral_sets(coin2_moments)
        np.testing.assert_allclose(sets.raw, [2.0, 2.5])
        # the centered candidate set carries the raw one along
        np.testing.assert_allclose(sets.centered, [0.5, 1.0, 2.0, 2.5])

    def test_levels_are_the_elimination_pivots(self):
        # at shift 0 the raw spectra are those of the solver's own level
        # pivots, bit for bit, from the top level down
        rng = np.random.default_rng(101)
        for _ in range(20):
            inst = random_instance(rng)
            mom = compute_moments(inst.tree, inst.book)
            coeffs = elimination_coefficients(mom, 0.0)
            sets = spectral_sets(mom, 0.0)
            kmax = mom.last_issue
            assert len(sets.levels_raw) == kmax + 1
            for n, eigs in zip(range(kmax, -1, -1), sets.levels_raw):
                pivot = coeffs.levels[n].pivots[n]
                assert np.array_equal(eigs, np.linalg.eigvalsh(0.5 * (pivot + pivot.T)))

    def test_sets_end_where_the_elimination_raises(self):
        # a shift in the top level's spectrum: the spectra stop at that
        # level, which holds the shift, and the solver raises there
        rng = np.random.default_rng(101)
        for _ in range(20):
            inst = random_instance(rng)
            mom = compute_moments(inst.tree, inst.book)
            kmax = mom.last_issue
            shift = float(np.linalg.eigvalsh(mom.second_moment[kmax])[0])
            sets = spectral_sets(mom, shift)
            assert len(sets.levels_raw) == len(sets.levels_centered) == 1
            assert np.abs(sets.levels_raw[0] - shift).min() <= 1e-12 * abs(shift)
            with pytest.raises(SingularPivot) as exc:
                elimination_coefficients(mom, shift)
            assert exc.value.level == kmax

    def test_spectra_compute_one_condition_number_per_level(self, monkeypatch):
        # the raw pivot's, which stops the recursion; the spectra never
        # read the centered pivot's
        rng = np.random.default_rng(101)
        draws = [random_instance(rng) for _ in range(8)]
        calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda m: calls.append(1) or cond(m))
        for inst in draws:
            mom = compute_moments(inst.tree, inst.book)
            top = float(np.linalg.eigvalsh(mom.second_moment[mom.last_issue])[0])
            for shift in (0.0, -0.5, top):
                calls.clear()
                n_levels = len(spectral_sets(mom, shift).levels_raw)
                assert len(calls) == n_levels
                for kind in (Kind.SECOND_MOMENT, Kind.VARIANCE):
                    calls.clear()
                    spectrum_distance(mom, shift, kind)
                    assert len(calls) == n_levels
            assert n_levels == 1

    def test_dense_eigenvalues_land_in_the_sets(self, coin2):
        # membership is judged with the recursion scalars re-evaluated at
        # each candidate, which is what spectrum_distance does
        mom = compute_moments(coin2.tree, coin2.book)
        a = dense_matrix(Kind.SECOND_MOMENT, coin2.tree, coin2.book)
        b = dense_matrix(Kind.VARIANCE, coin2.tree, coin2.book)
        for eig in np.linalg.eigvalsh(a):
            assert spectrum_distance(mom, float(eig), Kind.SECOND_MOMENT) < 1e-9
        for eig in np.linalg.eigvalsh(b):
            assert spectrum_distance(mom, float(eig), Kind.VARIANCE) < 1e-9

    def test_distance_positive_between_eigenvalues(self, coin2):
        mom = compute_moments(coin2.tree, coin2.book)
        a = dense_matrix(Kind.SECOND_MOMENT, coin2.tree, coin2.book)
        b = dense_matrix(Kind.VARIANCE, coin2.tree, coin2.book)
        for mat, kind in ((a, Kind.SECOND_MOMENT), (b, Kind.VARIANCE)):
            eigs = np.unique(np.round(np.linalg.eigvalsh(mat), 9))
            for lo, hi in zip(eigs, eigs[1:]):
                mid = 0.5 * (lo + hi)
                assert spectrum_distance(mom, float(mid), kind) > 1e-3


class TestStructuredSolve:
    @pytest.mark.parametrize("kind", [Kind.SECOND_MOMENT, Kind.VARIANCE])
    def test_matches_dense_solve(self, kind):
        rng = np.random.default_rng(31)
        for _ in range(5):
            inst = random_instance(rng)
            tree, book = inst.tree, inst.book
            mom = compute_moments(tree, book)
            rhs = random_plan(tree, rng)
            result = solve(kind, tree, book, mom, 0.0, rhs)
            assert result.residual < 1e-9
            mat = dense_matrix(kind, tree, book)
            x = np.linalg.solve(mat, to_coords(tree, rhs))
            expect = from_coords(tree, x)
            dev = norm(tree, result.plan - expect) / max(norm(tree, expect), 1e-30)
            assert dev < 1e-8

    def test_shifted_solve(self):
        rng = np.random.default_rng(37)
        inst = random_instance(rng)
        tree, book = inst.tree, inst.book
        mom = compute_moments(tree, book)
        rhs = random_plan(tree, rng)
        shift = -0.75
        result = solve(Kind.VARIANCE, tree, book, mom, shift, rhs)
        mat = dense_matrix(Kind.VARIANCE, tree, book) - shift * np.eye(
            to_coords(tree, rhs).shape[0]
        )
        expect = from_coords(tree, np.linalg.solve(mat, to_coords(tree, rhs)))
        assert norm(tree, result.plan - expect) / norm(tree, expect) < 1e-8

    def test_forward_then_back_equals_solve(self, coin2, coin2_moments):
        rng = np.random.default_rng(5)
        tree, book = coin2.tree, coin2.book
        coeffs = elimination_coefficients(coin2_moments, 0.0)
        rhs = random_plan(tree, rng)
        xi = forward_eliminate(Kind.VARIANCE, coeffs, tree, book, rhs)
        plan = back_substitute(Kind.VARIANCE, coeffs, tree, book, xi)
        direct = solve(Kind.VARIANCE, tree, book, coin2_moments, 0.0, rhs)
        for k in range(tree.last_issue + 1):
            np.testing.assert_allclose(
                plan.stage(k).values, direct.plan.stage(k).values, atol=1e-10
            )

    @pytest.mark.parametrize("kind", [Kind.SECOND_MOMENT, Kind.VARIANCE])
    def test_sweeps_equal_pairwise_blocks_bitwise(self, kind):
        """Forward elimination and back substitution, stage sweeps and all,
        reproduce the per-pair block loops bit for bit."""
        rng = np.random.default_rng(59)
        for _ in range(5):
            inst = random_instance(rng)
            tree, book = inst.tree, inst.book
            coeffs = elimination_coefficients(compute_moments(tree, book), -0.4)
            rhs = random_plan(tree, rng)

            xi = rhs.copy()
            for n in range(tree.last_issue, 0, -1):
                y = diag_block_inverse(kind, coeffs.levels[n], tree, xi.stage(n))
                for k in range(n):
                    xi.stage(k).values[...] -= coeffs.levels[n].block_scale * pair_block(
                        kind, tree, book, k, n, y
                    )
            got = forward_eliminate(kind, coeffs, tree, book, rhs)
            for a, b in zip(got.stages, xi.stages):
                assert np.array_equal(a.values, b.values)

            plan = PortfolioProcess.zeros(tree)
            for k in range(tree.last_issue + 1):
                acc = xi.stage(k).values.copy()
                for l in range(k):
                    acc -= coeffs.levels[k].block_scale * pair_block(
                        kind, tree, book, k, l, plan.stage(l)
                    )
                plan.stage(k).values[...] = diag_block_inverse(
                    kind, coeffs.levels[k], tree, AdaptedVariable(k, acc)
                ).values
            got = back_substitute(kind, coeffs, tree, book, xi)
            for a, b in zip(got.stages, plan.stages):
                assert np.array_equal(a.values, b.values)

    def test_coin_solve_by_hand(self, coin2, coin2_moments):
        # B maps (x; y, z) to (x + y/2 - z/2; x/2 + y/2 + ..., ...); the
        # simplest hand check is B(plan) == rhs in coordinates
        tree, book = coin2.tree, coin2.book
        rhs = from_coords(tree, np.array([1.0, 0.0, 0.0]))
        result = solve(Kind.VARIANCE, tree, book, coin2_moments, 0.0, rhs)
        b = dense_matrix(Kind.VARIANCE, tree, book)
        np.testing.assert_allclose(
            b @ to_coords(tree, result.plan), [1.0, 0.0, 0.0], atol=1e-10
        )

    def test_solve_near_eigenvalue_raises(self, coin2, coin2_moments):
        rng = np.random.default_rng(9)
        rhs = random_plan(coin2.tree, rng)
        with pytest.raises(SingularPivot):
            solve(Kind.SECOND_MOMENT, coin2.tree, coin2.book, coin2_moments, 2.0, rhs)


class TestDiagBlockInverse:
    def forward(self, kind, level, tree, x):
        n, da = level.n, level.pivots[level.n]
        if kind is Kind.SECOND_MOMENT:
            return tree.adapted(n, (da @ x.values.T).T)
        xbar = tree.path_prob[n] @ x.values
        centered = x.values - xbar[None, :]
        out = (da @ centered.T).T + (level.centered @ xbar)[None, :]
        return tree.adapted(n, out)

    def test_singular_centered_pivot_raises_at_every_use(self, coin2, coin2_moments):
        # at shift 1 the raw level-1 pivot is 1 but the centered one is 0
        level = elimination_coefficients(coin2_moments, shift=1.0).levels[1]
        x = coin2.tree.adapted(1, np.ones((2, 1)))
        for _ in range(2):
            with pytest.raises(SingularPivot) as exc:
                diag_block_inverse(Kind.VARIANCE, level, coin2.tree, x)
            assert exc.value.level == 1 and exc.value.cond == np.inf
        back = diag_block_inverse(Kind.SECOND_MOMENT, level, coin2.tree, x)
        np.testing.assert_allclose(back.values, x.values)

    def test_solves_given_coefficients_compute_no_condition_number(self, monkeypatch):
        # both condition numbers of every level are computed while the
        # coefficients are built; the solves only read them
        rng = np.random.default_rng(47)
        inst = random_instance(rng, t_bar=2)
        tree, book = inst.tree, inst.book
        mom = compute_moments(tree, book)
        coeffs = elimination_coefficients(mom, shift=-0.3)
        calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda m: calls.append(1) or cond(m))
        for _ in range(3):
            rhs = random_plan(tree, rng)
            for kind in (Kind.SECOND_MOMENT, Kind.VARIANCE):
                solve(kind, tree, book, mom, -0.3, rhs, coeffs=coeffs)
        assert calls == []

    @pytest.mark.parametrize("kind", [Kind.SECOND_MOMENT, Kind.VARIANCE])
    def test_round_trip(self, kind):
        rng = np.random.default_rng(43)
        inst = random_instance(rng)
        tree = inst.tree
        mom = compute_moments(tree, inst.book)
        coeffs = elimination_coefficients(mom, shift=-0.3)
        for level in coeffs.levels:
            x = tree.adapted(
                level.n, rng.standard_normal((tree.n_nodes(level.n), tree.n_contracts))
            )
            back = diag_block_inverse(kind, level, tree, self.forward(kind, level, tree, x))
            np.testing.assert_allclose(back.values, x.values, atol=1e-10)
