"""The two quadratic-form operators and their matrix realizations."""

import tracemalloc

import numpy as np
import pytest

from reinsqp import elimination, operators, portfolio, tree as tree_module
from reinsqp.contracts import ContractBook, compute_moments
from reinsqp.errors import DimensionMismatch
from reinsqp.operators import (
    Kind,
    apply,
    dense_matrix,
    images,
    leaf_scalar,
    representers,
)
from reinsqp.oracle import from_coords, to_coords
from reinsqp.portfolio import mean_final, utility_growth, utility_process
from reinsqp.tree import PortfolioProcess, inner_product

from conftest import _build_tree, random_instance
from test_portfolio import unit_plan


def basis_plan(tree, k, row, contract):
    stages = [
        tree.adapted(j, np.zeros((tree.n_nodes(j), tree.n_contracts)))
        for j in range(tree.last_issue + 1)
    ]
    stages[k].values[row, contract] = 1.0
    return PortfolioProcess(tree, stages)


def random_plan(tree, rng):
    return PortfolioProcess(
        tree,
        [
            tree.adapted(k, rng.standard_normal((tree.n_nodes(k), tree.n_contracts)))
            for k in range(tree.last_issue + 1)
        ],
    )


def ternary_tree_book(rng, last_issue, lag, n_contracts):
    """A 3-ary tree with random branch probabilities and random settled
    results; the Gram matrices need nothing else of a book."""
    horizon = last_issue + lag
    probs = [(lambda raw: raw / raw.sum())(rng.uniform(0.2, 1.0, 3)) for _ in range(horizon)]
    tree, _ = _build_tree(n_contracts, last_issue, lag, [3] * horizon, probs)
    leaves = tree.n_nodes(horizon)
    entries = {
        (k, horizon): rng.normal(1.0, 1.0, (leaves, n_contracts)) for k in range(last_issue + 1)
    }
    return tree, ContractBook(tree, entries)


def leaf_enumeration_gram(kind, tree, book):
    """Sum over leaves of p f_a f_b / (sqrt(p_a) sqrt(p_b)), with f_a the final
    utility of unit plan a, centered for the variance form."""
    rows = []
    for k in range(tree.last_issue + 1):
        for row in range(tree.n_nodes(k)):
            for contract in range(tree.n_contracts):
                plan = basis_plan(tree, k, row, contract)
                f = portfolio.final_utility_rv(tree, book, plan).values
                rows.append(f / np.sqrt(tree.path_prob[k][row]))
    rows = np.array(rows)
    p_leaf = tree.path_prob[tree.horizon]
    if kind is Kind.VARIANCE:
        rows = rows - (rows @ p_leaf)[:, None]
    return (rows * p_leaf) @ rows.T


def pair_block(kind, tree, book, k, l, x):
    """The (k, l) block on its own: lift stage-l positions to the leaves,
    weight by the settled results, center for the variance form, and
    condition that single pair back onto depth k."""
    scalar = np.sum(book.final_utility(l).values * tree.lift(x, tree.horizon).values, axis=1)
    if kind is Kind.VARIANCE:
        scalar = scalar - float(tree.path_prob[tree.horizon] @ scalar)
    prod = tree.adapted(tree.horizon, book.final_utility(k).values * scalar[:, None])
    return tree.conditional_expectation(prod, k).values


class TestApplyGoldens:
    def test_raw_image_of_stage0_basis(self, coin2):
        image = apply(Kind.SECOND_MOMENT, coin2.tree, coin2.book, basis_plan(coin2.tree, 0, 0, 0))
        np.testing.assert_allclose(image.stage(0).values, [[5.0]])
        np.testing.assert_allclose(image.stage(1).values, [[3.0], [1.0]])

    def test_centered_image_of_stage0_basis(self, coin2):
        # the centered operator differs by the rank-one mean term:
        # the mean representer is (2; 1, 1) and its pairing with the basis is 2
        image = apply(Kind.VARIANCE, coin2.tree, coin2.book, basis_plan(coin2.tree, 0, 0, 0))
        np.testing.assert_allclose(image.stage(0).values, [[1.0]])
        np.testing.assert_allclose(image.stage(1).values, [[1.0], [-1.0]])

    def test_quadratic_values_at_unit_plan(self, coin2):
        plan = unit_plan(coin2.tree)
        a_val = inner_product(coin2.tree, plan, apply(Kind.SECOND_MOMENT, coin2.tree, coin2.book, plan))
        b_val = inner_product(coin2.tree, plan, apply(Kind.VARIANCE, coin2.tree, coin2.book, plan))
        assert a_val == pytest.approx(11.0)
        assert b_val == pytest.approx(2.0)


class TestOperatorAlgebra:
    @pytest.mark.parametrize("kind", [Kind.SECOND_MOMENT, Kind.VARIANCE])
    def test_linearity(self, kind):
        rng = np.random.default_rng(3)
        inst = random_instance(rng)
        p, q = random_plan(inst.tree, rng), random_plan(inst.tree, rng)
        lhs = apply(kind, inst.tree, inst.book, 2.0 * p - 3.0 * q)
        rhs = 2.0 * apply(kind, inst.tree, inst.book, p) - 3.0 * apply(kind, inst.tree, inst.book, q)
        for k in range(inst.tree.last_issue + 1):
            np.testing.assert_allclose(lhs.stage(k).values, rhs.stage(k).values, atol=1e-12)

    @pytest.mark.parametrize("kind", [Kind.SECOND_MOMENT, Kind.VARIANCE])
    def test_self_adjoint(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(5):
            inst = random_instance(rng)
            p, q = random_plan(inst.tree, rng), random_plan(inst.tree, rng)
            lhs = inner_product(inst.tree, q, apply(kind, inst.tree, inst.book, p))
            rhs = inner_product(inst.tree, apply(kind, inst.tree, inst.book, q), p)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_apply_equals_block_sum(self):
        rng = np.random.default_rng(29)
        inst = random_instance(rng)
        tree, book = inst.tree, inst.book
        plan = random_plan(tree, rng)
        whole = apply(Kind.SECOND_MOMENT, tree, book, plan)
        for k in range(tree.last_issue + 1):
            acc = np.zeros_like(whole.stage(k).values)
            for l in range(tree.last_issue + 1):
                acc += pair_block(Kind.SECOND_MOMENT, tree, book, k, l, plan.stage(l))
            np.testing.assert_allclose(acc, whole.stage(k).values, atol=1e-10)

    @pytest.mark.parametrize("kind", [Kind.SECOND_MOMENT, Kind.VARIANCE])
    def test_stacked_images_equal_pairwise_blocks_bitwise(self, kind):
        rng = np.random.default_rng(53)
        for _ in range(5):
            inst = random_instance(rng)
            tree, book = inst.tree, inst.book
            plan = random_plan(tree, rng)
            stages = range(tree.last_issue + 1)
            scalars = [leaf_scalar(kind, tree, book, l, plan.stage(l)) for l in stages]
            stacked = images(tree, book, stages, np.column_stack(scalars))
            for k, per_scalar in zip(stages, stacked):
                for l, image in zip(stages, per_scalar):
                    want = pair_block(kind, tree, book, k, l, plan.stage(l))
                    assert np.array_equal(image, want)

    @pytest.mark.parametrize("kind", [Kind.SECOND_MOMENT, Kind.VARIANCE])
    def test_apply_and_inner_product_equal_a_per_stage_reference_bitwise(self, kind):
        """``apply`` concatenates its stage images into one ``flat`` and
        ``inner_product`` reads slices of ``flat``; both keep the bits of
        the stage-by-stage computation."""
        rng = np.random.default_rng(67)
        for _ in range(5):
            inst = random_instance(rng)
            tree, book = inst.tree, inst.book
            plan, other = random_plan(tree, rng), random_plan(tree, rng)
            utility = portfolio.final_utility_rv(tree, book, plan).values
            weight = operators._centered(kind, tree, utility)[:, None]
            image = apply(kind, tree, book, plan)
            product = 0.0
            for k in range(tree.last_issue + 1):
                settled = tree.adapted(tree.horizon, weight * book.settled[:, k])
                want = tree.conditional_expectation(settled, k).values
                assert np.array_equal(image.stage(k).values, want)
                rows = tree_module.row_dot(image.stage(k).values, other.stage(k).values)
                product += float(np.sum(tree.path_prob[k] * rows))
            assert inner_product(tree, image, other) == product

    @pytest.mark.parametrize(
        "stages", [range(0, 3), range(-1, 1), range(1, 1), range(0, 2, 2)]
    )
    def test_images_rejects_a_stage_range_off_the_issue_stages(self, coin2, stages):
        leaves = coin2.tree.n_nodes(coin2.tree.horizon)
        with pytest.raises(DimensionMismatch):
            images(coin2.tree, coin2.book, stages, np.ones((leaves, 1)))

    def test_images_rejects_scalars_off_the_leaves(self, coin2):
        leaves = coin2.tree.n_nodes(coin2.tree.horizon)
        with pytest.raises(DimensionMismatch, match="leaf scalars"):
            images(coin2.tree, coin2.book, range(2), np.ones((leaves + 1, 1)))

    def test_centered_is_raw_minus_mean_square(self):
        rng = np.random.default_rng(41)
        inst = random_instance(rng)
        plan = random_plan(inst.tree, rng)
        a_val = inner_product(inst.tree, plan, apply(Kind.SECOND_MOMENT, inst.tree, inst.book, plan))
        b_val = inner_product(inst.tree, plan, apply(Kind.VARIANCE, inst.tree, inst.book, plan))
        m_val = mean_final(inst.tree, inst.book, plan)
        assert a_val - b_val == pytest.approx(m_val**2, rel=1e-9, abs=1e-11)


class TestDenseMatrix:
    @pytest.mark.parametrize("kind", [Kind.SECOND_MOMENT, Kind.VARIANCE])
    def test_matches_apply_through_coordinates(self, kind):
        rng = np.random.default_rng(7)
        inst = random_instance(rng)
        tree, book = inst.tree, inst.book
        mat = dense_matrix(kind, tree, book)
        for _ in range(5):
            plan = random_plan(tree, rng)
            via_matrix = mat @ to_coords(tree, plan)
            via_apply = to_coords(tree, apply(kind, tree, book, plan))
            np.testing.assert_allclose(via_matrix, via_apply, atol=1e-10)

    def test_symmetry(self, coin2):
        inst = random_instance(np.random.default_rng(101))
        for tree, book in ((coin2.tree, coin2.book), (inst.tree, inst.book)):
            for kind in (Kind.SECOND_MOMENT, Kind.VARIANCE):
                mat = dense_matrix(kind, tree, book)
                assert np.array_equal(mat, mat.T)

    @pytest.mark.parametrize("kind", [Kind.SECOND_MOMENT, Kind.VARIANCE])
    def test_matches_leaf_enumeration_of_unit_plans(self, kind):
        rng = np.random.default_rng(101)
        cases = [random_instance(rng) for _ in range(20)]
        cases = [(inst.tree, inst.book) for inst in cases if inst.tree.n_contracts >= 2]
        cases.append(ternary_tree_book(np.random.default_rng(5), 2, 3, 3))
        for tree, book in cases:
            mat = dense_matrix(kind, tree, book)
            want = leaf_enumeration_gram(kind, tree, book)
            assert np.abs(mat - want).max() <= 1e-14 * np.abs(want).max()

    def test_memory_follows_the_leaf_factor_nonzeros(self):
        # deep5's shape, 2187 leaves and 242 coordinates: a dense
        # coordinates x leaves factor alone takes 4 MiB, most of the bound
        tree, book = ternary_tree_book(np.random.default_rng(0), 4, 3, 2)
        leaves = tree.n_nodes(tree.horizon)
        pairs = leaves * (5 * 2) ** 2
        dim = tree.plan_offsets[-1]
        for kind in (Kind.SECOND_MOMENT, Kind.VARIANCE):
            dense_matrix(kind, tree, book)
            tracemalloc.start()
            try:
                dense_matrix(kind, tree, book)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * (3 * pairs + 2 * dim**2)

    def test_difference_is_rank_one_mean_outer_product(self):
        rng = np.random.default_rng(13)
        inst = random_instance(rng)
        tree, book = inst.tree, inst.book
        a = dense_matrix(Kind.SECOND_MOMENT, tree, book)
        b = dense_matrix(Kind.VARIANCE, tree, book)
        reps = representers(tree, book, inst.config)
        mvec = to_coords(tree, reps.mean)
        np.testing.assert_allclose(a - b, np.outer(mvec, mvec), atol=1e-10)

    def test_coordinate_round_trip(self, coin2):
        rng = np.random.default_rng(2)
        assert coin2.tree.plan_offsets[-1] == 3
        x = rng.standard_normal(3)
        np.testing.assert_allclose(to_coords(coin2.tree, from_coords(coin2.tree, x)), x, atol=1e-14)

    def test_dimension_cap(self, coin2):
        from reinsqp.errors import NumericalFailure

        with pytest.raises(NumericalFailure, match="exceeds cap 2"):
            dense_matrix(Kind.VARIANCE, coin2.tree, coin2.book, max_dim=2)


class TestRepresenters:
    def test_mean_representer_realizes_the_mean(self, coin2):
        reps = representers(coin2.tree, coin2.book, coin2.config)
        np.testing.assert_allclose(reps.mean.stage(0).values, [[2.0]])
        np.testing.assert_allclose(reps.mean.stage(1).values, [[1.0], [1.0]])
        plan = unit_plan(coin2.tree)
        assert inner_product(coin2.tree, reps.mean, plan) == pytest.approx(3.0)

    def test_profitability_representers_realize_growth(self):
        rng = np.random.default_rng(19)
        inst = random_instance(rng)
        tree, book, config = inst.tree, inst.book, inst.config
        reps = representers(tree, book, config)
        for _ in range(3):
            plan = random_plan(tree, rng)
            for t in range(tree.horizon):
                direct = float(
                    tree.expectation(utility_growth(tree, book, plan, t))
                ) - float(config.roe_rates[t]) * float(
                    tree.expectation(utility_process(tree, book, plan, t))
                )
                paired = inner_product(tree, reps.roe[t], plan)
                assert paired == pytest.approx(direct, rel=1e-9, abs=1e-11)

    def test_combine_weights_rows(self, coin2):
        reps = representers(coin2.tree, coin2.book, coin2.config)
        combined = reps.combine(np.array([0.0, 2.0]), 1.0)
        manual = reps.mean + 2.0 * reps.roe[1]
        for k in range(2):
            np.testing.assert_allclose(
                combined.stage(k).values, manual.stage(k).values, atol=1e-14
            )

    def test_self_check_passes_on_valid_book(self, coin2):
        representers(
            coin2.tree, coin2.book, coin2.config, self_check=3,
            rng=np.random.default_rng(0),
        )

    def test_all_rows_order(self, coin2):
        reps = representers(coin2.tree, coin2.book, coin2.config)
        rows = reps.all_rows()
        assert len(rows) == coin2.tree.horizon + 1
        assert rows[-1] is reps.mean


def pairwise_leaf_scalar(kind, tree, book, l, x):
    """``leaf_scalar`` summing each leaf's contracts with ``np.sum``."""
    ul = book.final_utility(l).values
    return operators._centered(kind, tree, np.sum(ul * tree.lift(x, tree.horizon).values, axis=1))


def pairwise_images(tree, book, stages, scalars):
    """``images`` built pair by pair: one product per (stage, scalar) pair,
    set side by side with ``np.hstack`` and swept once."""
    n, m = tree.n_contracts, scalars.shape[1]
    blocks = [book.final_utility(k).values * scalars[:, j, None] for k in stages for j in range(m)]
    levels = tree.conditional_levels(np.hstack(blocks), tree.horizon, stages.start)
    out = []
    for i, level in enumerate(levels[: len(stages)]):
        cols = [level[:, (i * m + j) * n : (i * m + j + 1) * n] for j in range(m)]
        out.append(np.stack(cols))
    return out


@pytest.mark.parametrize("n_contracts", [2, 3])
def test_apply_and_solve_equal_the_pairwise_kernels_bitwise(monkeypatch, n_contracts):
    """The one-block leaf products and the left-to-right contract sums
    change no bit of ``apply`` or of a structured solve, in both forms and
    at shifts 0 and -1."""
    rng = np.random.default_rng(61 + n_contracts)

    def run(tree, book, moments, plan, rhs):
        out = []
        for kind in (Kind.SECOND_MOMENT, Kind.VARIANCE):
            out += apply(kind, tree, book, plan).stages
            for shift in (0.0, -1.0):
                res = elimination.solve(kind, tree, book, moments, shift, rhs)
                out += [*res.plan.stages, res.residual]
        return [np.asarray(getattr(x, "values", x)) for x in out]

    draws = []
    for _ in range(4):
        inst = random_instance(rng, n_contracts=n_contracts)
        tree, book = inst.tree, inst.book
        args = (tree, book, compute_moments(tree, book), random_plan(tree, rng), random_plan(tree, rng))
        draws.append((args, run(*args)))

    def row_sum(a, b):
        return np.sum(a * b, axis=1)

    monkeypatch.setattr(operators, "images", pairwise_images)
    monkeypatch.setattr(elimination, "images", pairwise_images)
    monkeypatch.setattr(elimination, "leaf_scalar", pairwise_leaf_scalar)
    monkeypatch.setattr(portfolio, "row_dot", row_sum)
    monkeypatch.setattr(tree_module, "row_dot", row_sum)
    for args, got in draws:
        want = run(*args)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
