"""Tree structure, validation, and the conditional calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reinsqp.errors import DimensionMismatch, InputError
from reinsqp.tree import (
    NodeSpec,
    PortfolioProcess,
    ScenarioTree,
    inner_product,
    norm,
    row_dot,
    validate_structure,
)

from conftest import random_instance


def two_period_coin_nodes() -> list[NodeSpec]:
    return [
        NodeSpec(0, None, 0, 1.0),
        NodeSpec(1, 0, 1, 0.5),
        NodeSpec(2, 0, 1, 0.5),
        NodeSpec(3, 1, 2, 0.5),
        NodeSpec(4, 1, 2, 0.5),
        NodeSpec(5, 2, 2, 0.5),
        NodeSpec(6, 2, 2, 0.5),
    ]


def two_period_coin() -> ScenarioTree:
    return ScenarioTree(
        n_contracts=1, last_issue=1, settlement_lag=1, nodes=two_period_coin_nodes()
    )


class TestStructure:
    def test_basic_counts(self):
        tree = two_period_coin()
        assert tree.horizon == 2
        assert tree.n_nodes(0) == 1
        assert tree.n_nodes(1) == 2
        assert tree.n_nodes(2) == 4

    def test_path_probabilities(self):
        tree = two_period_coin()
        np.testing.assert_allclose(tree.path_prob[1], [0.5, 0.5])
        np.testing.assert_allclose(tree.path_prob[2], [0.25] * 4)

    def test_parent_rows_link_depths(self):
        tree = two_period_coin()
        # leaves 3,4 descend from node 1 (row 0), leaves 5,6 from node 2
        np.testing.assert_array_equal(tree.parent_row[2], [0, 0, 1, 1])


    def test_node_order_does_not_matter(self):
        # depth-major, ascending id, whatever order the specs come in
        nodes = two_period_coin_nodes()
        want = ScenarioTree(1, 1, 1, nodes)
        got = ScenarioTree(1, 1, 1, nodes[::-1])
        for name in ("node_ids", "cond_prob", "parent_row", "path_prob"):
            for a, b in zip(getattr(got, name), getattr(want, name)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestValidation:
    def test_clean_tree_passes(self):
        assert validate_structure(1, 1, 1, two_period_coin_nodes()) == []

    def test_all_problems_collected(self):
        # three independent defects: bad root prob, orphan parent, prob sum
        nodes = [
            NodeSpec(0, None, 0, 0.7),
            NodeSpec(1, 0, 1, 0.6),
            NodeSpec(2, 9, 1, 0.6),
        ]
        problems = validate_structure(1, 0, 1, nodes)
        assert len(problems) >= 3

    def test_duplicate_ids_short_circuit(self):
        nodes = [NodeSpec(0, None, 0, 1.0), NodeSpec(0, None, 0, 1.0)]
        problems = validate_structure(1, 0, 0, nodes)
        assert problems == ["settlement_lag must be >= 1, got 0", "node ids are not unique"]

    def test_childless_interior_node(self):
        nodes = [
            NodeSpec(0, None, 0, 1.0),
            NodeSpec(1, 0, 1, 1.0),
            NodeSpec(2, 1, 2, 1.0),
        ]
        # horizon 3 but the deepest node sits at depth 2
        problems = validate_structure(1, 1, 2, nodes)
        assert any("no children" in p for p in problems)

    def test_sibling_probs_must_sum_to_one(self):
        nodes = [
            NodeSpec(0, None, 0, 1.0),
            NodeSpec(1, 0, 1, 0.5),
            NodeSpec(2, 0, 1, 0.4),
        ]
        problems = validate_structure(1, 0, 1, nodes)
        assert problems == ["children of node 0 have prob sum 0.9, expected 1"]

    def test_build_raises_every_problem(self):
        nodes = [NodeSpec(0, None, 0, 0.5)]
        with pytest.raises(InputError) as err:
            ScenarioTree.build(1, 0, 0, nodes)
        assert str(err.value) == (
            "invalid scenario tree: settlement_lag must be >= 1, got 0; "
            "root node 0 has prob 0.5, expected 1"
        )


class TestAdaptedCalculus:
    def test_expectation_scalar(self):
        tree = two_period_coin()
        x = tree.adapted(2, np.array([3.0, 3.0, 1.0, 1.0]))
        assert tree.expectation(x) == pytest.approx(2.0)

    def test_conditional_expectation_one_level(self):
        tree = two_period_coin()
        x = tree.adapted(2, np.array([3.0, 3.0, 1.0, 1.0]))
        cond = tree.conditional_expectation(x, 1)
        np.testing.assert_allclose(cond.values, [3.0, 1.0])

    def test_lift_replicates_to_descendants(self):
        tree = two_period_coin()
        x = tree.adapted(1, np.array([3.0, 1.0]))
        lifted = tree.lift(x, 2)
        np.testing.assert_allclose(lifted.values, [3.0, 3.0, 1.0, 1.0])

    def test_lift_then_condition_is_identity(self):
        tree = two_period_coin()
        x = tree.adapted(1, np.array([2.0, -1.0]))
        back = tree.conditional_expectation(tree.lift(x, 2), 1)
        np.testing.assert_allclose(back.values, x.values)

    def test_vector_components_handled(self):
        tree = two_period_coin()
        x = tree.adapted(2, np.array([[1.0, 2.0]] * 4))
        assert x.is_vector
        ex = tree.expectation(x)
        np.testing.assert_allclose(ex, [1.0, 2.0])

    def test_wrong_length_rejected(self):
        tree = two_period_coin()
        with pytest.raises(DimensionMismatch):
            tree.adapted(1, np.array([1.0, 2.0, 3.0]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), depth_gap=st.integers(1, 2))
def test_tower_property(seed, depth_gap):
    """Conditioning twice at increasing depths equals conditioning once."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    tree = inst.tree
    hi = tree.horizon
    lo = max(0, hi - depth_gap)
    mid = (lo + hi) // 2
    x = tree.adapted(hi, rng.standard_normal(tree.n_nodes(hi)))
    direct = tree.conditional_expectation(x, lo)
    staged = tree.conditional_expectation(tree.conditional_expectation(x, mid), lo)
    np.testing.assert_allclose(staged.values, direct.values, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_conditional_expectation_is_projection(seed):
    """E(Y (X - E(X|F_n))) = 0 for any F_n-measurable Y."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng)
    tree = inst.tree
    n = rng.integers(0, tree.horizon)
    x = tree.adapted(tree.horizon, rng.standard_normal(tree.n_nodes(tree.horizon)))
    y = tree.adapted(n, rng.standard_normal(tree.n_nodes(n)))
    resid = x.values - tree.lift(tree.conditional_expectation(x, n), tree.horizon).values
    y_lifted = tree.lift(y, tree.horizon).values
    assert abs(tree.path_prob[tree.horizon] @ (resid * y_lifted)) < 1e-12


def irregular_tree(rng: np.random.Generator) -> tuple[ScenarioTree, list[NodeSpec]]:
    """A tree with mixed branching (one to four children), sparse node ids
    in no particular order, and the node list shuffled."""
    last_issue, lag = int(rng.integers(0, 3)), int(rng.integers(1, 3))
    ids = iter(rng.permutation(10_000)[:2_000].tolist())
    root = NodeSpec(next(ids), None, 0, 1.0)
    nodes, level = [root], [root]
    for d in range(1, last_issue + lag + 1):
        nxt = []
        for parent in level:
            probs = rng.uniform(0.1, 1.0, int(rng.integers(1, 5)))
            for p in probs / probs.sum():
                nxt.append(NodeSpec(next(ids), parent.id, d, float(p)))
        nodes += nxt
        level = nxt
    nodes = [nodes[i] for i in rng.permutation(len(nodes))]
    return ScenarioTree.build(1, last_issue, lag, nodes), nodes


def _by_depth(nodes: list[NodeSpec], depth: int) -> list[NodeSpec]:
    return sorted((n for n in nodes if n.depth == depth), key=lambda n: n.id)


def reference_condition(nodes, values, hi, lo):
    """Node-by-node conditioning: every parent adds up its children's
    probability-weighted values, children in ascending id order."""
    vals = {n.id: values[i] for i, n in enumerate(_by_depth(nodes, hi))}
    for d in range(hi, lo, -1):
        acc = {n.id: np.zeros(values.shape[1:]) for n in _by_depth(nodes, d - 1)}
        for n in _by_depth(nodes, d):
            acc[n.parent] = acc[n.parent] + n.prob * vals[n.id]
        vals = acc
    return np.array([vals[n.id] for n in _by_depth(nodes, lo)])


def reference_lift(nodes, values, lo, hi):
    """Node-by-node lifting: every node takes its depth-``lo`` ancestor's value."""
    parent = {n.id: n.parent for n in nodes}
    row = {n.id: i for i, n in enumerate(_by_depth(nodes, lo))}
    out = []
    for n in _by_depth(nodes, hi):
        node = n.id
        for _ in range(hi - lo):
            node = parent[node]
        out.append(values[row[node]])
    return np.array(out)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), width=st.sampled_from([None, 1, 3]))
def test_calculus_matches_node_loops_bitwise(seed, width):
    """Conditioning, stacked conditioning and lifting reproduce the plain
    node loops bit for bit, on scalar (``width=None``) and vector values."""
    rng = np.random.default_rng(seed)
    tree, nodes = irregular_tree(rng)
    hi = tree.horizon

    def draw(depth):
        shape = (tree.n_nodes(depth),) + (() if width is None else (width,))
        return rng.standard_normal(shape)

    for lo in range(hi + 1):
        x = draw(hi)
        got = tree.conditional_expectation(tree.adapted(hi, x), lo).values
        assert np.array_equal(got, reference_condition(nodes, x, hi, lo))
        y = draw(lo)
        got = tree.lift(tree.adapted(lo, y), hi).values
        assert np.array_equal(got, reference_lift(nodes, y, lo, hi))

    targets = [int(t) for t in rng.integers(0, hi + 1, 4)]
    blocks = [draw(hi) for _ in targets]
    lowest = min(targets)
    cols = [b.reshape(tree.n_nodes(hi), -1) for b in blocks]
    w = cols[0].shape[1]
    # one block of all the columns, swept once; each part read off at its target
    levels = tree.conditional_levels(np.column_stack(cols), hi, lowest)
    for i, (block, target) in enumerate(zip(blocks, targets)):
        got = levels[target - lowest][:, i * w : (i + 1) * w].reshape((-1, *block.shape[1:]))
        assert np.array_equal(got, reference_condition(nodes, block, hi, target))


@pytest.mark.parametrize("n", range(1, 8))
def test_row_dot_is_numpy_row_sum_bitwise(n):
    """Left-to-right column sums are numpy's own row sums below 8 columns,
    on values spread over 200 orders of magnitude."""
    rng = np.random.default_rng(n)
    a, b = (
        rng.standard_normal((2000, n)) * 10.0 ** rng.integers(-100, 100, (2000, n))
        for _ in range(2)
    )
    assert np.array_equal(row_dot(a, b), np.sum(a * b, axis=1))


class TestPortfolioProcess:
    def make(self, tree, a, b):
        return PortfolioProcess(
            tree,
            [tree.adapted(0, np.array([[a]])), tree.adapted(1, np.array([[b], [b]]))],
        )

    def test_arithmetic(self):
        tree = two_period_coin()
        p = self.make(tree, 1.0, 2.0)
        q = self.make(tree, 3.0, -1.0)
        s = 2.0 * p - q
        np.testing.assert_allclose(s.stage(0).values, [[-1.0]])
        np.testing.assert_allclose(s.stage(1).values, [[5.0], [5.0]])

    def test_min_and_max_abs(self):
        tree = two_period_coin()
        p = self.make(tree, -1.5, 2.0)
        assert p.min_value() == pytest.approx(-1.5)
        assert p.max_abs() == pytest.approx(2.0)

    def test_copy_is_independent(self):
        tree = two_period_coin()
        p = self.make(tree, 1.0, 1.0)
        q = p.copy()
        q.stage(0).values[0] = 99.0
        assert p.stage(0).values[0] == pytest.approx(1.0)

    def test_inner_product_weights_by_path_prob(self):
        tree = two_period_coin()
        p = self.make(tree, 1.0, 1.0)
        # stage 0 contributes 1, stage 1 contributes .5 + .5
        assert inner_product(tree, p, p) == pytest.approx(2.0)
        assert norm(tree, p) == pytest.approx(np.sqrt(2.0))

    def test_inner_product_symmetry_random(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng)
        tree = inst.tree
        def rand_plan():
            return PortfolioProcess(
                tree,
                [
                    tree.adapted(
                        k, rng.standard_normal((tree.n_nodes(k), tree.n_contracts))
                    )
                    for k in range(tree.last_issue + 1)
                ],
            )
        for _ in range(5):
            p, q = rand_plan(), rand_plan()
            assert inner_product(tree, p, q) == pytest.approx(
                inner_product(tree, q, p), rel=1e-12
            )


class TestFlatPlan:
    """A plan is one flat array; its stages are views into it."""

    @pytest.fixture(scope="class")
    def trees(self):
        rng = np.random.default_rng(41)
        return [random_instance(rng).tree for _ in range(4)]

    @staticmethod
    def arrays(tree, rng, order="C"):
        return [np.asarray(rng.standard_normal((tree.n_nodes(k), tree.n_contracts)), order=order)
                for k in range(tree.last_issue + 1)]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_stages_are_contiguous_views_of_flat(self, trees, order):
        rng = np.random.default_rng(3)
        for tree in trees:
            arrays = self.arrays(tree, rng, order)
            plan = PortfolioProcess.from_arrays(tree, arrays)
            assert plan.flat.shape == (tree.plan_offsets[-1],)
            for k, stage in enumerate(plan.stages):
                start, stop = tree.plan_offsets[k], tree.plan_offsets[k + 1]
                assert stage.values.flags.c_contiguous
                assert np.shares_memory(stage.values, plan.flat[start:stop])
                assert np.array_equal(stage.values.ravel(), plan.flat[start:stop])
                assert np.array_equal(stage.values, arrays[k])
                stage.values[-1, -1] = 7.5
                assert plan.flat[stop - 1] == 7.5

    def test_the_list_constructor_copies_and_stages_stay_bound(self, trees):
        rng = np.random.default_rng(4)
        tree = trees[0]
        stages = [tree.adapted(k, a) for k, a in enumerate(self.arrays(tree, rng))]
        plan = PortfolioProcess(tree, stages)
        before = plan.flat.copy()
        stages[0].values[...] = 99.0
        assert np.array_equal(plan.flat, before)
        assert not np.shares_memory(stages[0].values, plan.flat)
        with pytest.raises(TypeError):
            plan.stages[0] = stages[0]
        with pytest.raises(AttributeError):
            plan.stages = stages

    def test_arithmetic_and_coordinates_match_a_per_stage_reference(self, trees):
        from reinsqp.oracle import from_coords, to_coords

        rng = np.random.default_rng(5)
        for tree in trees:
            a, b = self.arrays(tree, rng), self.arrays(tree, rng, "F")
            p, q = PortfolioProcess.from_arrays(tree, a), PortfolioProcess.from_arrays(tree, b)
            roots = [np.sqrt(tree.path_prob[k])[:, None] for k in range(len(a))]
            coords = rng.standard_normal(tree.plan_offsets[-1])
            blocks = np.split(coords, tree.plan_offsets[1:-1])
            cases = [
                (p + q, [x + y for x, y in zip(a, b)]),
                (p - q, [x - y for x, y in zip(a, b)]),
                (p * 1.7, [x * 1.7 for x in a]),
                (0.3 * q, [y * 0.3 for y in b]),
                (p.copy(), a),
                (from_coords(tree, coords),
                 [c.reshape(x.shape) / r for c, x, r in zip(blocks, a, roots)]),
            ]
            for plan, want in cases:
                for stage, ref in zip(plan.stages, want, strict=True):
                    assert np.array_equal(stage.values, ref)
            want = np.concatenate([(x * r).ravel() for x, r in zip(a, roots)])
            assert np.array_equal(to_coords(tree, p), want)

    def test_copy_owns_its_flat(self, trees):
        plan = PortfolioProcess.zeros(trees[1])
        twin = plan.copy()
        twin.stage(0).values[...] = -1.0
        assert plan.min_value() == plan.max_abs() == 0.0
        assert twin.min_value() == -1.0 and twin.max_abs() == 1.0

    def test_coordinates_of_the_wrong_shape_are_bad_input(self, trees):
        from reinsqp.oracle import from_coords

        tree = trees[0]
        dim = sum(tree.n_nodes(k) * tree.n_contracts for k in range(tree.last_issue + 1))
        with pytest.raises(InputError) as exc:
            from_coords(tree, np.zeros(dim + 1))
        assert str(exc.value) == f"coordinate vector has shape ({dim + 1},), wanted ({dim},)"
