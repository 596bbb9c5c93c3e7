"""Contract books, moment tables, and the model hypothesis checks."""

import numpy as np
import pytest

from reinsqp.contracts import (
    ContractBook,
    check_h1,
    check_h2,
    check_h3,
    check_hypotheses,
    compute_moments,
)
from reinsqp.errors import DimensionMismatch, InputError

from conftest import random_instance
from test_tree import two_period_coin


class TestBookAccess:
    def test_zero_before_and_at_issue(self, coin2):
        book = coin2.book
        # generation 1 has no result at its own issue time
        np.testing.assert_array_equal(book.utility(1, 1).values, np.zeros((2, 1)))
        np.testing.assert_array_equal(book.utility(0, 0).values, np.zeros((1, 1)))

    def test_missing_interim_defaults_to_zero(self, coin2):
        np.testing.assert_array_equal(coin2.book.utility(0, 1).values, np.zeros((2, 1)))

    def test_final_utility_values(self, coin2):
        u0 = coin2.book.final_utility(0)
        np.testing.assert_allclose(u0.values[:, 0], [3.0, 3.0, 1.0, 1.0])
        u1 = coin2.book.final_utility(1)
        np.testing.assert_allclose(u1.values[:, 0], [2.0, 0.0, 2.0, 0.0])

    def test_entry_at_issue_time_rejected(self):
        tree = two_period_coin()
        with pytest.raises(InputError):
            ContractBook(tree, {(1, 1): np.zeros((2, 1))})

    def test_wrong_shape_rejected(self):
        tree = two_period_coin()
        with pytest.raises(DimensionMismatch):
            ContractBook(tree, {(0, 2): np.zeros((3, 1))})

    def test_bad_time_rejected(self):
        tree = two_period_coin()
        with pytest.raises(InputError):
            ContractBook(tree, {(0, 5): np.zeros((4, 1))})
        with pytest.raises(InputError):
            tree_book = ContractBook(tree, {})
            tree_book.utility(0, 5)

    def test_stored_entries_round_trip(self, coin2):
        stored = coin2.book.stored_entries()
        assert set(stored) == {(0, 2), (1, 2)}
        np.testing.assert_allclose(stored[(0, 2)][:, 0], [3.0, 3.0, 1.0, 1.0])


class TestMomentTables:
    def test_unconditional_moments(self, coin2):
        mom = compute_moments(coin2.tree, coin2.book)
        assert mom.last_issue == 1
        np.testing.assert_allclose(mom.second_moment[0], [[5.0]])
        np.testing.assert_allclose(mom.second_moment[1], [[2.0]])
        np.testing.assert_allclose(mom.mean[0], [2.0])
        np.testing.assert_allclose(mom.mean[1], [1.0])
        np.testing.assert_allclose(mom.covariance[0], [[1.0]])
        np.testing.assert_allclose(mom.covariance[1], [[1.0]])

    def test_conditional_tables(self, coin2):
        mom = compute_moments(coin2.tree, coin2.book)
        # E(u(0)|F_1) takes values 3 and 1, so its raw second moment is 5
        np.testing.assert_allclose(mom.cond_second_moment[1][0], [[5.0]])
        # conditioning at the trivial depth collapses to the squared mean
        np.testing.assert_allclose(mom.cond_second_moment[0][0], [[4.0]])

    def test_depth_k_table_for_generation_k_is_degenerate(self):
        # E(u(k)|F_k) is constant whenever H1 holds, so the depth-k
        # conditional second moment of generation k is its squared mean
        rng = np.random.default_rng(11)
        inst = random_instance(rng)
        mom = compute_moments(inst.tree, inst.book)
        for k in range(inst.tree.last_issue + 1):
            np.testing.assert_allclose(
                mom.cond_second_moment[k][k], np.outer(mom.mean[k], mom.mean[k]),
                atol=1e-10,
            )


class TestHypothesisChecks:
    def test_coin_book_satisfies_all(self, coin2):
        report = check_hypotheses(coin2.tree, coin2.book)
        assert report.all_ok
        assert report.h2_min_eig > 0

    def test_random_instances_satisfy_all(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            inst = random_instance(rng)
            report = check_hypotheses(inst.tree, inst.book)
            assert report.all_ok, report.as_dict()

    def test_h1_violation_detected(self):
        # generation 1's conditional mean differs across the depth-1 nodes
        tree = two_period_coin()
        book = ContractBook(tree, {(1, 2): np.array([[2.0], [0.0], [0.0], [0.0]])})
        ok, worst, where = check_h1(tree, book)
        assert not ok
        # the second-moment identity is the one most badly broken here
        assert worst == pytest.approx(1.0)
        assert "issue 1" in where

    def test_h2_violation_detected(self):
        # two identical contracts make the settled covariance singular
        from reinsqp.tree import NodeSpec, ScenarioTree

        nodes = [
            NodeSpec(0, None, 0, 1.0),
            NodeSpec(1, 0, 1, 0.5),
            NodeSpec(2, 0, 1, 0.5),
            NodeSpec(3, 1, 2, 0.5),
            NodeSpec(4, 1, 2, 0.5),
            NodeSpec(5, 2, 2, 0.5),
            NodeSpec(6, 2, 2, 0.5),
        ]
        tree = ScenarioTree(2, 1, 1, nodes)
        col = np.array([3.0, 3.0, 1.0, 1.0])
        book = ContractBook(tree, {(0, 2): np.column_stack([col, col])})
        mom = compute_moments(tree, book)
        ok, min_eig, where = check_h2(mom)
        assert not ok
        assert min_eig == pytest.approx(0.0, abs=1e-12)

    def test_h3_violation_detected(self, coin2):
        # make both generations the same random variable
        tree = coin2.tree
        dup = np.array([[2.0], [0.0], [2.0], [0.0]])
        book = ContractBook(tree, {(0, 2): dup, (1, 2): dup})
        ok1, _, _ = check_h1(tree, book)
        assert ok1  # conditional moments are still constant
        ok3, worst, where = check_h3(tree, book)
        assert not ok3
        assert worst == pytest.approx(1.0)

    def test_report_serialization(self, coin2):
        report = check_hypotheses(coin2.tree, coin2.book)
        d = report.as_dict()
        assert d["h1_ok"] and d["h2_ok"] and d["h3_ok"]
        assert d["h2_min_eig"] is None or d["h2_min_eig"] > 0
