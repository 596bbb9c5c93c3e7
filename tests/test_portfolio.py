"""Portfolio utility processes and constraint evaluation."""

import numpy as np
import pytest

from reinsqp.portfolio import (
    ConstraintConfig,
    evaluate_constraints,
    final_utility_rv,
    mean_final,
    utility_growth,
    utility_process,
    variance_final,
)
from reinsqp.tree import PortfolioProcess

from conftest import random_instance


def unit_plan(tree):
    return PortfolioProcess(
        tree,
        [
            tree.adapted(k, np.ones((tree.n_nodes(k), tree.n_contracts)))
            for k in range(tree.last_issue + 1)
        ],
    )


class TestUtilityProcess:
    def test_final_utility_leaf_values(self, coin2):
        rv = final_utility_rv(coin2.tree, coin2.book, unit_plan(coin2.tree))
        np.testing.assert_allclose(rv.values, [5.0, 3.0, 3.0, 1.0])

    def test_moments_of_final_utility(self, coin2):
        plan = unit_plan(coin2.tree)
        assert mean_final(coin2.tree, coin2.book, plan) == pytest.approx(3.0)
        assert variance_final(coin2.tree, coin2.book, plan) == pytest.approx(2.0)

    def test_process_is_zero_before_results_accrue(self, coin2):
        plan = unit_plan(coin2.tree)
        u1 = utility_process(coin2.tree, coin2.book, plan, 1)
        np.testing.assert_allclose(u1.values, [0.0, 0.0])

    def test_growth_telescopes_to_final(self, coin2):
        plan = unit_plan(coin2.tree)
        tree = coin2.tree
        total = sum(
            float(tree.expectation(utility_growth(tree, coin2.book, plan, t)))
            for t in range(tree.horizon)
        )
        assert total == pytest.approx(mean_final(tree, coin2.book, plan))

    def test_scaling_is_quadratic_in_the_plan(self, coin2):
        plan = unit_plan(coin2.tree)
        doubled = 2.0 * plan
        assert mean_final(coin2.tree, coin2.book, doubled) == pytest.approx(6.0)
        assert variance_final(coin2.tree, coin2.book, doubled) == pytest.approx(8.0)

    def test_variance_matches_leaf_enumeration_on_random_instance(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng)
        tree = inst.tree
        plan = PortfolioProcess(
            tree,
            [
                tree.adapted(k, rng.standard_normal((tree.n_nodes(k), tree.n_contracts)))
                for k in range(tree.last_issue + 1)
            ],
        )
        rv = final_utility_rv(tree, inst.book, plan)
        p = tree.path_prob[tree.horizon]
        mean = p @ rv.values
        var = p @ (rv.values - mean) ** 2
        assert variance_final(tree, inst.book, plan) == pytest.approx(float(var))


class TestConstraints:
    def test_coin_slacks_at_unit_plan(self, coin2):
        report = evaluate_constraints(coin2.tree, coin2.book, coin2.config, unit_plan(coin2.tree))
        np.testing.assert_allclose(report.roe_slacks, [0.0, 3.0])
        assert report.mean_slack == pytest.approx(0.0)
        assert report.variance_slack is None
        assert report.min_position == pytest.approx(1.0)

    def test_mean_floor_violation_flagged(self, coin2):
        plan = 0.5 * unit_plan(coin2.tree)
        report = evaluate_constraints(coin2.tree, coin2.book, coin2.config, plan)
        assert report.mean_slack == pytest.approx(-1.5)

    def test_negative_position_flagged(self, coin2):
        plan = -1.0 * unit_plan(coin2.tree)
        report = evaluate_constraints(coin2.tree, coin2.book, coin2.config, plan)
        assert report.min_position == pytest.approx(-1.0)

    def test_variance_cap_slack(self, coin2):
        import dataclasses

        capped = dataclasses.replace(coin2.config, variance_cap=1.0)
        report = evaluate_constraints(coin2.tree, coin2.book, capped, unit_plan(coin2.tree))
        assert report.variance_slack == pytest.approx(-1.0)

    def test_roe_rate_charges_equity(self, coin2):
        import dataclasses

        config = dataclasses.replace(
            coin2.config, roe_rates=np.array([0.1, 0.1]), initial_equity=10.0
        )
        report = evaluate_constraints(coin2.tree, coin2.book, config, unit_plan(coin2.tree))
        # period 0 growth is 0 against a 10% charge on equity 10
        np.testing.assert_allclose(report.roe_slacks, [-1.0, 2.0])

    def test_as_dict_round_trips_through_json(self, coin2):
        import json

        report = evaluate_constraints(coin2.tree, coin2.book, coin2.config, unit_plan(coin2.tree))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["mean_value"] == pytest.approx(3.0)
        assert payload["variance_slack"] is None


class TestConfig:
    def test_horizon_mismatch_rejected(self, coin2):
        bad = ConstraintConfig(
            roe_rates=np.zeros(5), mean_floor=1.0, variance_cap=None, initial_equity=0.0
        )
        from reinsqp.errors import InputError

        with pytest.raises(InputError):
            bad.check_horizon(coin2.tree)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("roe_rates", [0.0, np.inf], "roe_rates must be finite"),
            ("roe_rates", [np.nan, 0.0], "roe_rates must be finite"),
            ("mean_floor", np.nan, "mean_floor must be finite, got nan"),
            ("mean_floor", np.inf, "mean_floor must be finite, got inf"),
            ("mean_floor", -np.inf, "mean_floor must be finite, got -inf"),
            ("variance_cap", np.nan, "variance_cap must be finite, got nan"),
            ("variance_cap", np.inf, "variance_cap must be finite, got inf"),
            ("variance_cap", 0.0, "variance cap must be positive, got 0.0"),
            ("initial_equity", np.inf, "initial_equity must be finite, got inf"),
            ("initial_equity", np.nan, "initial_equity must be finite, got nan"),
        ],
    )
    def test_non_finite_or_out_of_range_fields_rejected(self, coin2, field, value, message):
        import dataclasses

        from reinsqp.errors import InputError

        with pytest.raises(InputError, match=message):
            dataclasses.replace(coin2.config, **{field: value})
