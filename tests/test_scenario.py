"""Scenario documents: collecting validation, assembly, and file loading."""

import copy
import json

import numpy as np
import pytest

from reinsqp.errors import InputError
from reinsqp.scenario import load, parse, validate_data
from reinsqp.tree import ScenarioTree

from conftest import coin2_data


class TestValidateData:
    def test_clean_document(self):
        assert validate_data(coin2_data()) == []

    def test_non_object_document(self):
        problems = validate_data([1, 2, 3])
        assert len(problems) == 1
        assert "JSON object" in problems[0]

    def test_missing_keys_are_all_reported(self):
        data = coin2_data()
        del data["N"], data["K0"], data["constraints"]
        problems = validate_data(data)
        assert len(problems) == 3
        assert any("'N'" in p for p in problems)
        assert any("'K0'" in p for p in problems)
        assert any("'constraints'" in p for p in problems)

    @pytest.mark.parametrize(
        "key,value,fragment",
        [
            ("N", 0, "N must be"),
            ("N", 1.5, "N must be"),
            ("T_bar", -1, "T_bar must be"),
            ("T", 0, "T must be"),
            ("K0", -2.0, "K0 must be"),
            ("K0", float("nan"), "K0 must be"),
        ],
    )
    def test_malformed_scalars(self, key, value, fragment):
        data = coin2_data()
        data[key] = value
        problems = validate_data(data)
        assert any(fragment in p for p in problems)

    def test_node_without_required_fields(self):
        data = coin2_data()
        del data["nodes"][2]["prob"]
        problems = validate_data(data)
        assert any("nodes[2]" in p and "prob" in p for p in problems)

    def test_boolean_is_not_an_integer(self):
        data = coin2_data()
        data["nodes"][1]["id"] = True
        problems = validate_data(data)
        assert any("nodes[1].id" in p for p in problems)

    def test_structural_defects_come_from_the_tree_walk(self):
        data = coin2_data()
        data["nodes"][3]["prob"] = 0.7  # siblings no longer sum to one
        problems = validate_data(data)
        assert problems
        assert any("sum" in p or "prob" in p for p in problems)

    def test_utility_entry_problems_are_collected_together(self):
        data = coin2_data()
        data["utilities"][0]["contract"] = 1
        data["utilities"][1]["value"] = float("inf")
        data["utilities"][2]["node"] = 99
        problems = validate_data(data)
        assert len(problems) == 3
        assert any("zero-based" in p for p in problems)
        assert any("finite" in p for p in problems)
        assert any("unknown node 99" in p for p in problems)

    def test_entry_at_or_before_issue_time(self):
        data = coin2_data()
        data["utilities"][0]["node"] = 1  # depth 1 entry for issue time 1
        data["utilities"][0]["issue_time"] = 1
        problems = validate_data(data)
        assert any("not after issue time 1" in p for p in problems)

    def test_duplicate_triple(self):
        data = coin2_data()
        data["utilities"].append(copy.deepcopy(data["utilities"][0]))
        problems = validate_data(data)
        assert len(problems) == 1
        assert "duplicate" in problems[0]

    @pytest.mark.parametrize("first,repeat", [(0.0, 1.0), (1.0, 0.0)])
    def test_duplicate_of_a_zero_entry(self, first, repeat):
        # a repeat is found by the listing, not by a nonzero stored value
        data = coin2_data()
        data["utilities"][0]["value"] = first
        data["utilities"].append(dict(data["utilities"][0], value=repeat))
        u = data["utilities"][0]
        assert validate_data(data) == [
            f"utilities[{len(data['utilities']) - 1}]: duplicate entry for "
            f"issue_time {u['issue_time']}, contract {u['contract']}, node {u['node']}"
        ]

    def test_integers_past_the_float_range(self):
        data = coin2_data()
        data["K0"] = 10**20
        assert validate_data(data) == []
        assert parse(data).config.initial_equity == 1e20
        data["utilities"][0]["value"] = 10**400
        assert validate_data(data) == ["utilities[0].value must be a finite number"]
        data["K0"] = 10**400
        assert validate_data(data) == [f"K0 must be a nonnegative number, got {10**400!r}"]

    def test_issue_time_outside_range(self):
        data = coin2_data()
        data["utilities"][0]["issue_time"] = 2
        problems = validate_data(data)
        assert any("outside 0..1" in p for p in problems)

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda c: c.pop("sigma2"), "missing key 'sigma2'"),
            (lambda c: c.update(c=[0.0]), "list of 2 finite numbers"),
            (lambda c: c.update(c=[0.0, float("nan")]), "list of 2 finite numbers"),
            (lambda c: c.update(e=None), "finite number"),
            (lambda c: c.update(sigma2=0.0), "positive number or null"),
            (lambda c: c.update(sigma2=-1.0), "positive number or null"),
        ],
    )
    def test_constraint_block(self, mutate, fragment):
        data = coin2_data()
        mutate(data["constraints"])
        problems = validate_data(data)
        assert any(fragment in p for p in problems)

    def test_null_cap_is_fine(self):
        data = coin2_data()
        data["constraints"]["sigma2"] = None
        assert validate_data(data) == []


class TestParse:
    def test_assembles_the_coin_instance(self):
        sc = parse(coin2_data())
        assert sc.tree.horizon == 2
        assert sc.tree.n_contracts == 1
        np.testing.assert_allclose(
            sc.book.final_utility(0).values.ravel(), [3.0, 3.0, 1.0, 1.0]
        )
        np.testing.assert_allclose(
            sc.book.final_utility(1).values.ravel(), [2.0, 0.0, 2.0, 0.0]
        )
        assert sc.config.mean_floor == 3.0
        assert sc.config.variance_cap is None
        assert sc.config.initial_equity == 0.0
        np.testing.assert_allclose(sc.config.roe_rates, [0.0, 0.0])

    def test_unlisted_entries_are_zero(self):
        data = coin2_data()
        kept = [u for u in data["utilities"] if u["node"] != 3 or u["issue_time"] != 0]
        data["utilities"] = kept
        sc = parse(data)
        assert sc.book.final_utility(0).values[0, 0] == 0.0

    def test_invalid_document_raises_with_every_problem(self):
        data = coin2_data()
        data["utilities"][0]["contract"] = 5
        data["constraints"]["e"] = None
        with pytest.raises(InputError, match="zero-based") as err:
            parse(data)
        assert "finite number" in str(err.value)

    def test_sigma2_becomes_the_cap(self):
        data = coin2_data()
        data["constraints"]["sigma2"] = 2.5
        assert parse(data).config.variance_cap == 2.5


class _CountingList(list):
    def __init__(self, items):
        super().__init__(items)
        self.walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class TestOneWalk:
    def test_parse_walks_the_utilities_once(self):
        data = coin2_data()
        data["utilities"] = _CountingList(data["utilities"])
        parse(data)
        assert data["utilities"].walks == 1

    def test_load_builds_one_tree(self, tmp_path, monkeypatch):
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(coin2_data()))
        built = []
        init = ScenarioTree.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ScenarioTree, "__init__", counting_init)
        sc = load(path)
        assert built == [sc.tree]


class TestLoad:
    def test_round_trip_through_a_file(self, tmp_path):
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(coin2_data()))
        sc = load(path)
        assert sc.tree.horizon == 2
        assert sc.config.mean_floor == 3.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load(tmp_path / "absent.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="not valid JSON"):
            load(path)
