"""Scenario documents: collecting validation, assembly, and file loading."""

import copy
import json
import random
from operator import itemgetter

import numpy as np
import pytest

from reinsqp import scenario
from reinsqp.errors import InputError
from reinsqp.scenario import load, parse, validate_data
from reinsqp.tree import ScenarioTree

from conftest import coin2_data, random_instance, scenario_dict


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

    def test_indices_past_int64_keep_their_messages(self):
        for big in (2**70, -2**70):
            data = coin2_data()
            data["utilities"][0]["issue_time"] = big
            data["utilities"][1]["contract"] = big
            data["utilities"][2]["node"] = big
            assert validate_data(data) == [
                f"utilities[0]: issue_time {big} outside 0..1",
                f"utilities[1]: contract {big} outside 0..0 (zero-based)",
                f"utilities[2]: unknown node {big}",
            ]

    @pytest.mark.parametrize("field", ["id", "parent"])
    def test_node_ids_past_int64_are_problems(self, field):
        data = coin2_data()
        data["nodes"][3][field] = 2**70
        problems = validate_data(data)
        assert f"node {data['nodes'][3]['id']} has an id or parent outside the int64 range" \
            in problems

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
    """A list that records every read from it and every walk over it."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []
        self.walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def __getitem__(self, index):
        self.reads.append(index)
        return super().__getitem__(index)


class TestOneWalk:
    def test_parse_walks_the_utilities_once(self, monkeypatch):
        # each entry is read in exactly one slice, and nothing reads it again
        monkeypatch.setattr(scenario, "_SLICE", 3)
        data = coin2_data()
        utilities = data["utilities"] = _CountingList(data["utilities"])
        parse(data)
        assert utilities.walks == 0
        assert all(isinstance(r, slice) for r in utilities.reads)
        read = [i for r in utilities.reads for i in range(*r.indices(len(utilities)))]
        assert read == list(range(len(utilities)))

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


def _reference_utilities(utilities, tree):
    """The per-entry utility check that the column pass replaced, kept as a
    reference: every entry's first problem, and the (values, listed) blocks."""
    n, t_bar = tree.n_contracts, tree.last_issue
    depth_of = {int(node): d for d, ids in enumerate(tree.node_ids) for node in ids}
    problems, blocks = [], {}
    for i, raw in enumerate(utilities):
        if not isinstance(raw, dict):
            problems.append(f"utilities[{i}] must be an object")
            continue
        try:
            k, c, node, value = itemgetter(*scenario._ENTRY_KEYS)(raw)
        except KeyError:
            missing = [key for key in scenario._ENTRY_KEYS if key not in raw]
            problems.append(f"utilities[{i}] missing {missing}")
            continue
        if not (scenario._is_int(k) and scenario._is_int(c) and scenario._is_int(node)):
            problems.append(f"utilities[{i}] has non-integer indices")
            continue
        if not scenario._is_num(value):
            problems.append(f"utilities[{i}].value must be a finite number")
            continue
        if not 0 <= k <= t_bar:
            problems.append(f"utilities[{i}]: issue_time {k} outside 0..{t_bar}")
            continue
        if not 0 <= c < n:
            problems.append(
                f"utilities[{i}]: contract {c} outside 0..{n - 1} (zero-based)"
            )
            continue
        depth = depth_of.get(node)
        if depth is None:
            problems.append(f"utilities[{i}]: unknown node {node}")
            continue
        if depth <= k:
            problems.append(
                f"utilities[{i}]: node {node} at depth {depth} not after "
                f"issue time {k}"
            )
            continue
        block = blocks.get((k, depth))
        if block is None:
            shape = (tree.n_nodes(depth), n)
            block = blocks[(k, depth)] = (np.zeros(shape), np.zeros(shape, dtype=bool))
        values, listed = block
        row = int(np.searchsorted(tree.node_ids[depth], node))
        if listed[row, c]:
            problems.append(
                f"utilities[{i}]: duplicate entry for issue_time {k}, "
                f"contract {c}, node {node}"
            )
            continue
        listed[row, c] = True
        values[row, c] = float(value)
    return problems, blocks


_ODD = [True, False, 1.0, 2.5, None, "1", [1], {}, 10**400, 2**70, -2**70,
        2**63, -2**63 - 1, 2**63 - 1, -1, 0, 1, 10**6, float("nan"), float("inf")]


def _mutated(base: dict, rng: random.Random) -> list:
    """A copy of the document's utilities with a few seeded defects: non-objects,
    missing keys, odd field values, unknown or too-early nodes, out-of-range
    indices and repeats."""
    utilities = copy.deepcopy(base["utilities"])
    nodes = [node["id"] for node in base["nodes"]] + [10**6, 2**70, -2**70]
    for _ in range(rng.randint(1, 6)):
        i = rng.randrange(len(utilities))
        raw = utilities[i]
        op = rng.randrange(7)
        if op == 0:
            utilities[i] = rng.choice([1, "entry", None, [1, 2]])
        elif op == 1:
            utilities.insert(rng.randrange(len(utilities) + 1), copy.deepcopy(raw))
        elif op == 2:
            utilities.append(copy.deepcopy(raw))
            if isinstance(raw, dict):
                utilities[-1]["value"] = rng.random()
        elif not isinstance(raw, dict):
            continue
        elif op == 3:
            raw.pop(rng.choice(scenario._ENTRY_KEYS), None)
        elif op == 4:
            raw[rng.choice(scenario._ENTRY_KEYS)] = rng.choice(_ODD)
        elif op == 5:
            raw["node"] = rng.choice(nodes)
        else:
            raw["issue_time"] = rng.randrange(-1, base["T_bar"] + 2)
            raw["contract"] = rng.randrange(-1, base["N"] + 1)
    return utilities


def _fixed_defects() -> list:
    """The utility defects that the document tests above and the CLI tests
    build, on the coin document."""
    def edit(index, **fields):
        data = coin2_data()
        data["utilities"][index].update(fields)
        return data["utilities"]

    repeated = coin2_data()["utilities"]
    return [
        edit(0, contract=1), edit(1, value=float("inf")), edit(2, node=99),
        edit(0, node=1, issue_time=1), edit(0, issue_time=2), edit(0, contract=5),
        edit(0, contract=7), edit(0, value=10**400), edit(0, value=True),
        edit(0, node=2.0), repeated + [copy.deepcopy(repeated[0])],
        repeated + [dict(repeated[0], value=0.0)],
    ]


class TestColumnPassParity:
    """The column pass against the per-entry reference, on every slice size
    that splits the documents' entries differently."""

    @pytest.mark.parametrize("size", [3, scenario._SLICE])
    def test_problems_and_blocks_match_the_reference(self, size, monkeypatch):
        monkeypatch.setattr(scenario, "_SLICE", size)
        rng = random.Random(20)
        bases = [coin2_data(), scenario_dict(random_instance(np.random.default_rng(4)))]
        cases = [(bases[0], u) for u in _fixed_defects()]
        cases += [(base, _mutated(base, rng)) for base in bases for _ in range(60)]
        cases += [(base, base["utilities"]) for base in bases]
        clean = 0
        for base, utilities in cases:
            tree = parse(base).tree
            problems, blocks = scenario._check_utilities(utilities, tree)
            want_problems, want_blocks = _reference_utilities(utilities, tree)
            assert problems == want_problems
            assert list(blocks) == list(want_blocks)
            for key, (values, listed) in blocks.items():
                want_values, want_listed = want_blocks[key]
                assert values.tobytes() == want_values.tobytes()
                assert np.array_equal(listed, want_listed)
            if not problems:
                clean += 1
                stored = parse(dict(base, utilities=utilities)).book.stored_entries()
                assert list(stored) == list(want_blocks)
                for key, values in stored.items():
                    assert values.tobytes() == want_blocks[key][0].tobytes()
        assert clean >= 2
