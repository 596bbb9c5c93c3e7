"""Scenario files: reading, checking and assembly in one walk.

A scenario file is one JSON object carrying the tree, the utility entries,
and the constraint data.  Checking is collecting, not fail-fast:
:func:`check` walks the whole document once, returns every problem it can
find, so a report can show them all at once, and assembles the scenario
in the same walk when there are none.  :func:`validate_data` keeps the
problems and :func:`parse` raises on them.

Utility entries are sparse: any (issue time, contract, node) triple not
listed is zero.  Contract indices are zero-based.  They are the bulk of a
large file, so they are checked column-wise: one pass per field over each
fixed slice of entries, so the cost is a few numpy calls per slice plus
Python work only for entries with a problem or with a field that is not
plainly typed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .contracts import ContractBook
from .errors import InputError
from .portfolio import ConstraintConfig
from .tree import NodeSpec, ScenarioTree, validate_structure

_REQUIRED_KEYS = ("N", "T_bar", "T", "K0", "nodes", "utilities", "constraints")
_ENTRY_KEYS = ("issue_time", "contract", "node", "value")


@dataclass
class Scenario:
    """A fully assembled problem instance."""

    tree: ScenarioTree
    book: ContractBook
    config: ConstraintConfig


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x) -> bool:
    try:  # an integer past the float range overflows: not a finite number
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


class _Missing:
    """Stands in for an absent field of a utility entry."""


_MISSING = _Missing()
_INT64 = np.iinfo(np.int64)
#: utility entries per column pass.  On a 410k-entry file the pass takes
#: the same time from 2^12 to 2^16 entries per slice, while the peak
#: resident memory of loading it grows with the slice (the freed scratch
#: arrays stay in the heap): about +3 MB at 2^12, +8 MB at 2^15.
_SLICE = 1 << 12
#: what a utility entry that is not an object reads as: every field absent
_NO_OBJECT: dict = {}

#: each utility entry's problem, by the number of its first failing check
_ENTRY_PROBLEMS = (
    "utilities[{i}] must be an object",
    "utilities[{i}] missing {missing}",
    "utilities[{i}] has non-integer indices",
    "utilities[{i}].value must be a finite number",
    "utilities[{i}]: issue_time {k} outside 0..{t_bar}",
    "utilities[{i}]: contract {c} outside 0..{last} (zero-based)",
    "utilities[{i}]: unknown node {node}",
    "utilities[{i}]: node {node} at depth {depth} not after issue time {k}",
    "utilities[{i}]: duplicate entry for issue_time {k}, "
    "contract {c}, node {node}",
)
_MISSING_FIELD = 1
_DUPLICATE = len(_ENTRY_PROBLEMS) - 1
_CLEAN = len(_ENTRY_PROBLEMS)


def _index_column(col: list, kinds: set) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which entries of an index field are integers, which of those fit in
    int64, and their values as int64 (0 where they do not fit)."""
    size = len(col)
    if kinds == {int}:
        try:
            values = np.fromiter(col, np.int64, size)
        except OverflowError:
            pass
        else:
            every = np.ones(size, dtype=bool)
            return every, every, values
    is_int = np.fromiter(map(_is_int, col), bool, size)
    fits = np.fromiter(
        (ok and _INT64.min <= v <= _INT64.max for v, ok in zip(col, is_int)), bool, size
    )
    values = np.fromiter((int(v) if ok else 0 for v, ok in zip(col, fits)), np.int64, size)
    return is_int, fits, values


def _number_column(col: list, kinds: set) -> tuple[np.ndarray, np.ndarray]:
    """Which entries of the value field are finite numbers, and their values
    as floats (0 where they are not)."""
    size = len(col)
    if kinds <= {int, float}:
        try:
            values = np.fromiter(col, float, size)
        except OverflowError:  # an integer past the float range
            pass
        else:
            return np.isfinite(values), values
    ok = np.fromiter(map(_is_num, col), bool, size)
    values = np.fromiter((float(v) if good else 0.0 for v, good in zip(col, ok)), float, size)
    return ok, values


def _check_utilities(
    utilities: list, tree: ScenarioTree
) -> tuple[list[str], dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]]:
    """Every utility entry's first problem, in entry order, and the
    (values, listed) arrays of each (issue time, depth) block reached.

    The entries are read in slices of ``_SLICE``, one column pass per field
    and slice.  A field whose entries are all plain ints (plain ints and
    floats for the value) is checked by numpy alone; any other field falls
    back to the per-entry predicates.  Nodes are looked up in one sorted id
    index.  A repeat is found against the ``listed`` mask of earlier slices
    and among the slice's own entries.
    """
    n, t_bar, horizon = tree.n_contracts, tree.last_issue, tree.horizon
    ids = np.concatenate(tree.node_ids)
    by_id = np.argsort(ids)
    sorted_ids = ids[by_id]
    depth_of = np.repeat(np.arange(horizon + 1), [len(x) for x in tree.node_ids])[by_id]
    row_of = np.concatenate([np.arange(len(x)) for x in tree.node_ids])[by_id]

    problems: list[str] = []
    blocks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for start in range(0, len(utilities), _SLICE):
        chunk = utilities[start:start + _SLICE]
        size = len(chunk)
        if set(map(type, chunk)) == {dict}:
            is_obj = np.ones(size, dtype=bool)
            objs = chunk
        else:
            is_obj = np.fromiter((isinstance(raw, dict) for raw in chunk), bool, size)
            objs = [raw if ok else _NO_OBJECT for raw, ok in zip(chunk, is_obj)]
        cols = [list(map(dict.get, objs, repeat(key), repeat(_MISSING)))
                for key in _ENTRY_KEYS]
        kinds = [set(map(type, col)) for col in cols]
        missing = np.zeros(size, dtype=bool)
        for col, col_kinds in zip(cols, kinds):
            if _Missing in col_kinds:
                missing |= np.fromiter((v is _MISSING for v in col), bool, size)
        k_int, k_fits, k = _index_column(cols[0], kinds[0])
        c_int, c_fits, c = _index_column(cols[1], kinds[1])
        node_int, node_fits, node = _index_column(cols[2], kinds[2])
        finite, value = _number_column(cols[3], kinds[3])
        at = np.minimum(np.searchsorted(sorted_ids, node), len(sorted_ids) - 1)
        depth = depth_of[at]

        fails = (  # in the order of _ENTRY_PROBLEMS
            ~is_obj,
            missing,
            ~(k_int & c_int & node_int),
            ~finite,
            ~(k_fits & (k >= 0) & (k <= t_bar)),
            ~(c_fits & (c >= 0) & (c < n)),
            ~(node_fits & (sorted_ids[at] == node)),
            depth <= k,
        )
        first = np.full(size, _CLEAN)
        for code in range(len(fails) - 1, -1, -1):
            first[fails[code]] = code

        clean = np.flatnonzero(first == _CLEAN)
        block_of = k[clean] * (horizon + 1) + depth[clean]
        reached, first_at = np.unique(block_of, return_index=True)
        for b in reached[np.argsort(first_at)]:
            sel = clean[block_of == b]
            key = (int(b // (horizon + 1)), int(b % (horizon + 1)))
            if key not in blocks:
                shape = (tree.n_nodes(key[1]), n)
                blocks[key] = (np.zeros(shape), np.zeros(shape, dtype=bool))
            values, listed = blocks[key]
            rows, cs = row_of[at[sel]], c[sel]
            dup = listed[rows, cs]  # listed by an earlier slice
            _, once = np.unique(rows * n + cs, return_index=True)
            again = np.ones(len(sel), dtype=bool)
            again[once] = False  # or earlier in this one
            dup |= again
            first[sel[dup]] = _DUPLICATE
            new = ~dup
            listed[rows[new], cs[new]] = True
            values[rows[new], cs[new]] = value[sel[new]]

        for j in np.flatnonzero(first != _CLEAN).tolist():
            code = first[j]
            absent = code == _MISSING_FIELD and [
                key for key in _ENTRY_KEYS if key not in chunk[j]]
            problems.append(_ENTRY_PROBLEMS[code].format(
                i=start + j, k=cols[0][j], c=cols[1][j], node=cols[2][j],
                depth=int(depth[j]), t_bar=t_bar, last=n - 1, missing=absent,
            ))
    return problems, blocks


def check(data) -> tuple[list[str], Scenario | None]:
    """Every problem in a scenario document, found in one walk, and the
    assembled scenario when there are none (else None).  Each node and
    utility entry reports only its first problem, in document order.  A
    valid entry is written into its (issue time, depth) block; a mask beside
    it finds repeats."""
    problems: list[str] = []
    if not isinstance(data, dict):
        return [f"scenario must be a JSON object, got {type(data).__name__}"], None
    for key in _REQUIRED_KEYS:
        if key not in data:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems, None

    n = data["N"]
    t_bar = data["T_bar"]
    t_lag = data["T"]
    if not _is_int(n) or n < 1:
        problems.append(f"N must be a positive integer, got {n!r}")
    if not _is_int(t_bar) or t_bar < 0:
        problems.append(f"T_bar must be a nonnegative integer, got {t_bar!r}")
    if not _is_int(t_lag) or t_lag < 1:
        problems.append(f"T must be a positive integer, got {t_lag!r}")
    if not _is_num(data["K0"]) or data["K0"] < 0:
        problems.append(f"K0 must be a nonnegative number, got {data['K0']!r}")
    if problems:
        return problems, None
    horizon = t_bar + t_lag

    if not isinstance(data["nodes"], list) or not data["nodes"]:
        return ["nodes must be a nonempty list"], None
    specs = []
    for i, raw in enumerate(data["nodes"]):
        if not isinstance(raw, dict):
            problems.append(f"nodes[{i}] must be an object")
            continue
        missing = [k for k in ("id", "parent", "depth", "prob") if k not in raw]
        if missing:
            problems.append(f"nodes[{i}] missing {missing}")
            continue
        if not _is_int(raw["id"]):
            problems.append(f"nodes[{i}].id must be an integer")
            continue
        if raw["parent"] is not None and not _is_int(raw["parent"]):
            problems.append(f"nodes[{i}].parent must be an integer or null")
            continue
        if not _is_int(raw["depth"]) or not _is_num(raw["prob"]):
            problems.append(f"nodes[{i}] has a malformed depth or prob")
            continue
        specs.append(
            NodeSpec(raw["id"], raw["parent"], raw["depth"], float(raw["prob"]))
        )
    if problems:
        return problems, None
    problems = validate_structure(n, t_bar, t_lag, specs)
    if problems:
        return problems, None
    tree = ScenarioTree(n, t_bar, t_lag, specs)

    if not isinstance(data["utilities"], list):
        return ["utilities must be a list"], None
    problems, blocks = _check_utilities(data["utilities"], tree)

    cons = data["constraints"]
    if not isinstance(cons, dict):
        return problems + ["constraints must be an object"], None
    missing = [f"constraints missing key {key!r}"
               for key in ("c", "e", "sigma2") if key not in cons]
    if missing:
        return problems + missing, None
    c_rates = cons["c"]
    if (not isinstance(c_rates, list) or len(c_rates) != horizon
            or not all(_is_num(x) for x in c_rates)):
        problems.append(
            f"constraints.c must be a list of {horizon} finite numbers"
        )
    if not _is_num(cons["e"]):
        problems.append("constraints.e must be a finite number")
    if cons["sigma2"] is not None and (
            not _is_num(cons["sigma2"]) or cons["sigma2"] <= 0):
        problems.append("constraints.sigma2 must be a positive number or null")
    if problems:
        return problems, None

    book = ContractBook(tree, {key: values for key, (values, _) in blocks.items()})
    config = ConstraintConfig(
        roe_rates=np.asarray(c_rates, dtype=float),
        mean_floor=float(cons["e"]),
        variance_cap=None if cons["sigma2"] is None else float(cons["sigma2"]),
        initial_equity=float(data["K0"]),
    )
    return [], Scenario(tree, book, config)


def validate_data(data) -> list[str]:
    """Collect every problem in a scenario document.  Empty list means the
    document assembles cleanly."""
    return check(data)[0]


def parse(data) -> Scenario:
    """Assemble a scenario from an already-decoded document, raising on
    every problem :func:`check` finds."""
    problems, scenario = check(data)
    if problems:
        raise InputError("invalid scenario: " + "; ".join(problems))
    return scenario


def read(path: str | Path):
    """Read and decode a scenario file, unchecked."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load(path: str | Path) -> Scenario:
    """Read and assemble a scenario file."""
    return parse(read(path))
