"""Scenario files: reading, checking and assembly in one walk.

A scenario file is one JSON object carrying the tree, the utility entries,
and the constraint data.  Checking is collecting, not fail-fast:
:func:`check` walks the whole document once, returns every problem it can
find, so a report can show them all at once, and assembles the scenario
in the same walk when there are none.  :func:`validate_data` keeps the
problems and :func:`parse` raises on them.

Utility entries are sparse: any (issue time, contract, node) triple not
listed is zero.  Contract indices are zero-based.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .contracts import ContractBook
from .errors import InputError
from .portfolio import ConstraintConfig
from .tree import NodeSpec, ScenarioTree, validate_structure

_REQUIRED_KEYS = ("N", "T_bar", "T", "K0", "nodes", "utilities", "constraints")
_ENTRY_KEYS = ("issue_time", "contract", "node", "value")
_entry_fields = itemgetter(*_ENTRY_KEYS)


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


def check(data) -> tuple[list[str], Scenario | None]:
    """Every problem in a scenario document, found in one walk, and the
    assembled scenario when there are none (else None).  Each node and
    utility entry reports only its first problem.  A valid entry is written
    into its (issue time, depth) block; a mask beside it finds repeats."""
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
    blocks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for i, raw in enumerate(data["utilities"]):
        if not isinstance(raw, dict):
            problems.append(f"utilities[{i}] must be an object")
            continue
        try:
            k, c, node, value = _entry_fields(raw)
        except KeyError:
            missing = [key for key in _ENTRY_KEYS if key not in raw]
            problems.append(f"utilities[{i}] missing {missing}")
            continue
        if not (_is_int(k) and _is_int(c) and _is_int(node)):
            problems.append(f"utilities[{i}] has non-integer indices")
            continue
        if not _is_num(value):
            problems.append(f"utilities[{i}].value must be a finite number")
            continue
        if not 0 <= k <= t_bar:
            problems.append(
                f"utilities[{i}]: issue_time {k} outside 0..{t_bar}"
            )
            continue
        if not 0 <= c < n:
            problems.append(
                f"utilities[{i}]: contract {c} outside 0..{n - 1} (zero-based)"
            )
            continue
        try:
            depth = tree.node_depth(node)
        except InputError:
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
        row = tree.node_row(depth, node)
        if listed[row, c]:
            problems.append(
                f"utilities[{i}]: duplicate entry for issue_time {k}, "
                f"contract {c}, node {node}"
            )
            continue
        listed[row, c] = True
        values[row, c] = float(value)

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
