"""Spans around the program's public functions, installed from outside.

``install`` wraps every public function of the traced modules and rebinds
each name wherever the program holds it: in the defining module, in every
module that imported it by name (``block_apply`` into ``elimination`` and
``multipliers``, ``nonneg_qp`` and ``solve_qp`` into ``multipliers`` and
``oracle``, ...) and in the package namespace.  A call made through any of
those names becomes one span: name, start, end and the span that was open
when it began.  Spans stay in memory until ``save`` writes them.

A few wrappers also read counts from return values (pivots, cycles,
fallbacks, unverified solves, bisection steps).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: modules whose public functions are wrapped; ``cli`` and ``errors`` do no
#: work of their own on the benchmark's paths
MODULES = ("scenario", "tree", "contracts", "operators", "elimination",
           "multipliers", "qp", "oracle", "portfolio")
#: public methods wrapped on their class
METHODS = {"tree": {"ScenarioTree": ("conditional_expectation",)}}
#: metric names that differ from ``module.function``
RENAMES = {"elimination.elimination_coefficients": "elimination.coefficients",
           "tree.ScenarioTree.conditional_expectation": "tree.conditional_expectation"}


def _counts(name: str, result, counts: dict) -> None:
    if name == "elimination.solve" and not result.residual_ok:
        counts["elimination.solve_unverified"] += 1
    elif name == "multipliers.iterate":
        counts["multipliers.cycles"] += result.iterations
        counts["multipliers.dense_fallbacks"] += result.fallbacks
    elif name in ("qp.nonneg_qp", "qp.solve_qp"):
        counts[name + "_pivots"] += result.n_pivots
    elif name == "oracle.dense_qp":
        counts["oracle.bisection_steps"] += len(result.bisection_trace)


class Tracer:
    """Collects spans and counts; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)
            _counts(name, result, counts)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function of ``MODULES`` and rebind it in all of
        the package's modules."""
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for short in MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = RENAMES.get(f"{short}.{attr}", f"{short}.{attr}")
                wrapped = self.wrap(name, fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = RENAMES.get(f"{short}.{cls_name}.{meth}", f"{short}.{meth}")
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth)))

    def mark(self) -> int:
        """Index of the next span, to split the run into phases."""
        return len(self.spans)

    def totals(self, begin: int, end: int) -> dict[str, float]:
        """Inclusive seconds and calls per name over spans[begin:end]; a
        call nested in another call of the same name is not counted twice."""
        out: dict[str, float] = defaultdict(float)
        spans = self.spans
        for i in range(begin, end):
            index, start, stop, parent = spans[i]
            name = self.names[index]
            p = parent
            nested = False
            while p >= 0:
                if spans[p][0] == index:
                    nested = True
                    break
                p = spans[p][3]
            out[name + "_calls"] += 1
            if not nested:
                out[name + "_s"] += stop - start
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per name not covered by child spans."""
        own: dict[str, float] = defaultdict(float)
        spans = self.spans
        child = np.zeros(len(spans))
        for index, start, stop, parent in spans:
            if parent >= 0:
                child[parent] += stop - start
        for i, (index, start, stop, _) in enumerate(spans):
            own[self.names[index]] += stop - start - float(child[i])
        return dict(own)

    def save(self, path: Path) -> None:
        arr = np.array(self.spans, dtype=float).reshape(-1, 4)
        np.savez_compressed(path, names=np.array(self.names), name=arr[:, 0].astype(np.int32),
                            start=arr[:, 1], end=arr[:, 2], parent=arr[:, 3].astype(np.int64))
