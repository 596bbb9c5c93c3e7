"""Benchmark of reinsqp: one workload per process, checked answers, one JSON line.

    python3 bench/run.py --workload {batch,frontier,deep} --seed N --seconds S --trace {0,1}

The run times ``IMPORTS`` cold imports of the package from ``src/``,
each in a fresh interpreter, generates its inputs (``gen.py``) under
``bench/.work``, repeats set-up passes (load every instance, moments,
hypotheses, representers) for ``SETUP_SECONDS``, and repeats whole rounds
of the workload's operations until ``--seconds`` have passed.
Every answer is checked against the benchmark's own computations
(``checks.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  The exit
code is 1 when a check that should pass failed, 2 when the package is
missing.
"""

from __future__ import annotations

import os

# fixed before numpy loads: one BLAS thread, at most the machine's two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: cold imports per run, each in a fresh interpreter
IMPORTS = 3
#: seconds of set-up passes per run, and the fewest passes
SETUP_SECONDS = 3.0
MIN_SETUPS = 3

END_TO_END = {"setup_s": "s", "solve_s": "s", "oracle_s": "s",
              "certified_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_names() -> dict[str, str]:
    """Per-layer metric names with units, in ``BENCHMARK.json`` order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def cold_import_s() -> float:
    """Median seconds of ``import reinsqp`` in a fresh interpreter, which
    includes the import of numpy and scipy that every command pays."""
    code = "import time; t = time.perf_counter(); import reinsqp; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(IMPORTS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("batch", "frontier", "deep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "reinsqp" / "__init__.py").is_file():
        print(f"reinsqp sources not found under {SRC}", file=sys.stderr)
        return 2
    cold = cold_import_s()
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore", RuntimeWarning)

    import workloads

    work = HERE / ".work"
    if args.workload == "batch":
        cases = workloads.batch_cases(args.seed, work)
    elif args.workload == "frontier":
        cases = workloads.frontier_cases(args.seed, work, SRC)
    else:
        cases = workloads.deep_cases(args.seed, work)
    run_round = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    import reinsqp
    if tracer:
        tracer.install(reinsqp)

    # ``setup_s`` is the cold import plus the median pass; the rounds use
    # the last pass
    clock = time.perf_counter
    setups, ready = [], None
    start = clock()
    while len(setups) < MIN_SETUPS or clock() - start < SETUP_SECONDS:
        ready = None
        begin = clock()
        ready = workloads.setup(reinsqp, cases)
        setups.append(clock() - begin)
    problems = workloads.check_setup(ready)
    setup_end = tracer.mark() if tracer else 0
    setup_counts = dict(tracer.counts) if tracer else {}

    rounds = []
    start = clock()
    while not rounds or clock() - start < args.seconds:
        rounds.append(run_round(reinsqp, ready))
    for rnd in rounds:
        problems += rnd.problems

    attempted = {k: sum(r.attempted[k] for r in rounds) for k in rounds[0].attempted}
    failed = {k: sum(r.failed[k] for r in rounds) for k in rounds[0].failed}
    e2e = {
        "setup_s": cold + statistics.median(setups),
        "solve_s": statistics.median(r.solve_s for r in rounds),
        "oracle_s": statistics.median(r.oracle_s for r in rounds),
        "certified_per_s": statistics.median(r.certified / r.solve_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), cold import {cold:.3f} s, "
          f"{len(setups)} set-up passes, median {statistics.median(setups):.3f} s")
    for kind in attempted:
        print(f"  {kind} solves: attempted {attempted[kind]}, failed {failed[kind]}")
    failures = sum((r.failures for r in rounds), Counter())
    for where, count in sorted(failures.items()):
        worst = max(r.worst.get(where, 0.0) for r in rounds)
        print(f"  failed: {where} x{count}" + (f", worst residual {worst:.1e}" if worst else ""))
    for p in problems:
        print(f"  CHECK FAILED {p}", file=sys.stderr)

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        print("  traced end-to-end: " + ", ".join(f"{k}={v:.6g}" for k, v in e2e.items()))
        # per set-up pass plus per round
        in_setup = {**tracer.totals(0, setup_end), **setup_counts}
        in_rounds = tracer.totals(setup_end, tracer.mark())
        for k, v in tracer.counts.items():
            in_rounds[k] = v - setup_counts.get(k, 0)
        merged = {k: v / len(setups) for k, v in in_setup.items()}
        for k, v in in_rounds.items():
            merged[k] = merged.get(k, 0.0) + v / len(rounds)
        out = work / f"trace-{args.workload}-{args.seed}"
        tracer.save(out.with_suffix(".npz"))
        own = dict(sorted(tracer.self_times().items(), key=lambda kv: -kv[1]))
        with open(out.with_suffix(".json"), "w") as fh:
            json.dump({"end_to_end": e2e, "self_s": own, "spans": len(tracer.spans),
                       "setups": len(setups), "rounds": len(rounds)}, fh, indent=1)
        print(f"  {len(tracer.spans)} spans and self times in {out.relative_to(ROOT)}.*")
        metrics = {name: {"value": float(merged.get(name, 0.0)), "unit": unit}
                   for name, unit in per_layer_names().items()}

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": sum(attempted.values()),
                      "failed": sum(failed.values()), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
