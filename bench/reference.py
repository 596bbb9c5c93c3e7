"""Reference figures for bench/README.md.

    python3 bench/reference.py [--runs 10]

Runs ``run.py`` one process at a time, for ``run_seconds`` of
``BENCHMARK.json``, on every workload it names: a first set of ``--runs``
untraced runs per workload with seeds 1..runs, then a second set with the
next ``--runs`` seeds, then one traced run per workload with seed 1.
Prints, per workload, the share of failed operations and, for each set,
the median of every end-to-end metric with the spread ``(Q3 - Q1) /
median`` that the benchmark's bounds are judged by, the change of the
second median against the first, the traced figures with the tracing
overhead, the per-layer metrics and the largest self times.  Raw results
go to ``bench/.work/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"cores: {os.cpu_count()}, BLAS threads: 1, runs per workload and set: {args.runs}, "
          f"run_seconds: {seconds}")
    sets = []
    for k in range(2):
        seeds = range(k * args.runs + 1, (k + 1) * args.runs + 1)
        sets.append({w: [run(w, seed, seconds, 0) for seed in seeds] for w in workloads})
    traced = {w: run(w, 1, seconds, 1) for w in workloads}
    results = {}
    for workload in workloads:
        with open(HERE / ".work" / f"trace-{workload}-1.json") as fh:
            summary = json.load(fh)
        first, second = sets[0][workload], sets[1][workload]
        results[workload] = {"first": first, "second": second, "traced": traced[workload],
                             "summary": summary}
        both = first + second
        shares = {(r["failed"], r["attempted"]) for r in both}
        print(f"\n## {workload}\n\nfailed/attempted per run: {sorted(shares)}, "
              f"correct in every run: {all(r['correct'] for r in both)}\n")
        print("| metric | median 1 | Q1 | Q3 | spread 1 | median 2 | spread 2 | 2 vs 1 "
              "| bound | traced | overhead |")
        print("|---|---|---|---|---|---|---|---|---|---|---|")
        for name in bounds:
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in first])
            p1, med2, p3 = quartiles([r["metrics"][name]["value"] for r in second])
            t = summary["end_to_end"][name]
            print(f"| `{name}` | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} "
                  f"| {med2:.4g} | {(p3 - p1) / med2:.3f} | {med2 / med - 1:+.1%} "
                  f"| {bounds[name]} | {t:.4g} | {t / med - 1:+.1%} |")
        print("\n| per-layer metric | value |\n|---|---|")
        for name, m in traced[workload]["metrics"].items():
            print(f"| `{name}` | {m['value']:.4g} |")
        print(f"\nlargest self times over the whole traced run ({summary['setups']} set-up "
              f"passes, {summary['rounds']} round(s), {summary['spans']} spans):\n")
        print("| function | self s |\n|---|---|")
        for name, secs in list(summary["self_s"].items())[:12]:
            print(f"| `{name}` | {secs:.3f} |")
    (HERE / ".work").mkdir(exist_ok=True)
    with open(HERE / ".work" / "reference.json", "w") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
