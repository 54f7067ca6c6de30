#!/usr/bin/env python3
"""Regenerate the benchmark's reference figures.

    python3 bench/figures.py

Runs ``bench/run.py`` on every workload of ``BENCHMARK.json``, each run in a
fresh interpreter and one after another: a first set of runs with seeds
1-10, a second set with seeds 11-20, and one traced run with seed 1.  It
prints per workload and metric each set's median and spread (quartile
distance over the median, from ``statistics.quantiles(values, n=4)``), the
second median over the first, the failed share, and the per-layer figures
of the traced runs.  Run length comes from ``BENCHMARK.json``.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = (range(1, 11), range(11, 21))
TRACE_SEED = 1


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    layers = {}
    for workload in (w["name"] for w in bench["workloads"]):
        start = time.perf_counter()
        sets = [[run(workload, s, seconds, 0) for s in seeds] for seeds in SETS]
        took = (time.perf_counter() - start) / sum(len(s) for s in sets)
        results = [r for s in sets for r in s]
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        print(f"\n{workload}: two sets of {len(SETS[0])} runs, {took:.1f} s per run, "
              f"correct {all(r['correct'] for r in results)}, failed/attempted {shares}\n")
        print("| metric | unit | median 1 | spread 1 | median 2 | spread 2 "
              "| median 2 / median 1 | bound |")
        print("|---|---|---|---|---|---|---|---|")
        for name, m in results[0]["metrics"].items():
            (med1, sp1), (med2, sp2) = (
                spread([r["metrics"][name]["value"] for r in s]) for s in sets)
            print(f"| {name} | {m['unit']} | {med1:.4g} | {sp1:.3f} | {med2:.4g} | {sp2:.3f} "
                  f"| {med2 / med1:.3f} | {bounds[name]} |")
        sys.stdout.flush()
        layers[workload] = run(workload, TRACE_SEED, seconds, 1)["metrics"]

    names = list(layers)
    print(f"\nper layer, traced run with seed {TRACE_SEED}\n")
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for metric, m in layers[names[0]].items():
        cells = [f"{layers[w][metric]['value']:.4g}" for w in names]
        print(f"| {metric} | {m['unit']} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
