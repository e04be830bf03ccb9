"""Steadiness of the end-to-end metrics over repeated runs.

    python3 bench/steady.py [--workloads catalog,scripts,repl,models]
                            [--runs 10] [--first-seed 1] [--trace 0]

Runs ``bench/run.py`` RUNS times per workload, each time with the next
seed and the run length of BENCHMARK.json, from the current directory
(the root of a checkout).  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (Q3 - Q1) / median, next to the metric's bound.  A spread above
a third of the bound is flagged.  It also prints each run's share of
failed operations, which must be identical across runs.  With --trace 1
it runs the traced mode RUNS times with the first seed and reports which
per-layer metrics repeated exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, seed, seconds, trace):
    """The run's JSON result, with its wall time added as ``elapsed``."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout.decode()
    result = json.loads(out.strip().splitlines()[-1])
    result["elapsed"] = time.perf_counter() - t0
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="catalog,scripts,repl,models")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        # traced counts must repeat for one seed; timed runs vary the seed
        seeds = [args.first_seed + (0 if args.trace else k) for k in range(args.runs)]
        runs = [one_run(workload, s, spec["run_seconds"], args.trace) for s in seeds]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"correct={correct}, failed shares {shares}, "
              f"{max(r['elapsed'] for r in runs):.0f} s for the longest run")
        if args.trace:
            for name in runs[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in runs]
                print(f"  {name:38s} first {vals[0]:>12.6g}  "
                      f"{'same in every run' if len(set(vals)) == 1 else 'varies'}")
            continue
        for seed, r in zip(seeds, runs):
            print(f"  seed {seed:3d}: " + "  ".join(
                f"{name}={r['metrics'][name]['value']:.5g}" for name in bounds))
        print(f"  {'metric':16s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  > bound/3"
            print(f"  {name:16s} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.1%} {bound:6.0%}{flag}")


if __name__ == "__main__":
    main()
