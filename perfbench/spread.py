#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]

For every workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median, next to the
metric's bound from BENCHMARK.json. A spread at or above a third of its
bound is flagged; setup_s is judged only by its median. Runs go one after
another, never in parallel, so they do not disturb each other.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: correct=%s failed=%d" % (
            workload, seed, result["correct"], result["failed"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(workload, seed, args.seconds))
            print("%s seed %d: %s" % (workload, seed, json.dumps(runs[-1])),
                  flush=True)
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            flag = "ok"
            if name != "setup_s" and share >= bound / 3:
                flag = "WIDE"
                steady = False
            print("%-14s %-16s median=%-12.6g spread=%6.2f%%  bound=%4.0f%%  %s"
                  % (workload, name, med, 100 * share, 100 * bound, flag),
                  flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
