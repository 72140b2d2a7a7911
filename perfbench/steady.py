#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and compare the spread of
every end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py                  # 10 runs of every workload
    python3 perfbench/steady.py --runs 5 --workload context-churn

Each run uses another seed (seed-base, seed-base+1, ...).  For every metric
it prints the median, the first and third quartiles (statistics.quantiles
with n=4) and the spread, (q3 - q1) / median, against the metric's bound;
a spread above a third of the bound is flagged, as is any run whose share of
failed operations differs from the first run's.  Exits non-zero when a run
fails or reports incorrect outputs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, done.returncode))
    return json.loads(lines[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--show-runs", action="store_true",
                        help="also print every run's end-to-end figures")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    for workload in workloads:
        results = []
        for i in range(args.runs):
            result = run_once(workload, args.seed_base + i, args.seconds)
            results.append(result)
            if not result["correct"]:
                status = 1
            if args.show_runs:
                print("  seed %d: %s" % (args.seed_base + i, "  ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in result["metrics"].items())), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print("== %s: %d runs, failed share %s%s" % (
            workload, len(results), sorted(shares),
            "" if len(shares) == 1 else "  ** differs between runs **"))
        print("%-18s %12s %12s %12s %8s %7s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("inf")
            flag = ""
            if name != "setup_s" and spread > metric["bound"]:
                flag = "  ** over bound **"
            elif spread > metric["bound"] / 3:
                flag = "  * over a third of the bound"
            print("%-18s %12.6g %12.6g %12.6g %8.4f %7.3f%s" % (
                name, median, q1, q3, spread, metric["bound"], flag))
    return status


if __name__ == "__main__":
    sys.exit(main())
