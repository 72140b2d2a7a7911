#!/usr/bin/env python3
"""Self-test of the benchmark: its checks can trip, and its output matches
BENCHMARK.json.

    python3 perfbench/selftest.py [--seconds 2]

For every workload it makes three short runs:
  * a normal run, which must report correct=true with no failed operation
    and print exactly the end-to-end metrics of BENCHMARK.json, none zero;
  * a run with --perturb 1, which shifts every expected answer by one: it
    must report correct=false and count every attempted operation as failed;
  * a traced run, which must print exactly the per-layer metrics, with the
    serial round trip equal to the sum of its phase self times plus
    phase.residual_us.
Exits non-zero when any of these does not hold.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


PHASES = ["submit", "dispatch", "deserialize", "exec", "result"]


def run(workload, seconds, perturb, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
           "--perturb", str(perturb)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("%s printed no result (exit %d)" % (workload, done.returncode))
    return done.returncode, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        code, plain = run(workload, args.seconds, 0)
        plain_ok = (code == 0 and plain["correct"] and plain["failed"] == 0
                    and list(plain["metrics"]) == end_to_end
                    and all(m["value"] > 0 for m in plain["metrics"].values()))
        code, bent = run(workload, args.seconds, 1)
        bent_ok = (code != 0 and not bent["correct"]
                   and bent["attempted"] > 0
                   and bent["failed"] == bent["attempted"])
        print("%-16s normal: correct=%s failed=%d/%d  perturbed: correct=%s "
              "failed=%d/%d  %s" % (
                  workload, plain["correct"], plain["failed"], plain["attempted"],
                  bent["correct"], bent["failed"], bent["attempted"],
                  "ok" if plain_ok and bent_ok else "FAILED"))
        code, traced = run(workload, args.seconds, 0, trace=1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        phase_sum = sum(layers["phase.%s_us" % p] for p in PHASES)
        identity = abs(layers["phase.rtt_mean_us"] - phase_sum -
                       layers["phase.residual_us"])
        traced_ok = (code == 0 and traced["correct"]
                     and list(layers) == per_layer
                     and layers["phase.rtt_mean_us"] > 0
                     and identity <= 1e-6 * layers["phase.rtt_mean_us"])
        print("%-16s traced: %d per-layer metrics, rtt %.1f us = phases %.1f "
              "+ residual %.1f us  %s" % (
                  workload, len(layers), layers["phase.rtt_mean_us"], phase_sum,
                  layers["phase.residual_us"], "ok" if traced_ok else "FAILED"))
        ok = ok and plain_ok and bent_ok and traced_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
