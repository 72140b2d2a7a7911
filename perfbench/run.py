#!/usr/bin/env python3
"""Build the benchmark from source (optimised) and run one workload.

    python3 perfbench/run.py --workload invoke-hot --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The first run configures and builds
`perfbench` with CMake in `.bench_build/perfbench` (or `$CARGO_TARGET_DIR/
perfbench` when that is set); later runs only rebuild what changed.  Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result.  Every argument is passed on to the binary (see src/main.cpp).
Exits non-zero, printing no result, when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j4", "--target", "perfbench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 1
    binary = os.path.join(out, "perfbench")
    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
