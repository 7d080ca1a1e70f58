#!/usr/bin/env python3
"""Build the psync benchmark harness and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sim-scale --seed 1 \
        --seconds 10 --trace 0

The harness (perfbench/perfbench.cc) and the psync libraries it links
are built from source in Release mode under .bench_build/perfbench;
later runs rebuild incrementally. Build output goes to stderr, so the
last line on stdout is the harness's JSON result. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("sim-scale", "serve-uniform", "serve-miss")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def step(cmd, timeout):
    """Run a build step with its output on stderr; exit if it fails."""
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit(f"perfbench: {cmd[0]} failed: {err}")
    if code != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} exited with {code}")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"], 300)
    step(["cmake", "--build", BUILD, "--parallel", "4"], 840)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: harness timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: harness exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"perfbench: malformed result: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
