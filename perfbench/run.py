#!/usr/bin/env python3
"""Builds the vetting-stack benchmark from source and runs one workload.

    python3 perfbench/run.py --workload market_mix --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench
(Release); the first run compiles the stack, later runs only re-check it.
Build output goes to stderr; the benchmark's last stdout line is its JSON
result. Exits non-zero, printing no result, when the sources are missing or
the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the stack's sources (src/) are not in this checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               # Relative, so socket paths stay under the unix sun_path limit.
               "--work-dir", os.path.join(".bench_build", "work")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    output = done.stdout.decode()
    if done.returncode != 0:
        sys.stderr.write(output)
        sys.exit("perfbench: benchmark exited with %d" % done.returncode)
    sys.stdout.write(output)


if __name__ == "__main__":
    main()
