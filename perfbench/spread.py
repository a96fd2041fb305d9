#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload small_fabric --seeds 1-10 --label A \\
        --seconds 20 --tsv perfbench/noise_runs.tsv

Run from the repository root. Each seed is one `run.py` run; its metrics are
appended as rows to the TSV (set label, workload, seed, metric, value), and
the table printed at the end gives, per metric, the median and the spread:
the interquartile range over the median, as statistics.quantiles(n=4) gives
it. A run that fails or reports correct=false is printed and left out; the
script then exits non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="'1-10' or '1,4,7'")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--label", default="")
    parser.add_argument("--tsv")
    args = parser.parse_args()

    values = {}
    failed = False
    for seed in seeds_of(args.seeds):
        done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", args.workload, "--seed", str(seed),
                               "--seconds", args.seconds, "--trace", "0"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        lines = done.stdout.decode().strip().splitlines()
        if done.returncode != 0 or not lines:
            print("seed %d: run failed" % seed, flush=True)
            failed = True
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: correct=false\n%s" % (seed, "\n".join(lines[:-1])), flush=True)
            failed = True
            continue
        # The run's worst steal share among the slices its figures used.
        steal = [line.split()[5::2] for line in lines if line.startswith("worst chosen steal")]
        metrics = dict(result["metrics"])
        if steal:
            metrics["host.worst_chosen_steal_pct"] = {"value": max(float(v) for v in steal[0])}
        # The same figures in wall time, before the run-share adjustment.
        for line in lines:
            if line.startswith("in wall time:"):
                words = line.split()[3:]
                for name, value in zip(words[::2], words[1::2]):
                    metrics["wall." + name] = {"value": float(value)}
        row = []
        for name, metric in metrics.items():
            values.setdefault(name, []).append(metric["value"])
            row.append("%s=%.5g" % (name, metric["value"]))
            if args.tsv:
                with open(args.tsv, "a") as tsv:
                    tsv.write("%s\t%s\t%d\t%s\t%.17g\n" % (args.label, args.workload, seed, name,
                                                          metric["value"]))
        print(seed, " ".join(row), flush=True)

    for name, vals in values.items():
        median = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and median:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
        print("%-24s median %-12.5g spread %6.1f%%  min %.5g max %.5g"
              % (name, median, spread * 100, min(vals), max(vals)))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
