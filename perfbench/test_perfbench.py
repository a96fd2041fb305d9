#!/usr/bin/env python3
"""The benchmark's own checks. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does), then checks that inputs are a pure
function of the seed, that every corrupt input really fails apk::ParseApk,
and that each workload prints exactly the metric names and units that
BENCHMARK.json declares, with and without tracing. Takes about three minutes.
"""

import json
import os
import re
import subprocess
import unittest

import run

WORKLOADS = ("market_mix", "small_fabric", "upload_resubmit")


def bench(*args):
    done = subprocess.run([run.BINARY, *args, "--work-dir", os.path.join(".bench_build", "test")],
                          cwd=run.ROOT, stdout=subprocess.PIPE, check=True, timeout=170)
    return done.stdout.decode()


def list_inputs(workload, seed):
    out = bench("--workload", workload, "--seed", str(seed), "--list-inputs", "160")
    items = re.findall(r"^item .*$", out, re.M)
    corrupt = re.findall(r"^corrupt \d+ (\w+)$", out, re.M)
    return items, corrupt


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, _ = list_inputs(workload, 11)
                again, _ = list_inputs(workload, 11)
                other, _ = list_inputs(workload, 12)
                self.assertEqual(len(first), 160)
                self.assertEqual(first, again)
                digests = lambda items: {line.split("sha1=")[1] for line in items}
                # Upload repeats are drawn from the set-up set, so only the
                # seed-specific fresh items must differ.
                self.assertLess(len(digests(first) & digests(other)), len(digests(first)) // 2)

    def test_corrupt_inputs_fail_to_parse(self):
        _, corrupt = list_inputs("market_mix", 11)
        self.assertTrue(corrupt)
        self.assertEqual(set(corrupt), {"rejected"})


class MetricNamesTest(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    out = bench("--workload", workload, "--seed", "3", "--seconds", "6",
                                "--trace", str(trace))
                    result = json.loads(out.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out)
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)


if __name__ == "__main__":
    run.build()
    unittest.main()
