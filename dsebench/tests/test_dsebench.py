#!/usr/bin/env python3
"""Tests of the end-to-end DSE benchmark itself.

Run from the repository root:

    python3 dsebench/tests/test_dsebench.py

They build the benchmark through dsebench/run.py (as a measured run
does), then:
  - run every workload briefly in the measured and the traced mode and
    check the result line: its exact keys, zero failures, and exactly
    the metric names, units and name charset BENCHMARK.json declares;
  - corrupt one checked result per workload (--inject-fault) and check
    that it is counted as a failed operation, so the checker is
    checked too;
  - check that bad usage exits non-zero without a result line.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


BINARY = os.path.join(
    os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                    or os.path.join(ROOT, ".bench_build")),
    "dsebench", "dsebench")


def setUpModule():
    # The first run builds the benchmark; later tests call the binary.
    proc, result = run(WORKLOADS[0], "0", seconds="0.1")
    if proc.returncode != 0 or result is None:
        raise RuntimeError("benchmark build or smoke run failed:\n" +
                           proc.stderr[-4000:])


def run(workload, trace, *extra, seconds="1"):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", trace, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


class ResultLine(unittest.TestCase):
    def check(self, workload, trace, declared):
        proc, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertIsNotNone(result, proc.stdout[-2000:])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            # A float, never an integer literal: whole values such as
            # an EDP above 2^53 must still print with a point.
            self.assertIsInstance(got["value"], float, m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_measured_mode_reports_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, "0", SPEC["end_to_end"])

    def test_traced_mode_reports_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, "1", SPEC["per_layer"])


class Checker(unittest.TestCase):
    def test_corrupted_result_counts_as_failed_operation(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, "0", "--inject-fault")
                self.assertNotEqual(proc.returncode, 0)
                self.assertIsNotNone(result, proc.stdout[-2000:])
                self.assertIs(result["correct"], False)
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLessEqual(result["failed"], result["attempted"])

    def test_bad_usage_prints_no_result(self):
        for args in (["--workload", "no-such-workload", "--seed", "1",
                      "--seconds", "1", "--trace", "0"],
                     ["--workload", WORKLOADS[0], "--seed", "1",
                      "--seconds", "1", "--trace", "2"]):
            proc = subprocess.run([BINARY, *args], cwd=ROOT,
                                  capture_output=True, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
