"""Self-tests of the benchmark harness.

    python3 -m unittest perfbench.test_perfbench     (from the repository root)

The smoke test runs every workload once at tiny sizes, with and without
tracing, and checks that the result line carries exactly the metrics that
BENCHMARK.json declares.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import checks, run, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Op, tables  # noqa: E402


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_harness(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class SmokeTest(unittest.TestCase):
    def test_every_declared_metric_is_emitted(self):
        bench = bench_json()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in bench[key]}
            for w in bench["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc = run_harness("--workload", w["name"], "--seed", "3", "--seconds", "1",
                                       "--trace", str(trace), "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, declared)

    def test_declared_workloads_exist(self):
        self.assertEqual({w["name"] for w in bench_json()["workloads"]}, set(WORKLOADS))

    def test_refuses_to_run_without_the_package(self):
        bare = os.path.join(HERE, "out", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run_harness("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0",
                               cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class FailedOperationTest(unittest.TestCase):
    def setUp(self):
        self.curve = tables(seed=5, smoke=True).ops[0]
        self.assertEqual(self.curve.kind, "curve-linear")

    def test_corrupted_row_is_a_failed_operation(self):
        (rc, out), _ = run.Runner(in_process=False)(self.curve)
        lines = out.splitlines()
        cells = lines[7].split(",")
        cells[1] = repr(float(cells[1]) * (1.0 + 1e-9))  # beta off by one part in 1e9
        lines[7] = ",".join(cells)
        corrupted = "\n".join(lines) + "\n"

        tally = run.Tally()
        run.run_pass([self.curve], lambda op: ((rc, out), 0.1), tally)
        self.assertEqual((tally.attempted, tally.failed), (1, 0))
        run.run_pass([self.curve], lambda op: ((rc, corrupted), 0.1), tally)
        self.assertEqual((tally.attempted, tally.failed, tally.unexpected), (2, 1, 1))
        self.assertIn("row 6", tally.reasons[0])

    def test_nonzero_exit_is_a_failed_operation(self):
        bad = Op("curve-linear", check=self.curve.check, argv=["curve", "--samples", "1"])
        tally = run.Tally()
        run.run_pass([bad], run.Runner(in_process=False), tally)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("exit code 1", tally.reasons[0])

    def test_known_defect_is_counted_but_marked(self):
        def fail():
            raise ZeroDivisionError("float division by zero")

        tally = run.Tally()
        probe = Op("curve_point", check=None, call=fail, known_raise=ZeroDivisionError)
        run.run_pass([probe], run.Runner(in_process=True), tally)
        self.assertEqual((tally.failed, tally.known, tally.unexpected), (1, 1, 0))
        other = Op("curve_point", check=None, call=fail, known_raise=ValueError)
        run.run_pass([other], run.Runner(in_process=True), tally)
        self.assertEqual((tally.failed, tally.known, tally.unexpected), (2, 1, 1))

    def test_zero_field_defect_is_known_only_on_its_own_rows(self):
        jz, near, far = 1.0, 1.0 + 1e-7, 1.5
        m_far = 1.0
        for _ in range(500):  # the stable root of m = tanh(1.5 m), by iteration
            m_far = math.tanh(far * m_far)

        def csv(*rows):
            return "beta,m,s,lambda\n" + "".join(f"{b!r},{m!r},0,0\n" for b, m in rows)

        ok = checks.check_zero_field(0, csv((far, m_far)), rows=1, jz=jz)
        self.assertIsNone(ok)
        known = checks.check_zero_field(0, csv((near, 0.0), (far, m_far)), rows=2, jz=jz)
        self.assertIsInstance(known, checks.KnownDefect)
        for out, rows in ((csv((near, 0.0), (far, 0.0)), 2),       # m = 0 away from the band
                          (csv((near, 0.0), (far, m_far)), 3),     # a missing row
                          (csv((near, 0.5), (far, m_far)), 2)):    # not the defect's answer
            failure = checks.check_zero_field(0, out, rows=rows, jz=jz)
            self.assertIsNotNone(failure)
            self.assertNotIsInstance(failure, checks.KnownDefect)


class StatisticsTest(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        self.assertEqual(run.tail(list(range(100))), (89, 10))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 0))

    def test_count_drift_names_the_counter(self):
        passes = [{"calls": {"a": 2, "b": 1}}, {"calls": {"a": 2, "b": 3}}]
        self.assertEqual(tracing.count_drift(passes), ["b"])


if __name__ == "__main__":
    unittest.main()
