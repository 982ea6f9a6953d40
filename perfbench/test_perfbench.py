#!/usr/bin/env python3
"""Tests of the perfbench driver.  Run from the root of the repository:

    python3 perfbench/test_perfbench.py

Each test builds (or reuses) the driver through perfbench/run.py.
FigureElevenCheck runs all 160 paper-fig11 configurations at the paper's
default trace lengths twice (driver and sim::MeasureAccessTime), which takes
a few minutes.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(*args, env=None):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=900)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def golden_rows(workload):
    rows = {}
    with open(os.path.join(HERE, "golden", workload + ".tsv")) as f:
        for line in f:
            if line.startswith("#") or line.startswith("config\t"):
                continue
            fields = line.rstrip("\n").split("\t")
            rows[fields[0]] = [int(v) for v in fields[1:]]
    return rows


class ArgumentValidation(unittest.TestCase):
    """Every malformed argument exits 2, names the argument, prints no result."""

    def assertRejected(self, flag, *args):
        proc = run(*args)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn(flag, proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_unknown_workload(self):
        self.assertRejected("--workload", "--workload", "no-such-workload")

    def test_missing_workload(self):
        self.assertRejected("--workload", "--seed", "3")

    def test_malformed_seeds(self):
        for seed in ["-5", "abc", "1e3", "", "+7", "18446744073709551616"]:
            with self.subTest(seed=seed):
                self.assertRejected("--seed", "--workload", "paper-fig11", "--seed", seed)

    def test_malformed_lengths(self):
        for length in ["-5", "abc", "1e3", "0", "6000001", "99999999999999999999999"]:
            with self.subTest(length=length):
                self.assertRejected("--length", "--workload", "paper-fig11", "--length", length)

    def test_length_maximum_is_per_workload(self):
        self.assertRejected("--length", "--workload", "map-churn", "--length", "1000001")

    def test_malformed_seconds_and_trace(self):
        self.assertRejected("--seconds", "--workload", "miss-storm", "--seconds", "0")
        self.assertRejected("--seconds", "--workload", "miss-storm", "--seconds", "601")
        self.assertRejected("--trace", "--workload", "miss-storm", "--trace", "2")

    def test_unknown_flag(self):
        self.assertRejected("--bogus", "--workload", "miss-storm", "--bogus", "1")


class Runs(unittest.TestCase):
    def test_default_seed_matches_golden(self):
        for workload in ["paper-fig11", "miss-storm", "map-churn"]:
            with self.subTest(workload=workload):
                proc = run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                r = result(proc)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], len(golden_rows(workload)))
                self.assertIn("perf_event counters were not collected", proc.stdout)

    def test_trace_length_env_is_ignored(self):
        env = dict(os.environ, CPT_TRACE_LEN="-5")
        proc = run("--workload", "paper-fig11", "--seconds", "1", env=env)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("length 50000 references", proc.stdout)

    def test_traced_run_checks_itself(self):
        proc = run("--workload", "miss-storm", "--seed", "9", "--length", "20000",
                   "--seconds", "1", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("equal the Machine's on every configuration", proc.stdout)
        r = result(proc)
        self.assertTrue(r["correct"])
        for name in ["tlb.ns_per_ref", "pt.walk_ns_per_miss", "sim.access_ns_per_ref",
                     "os.unmap_ns_per_page", "trace_overhead_s"]:
            self.assertIn(name, r["metrics"])


class FigureElevenCheck(unittest.TestCase):
    def test_golden_fig11b_matches_committed_report(self):
        # BENCH_fig11b.json was recorded at 50000 references per
        # configuration, paper-fig11's default length.
        with open(os.path.join(ROOT, "BENCH_fig11b.json")) as f:
            report = json.load(f)
        self.assertEqual(report["trace_len_override"], 50000)
        rows = golden_rows("paper-fig11")
        entries = [e for e in report["entries"] if e["type"] == "access"]
        self.assertEqual(len(entries), 40)
        for e in entries:
            m = e["measurement"]
            (misses, block, subblock, denom, _walks, lines, pt_bytes, _mapped, _unmapped,
             faults) = rows["fig11b/%s/%s" % (e["series"], m["workload"])]
            self.assertEqual((misses, block, subblock, denom, pt_bytes, faults),
                             (m["effective_misses"], m["block_misses"], m["subblock_misses"],
                              m["denominator_misses"], m["pt_bytes"], m["page_faults"]))
            self.assertEqual(lines / denom, m["avg_lines_per_miss"])

    def test_driver_matches_measure_access_time_at_paper_lengths(self):
        proc = run("--check-fig11")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        configs = [json.loads(line) for line in proc.stdout.splitlines()]
        self.assertEqual(len(configs), 160)
        self.assertTrue(all(c["same_as_measure_access_time"] for c in configs))


if __name__ == "__main__":
    unittest.main()
