#!/usr/bin/env python3
"""The benchmark's own tests: tiny-size smoke runs of every workload.

    python3 perfbench/tests/test_smoke.py

Each workload runs in --smoke mode (16- and 30-node platforms, every step
checked) untraced and traced; the result line must carry exactly the metrics
BENCHMARK.json declares.  One run corrupts a schedule, which must count as
exactly one failed operation.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args):
    out = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True, text=True, timeout=600)
    return out


def result(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace, declared):
        out = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace,
                    "--smoke")
        res = result(out)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], out.stdout)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(res["metrics"][m["name"]]["unit"], m["unit"])
        return res, out.stdout

    def test_workloads_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res, _ = self.check_run(w["name"], "0", SPEC["end_to_end"])
                for name, metric in res["metrics"].items():
                    self.assertGreater(metric["value"], 0.0, name)
                self.assertGreaterEqual(res["metrics"]["delivered_ratio_min"]["value"], 0.999)

    def test_workloads_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res, stdout = self.check_run(w["name"], "1", SPEC["per_layer"])
                self.assertIn("self-time sum / e2e", stdout)
                self.assertIn("tracing overhead", stdout)
                for name in ("flow.separation_ms", "lp.master_ms", "sched.decompose_ms",
                             "sched.check_ms", "sim.replay_ms", "graph.pricing_ms",
                             "service.mutation_us"):
                    self.assertGreater(res["metrics"][name]["value"], 0.0, name)

    def test_corrupted_schedule_counts_as_failed(self):
        for workload in ("link_schedule", "cold_plan"):
            with self.subTest(workload=workload):
                out = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace",
                            "0", "--smoke", "--corrupt-schedule")
                res = result(out)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], 1)
                self.assertIn("check_schedule", out.stdout)

    def test_same_seed_same_inputs(self):
        # Counts of a traced run depend only on the inputs, not on timing.
        counts = []
        for _ in range(2):
            out = bench("--workload", "cold_plan", "--seed", "3", "--seconds", "1", "--trace",
                        "1", "--smoke")
            metrics = result(out)["metrics"]
            counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
        self.assertEqual(counts[0], counts[1])

    def test_bad_arguments_fail_without_a_result(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     ["--workload", "cold_plan", "--seed", "1", "--seconds", "0", "--trace", "0"],
                     ["--workload", "cold_plan", "--seed", "x", "--seconds", "1", "--trace", "0"],
                     ["--workload", "cold_plan", "--seed", "1", "--seconds", "1"]):
            with self.subTest(args=args):
                out = bench(*args)
                self.assertNotEqual(out.returncode, 0)
                self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
