#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark program if needed (as run.py does), then runs a tiny smoke
configuration of every workload, untraced and traced, and checks:
  - every metric in BENCHMARK.json is emitted with its unit, and no other;
  - each smoke run passes all of its checks;
  - in the span dumps, no self time exceeds its span's duration;
  - BENCHMARK.json keeps the shape the runner expects;
  - without the library sources the runner fails and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".bench_build", "runs")
WORKLOADS = ("cold_scale", "online_churn", "paper_validate")
SEED = 5


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_smoke(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
         "--trace", str(trace), "--smoke", "1"],
        cwd=root, capture_output=True, text=True, timeout=900)


class SmokeRuns(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = run_smoke(workload, trace)
                if proc.returncode != 0:
                    raise AssertionError("%s trace %d failed:\n%s" % (
                        workload, trace, proc.stderr[-4000:]))
                lines = proc.stdout.strip().split("\n")
                cls.results[(workload, trace)] = (lines, json.loads(lines[-1]))

    def test_every_metric_emitted_with_its_unit(self):
        spec = load_spec()
        for (workload, trace), (lines, result) in self.results.items():
            want = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            self.assertEqual(sorted(got), sorted(m["name"] for m in want),
                             workload)
            for m in want:
                self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
                self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_end_to_end_metrics_are_never_zero(self):
        for (workload, trace), (_, result) in self.results.items():
            if trace:
                continue
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, (workload, name))

    def test_smoke_runs_pass_their_checks(self):
        for key, (lines, result) in self.results.items():
            self.assertTrue(result["correct"], key)
            self.assertGreaterEqual(result["attempted"], 1, key)
            self.assertEqual(result["failed"], 0, key)

    def test_host_fingerprint_is_printed(self):
        for key, (lines, _) in self.results.items():
            host = [l for l in lines if l.startswith("host ")]
            self.assertEqual(len(host), 1, key)
            fp = json.loads(host[0][len("host "):])
            for field in ("cpu", "nproc", "compiler", "lane_width", "threads",
                          "oversubscribed"):
                self.assertIn(field, fp)
            self.assertLessEqual(fp["threads"], 4)

    def test_self_time_never_exceeds_span_time(self):
        for workload in WORKLOADS:
            path = os.path.join(RUNS, "spans-%s-%d.json" % (workload, SEED))
            with open(path) as f:
                dump = json.load(f)
            self.assertTrue(dump["spans"], workload)
            for kind in ("spans", "zones"):
                for s in dump[kind]:
                    duration = s["end_ms"] - s["start_ms"]
                    self.assertGreaterEqual(s["self_ms"], 0.0)
                    self.assertLessEqual(s["self_ms"], duration + 1e-9,
                                         (workload, kind, s["name"]))
            # The sharded greedy's zones nest inside alloc.initial, whose
            # self time then leaves their time out.
            if workload == "cold_scale":
                zones = dump["zones"]
                nested = [z for z in zones if z["parent"] >= 0]
                self.assertTrue(nested)
                for z in nested:
                    parent = zones[z["parent"]]
                    self.assertLessEqual(
                        parent["self_ms"],
                        parent["end_ms"] - parent["start_ms"]
                        - (z["end_ms"] - z["start_ms"]) + 1e-9)


class BenchmarkFile(unittest.TestCase):
    def test_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


class WithoutSources(unittest.TestCase):
    def test_runner_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_smoke("cold_scale", 0, root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
