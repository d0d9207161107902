"""Tests of the cocnet benchmark itself.

Run from the root of a source checkout (builds `cocnet` and the probe on
first use):

    python3 -m unittest discover -s benchmark/tests -v
"""

import json
import os
import shutil
import subprocess
import sys
import types
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".bench_runs", "tests")


def scenario_files(directory):
    """Every generated scenario file's bytes, by file name."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name != "plan.json":
            with open(os.path.join(directory, name), "rb") as f:
                out[name] = f.read()
    return out


class Generation(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cocnet, cls.probe = run.build(ROOT)

    def generate(self, workload, seed):
        directory = os.path.join(WORK, f"{workload}-{seed}")
        shutil.rmtree(directory, ignore_errors=True)
        plan = workloads.generate(workload, seed, directory, self.probe)
        return plan, scenario_files(directory)

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in workloads.GENERATORS:
            with self.subTest(workload=workload):
                _, first = self.generate(workload, 7)
                _, again = self.generate(workload, 7)
                _, other = self.generate(workload, 8)
                self.assertTrue(first)
                self.assertEqual(first, again)
                self.assertEqual(sorted(first), sorted(other))
                for name in first:
                    self.assertNotEqual(first[name], other[name], name)

    def test_every_generated_scenario_validates(self):
        for workload in workloads.GENERATORS:
            with self.subTest(workload=workload):
                plan, _ = self.generate(workload, 3)
                with open(plan) as f:
                    runs = json.load(f)["runs"]
                for r in runs:
                    out = subprocess.run(
                        [self.cocnet, "validate", r["file"]], capture_output=True, text=True
                    )
                    self.assertEqual(out.returncode, 0, out.stdout + out.stderr)


class Metrics(unittest.TestCase):
    def declared(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return (
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
        )

    def test_run_py_units_match_benchmark_json(self):
        end_to_end, per_layer = self.declared()
        self.assertEqual(run.END_TO_END, end_to_end)
        self.assertEqual(run.PER_LAYER, per_layer)

    def test_every_printed_metric_is_declared(self):
        end_to_end, per_layer = self.declared()
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            with self.subTest(trace=trace):
                out = subprocess.run(
                    [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "design_space",
                     "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True,
                )
                self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, declared)


def fact(**overrides):
    base = {
        "stop": "MeasuredComplete", "generated": 110, "delivered_total": 105,
        "unreachable": 0, "completed": True, "delivered_recorded": 100, "mean": 42.0,
    }
    base.update(overrides)
    return base


class Checks(unittest.TestCase):
    def test_healthy_points_pass(self):
        self.assertEqual(run.sim_faults(fact(), 100), [])
        drained = fact(stop="Drained", generated=110, delivered_total=100, unreachable=10)
        self.assertEqual(run.sim_faults(drained, 100), [])

    def test_each_failure_is_caught(self):
        self.assertIn("event_cap", run.sim_faults(fact(stop="EventCap"), 100))
        lost = fact(stop="Drained", delivered_total=100, unreachable=5)
        self.assertIn("conservation", run.sim_faults(lost, 100))
        self.assertIn("conservation", run.sim_faults(fact(delivered_total=111), 100))
        self.assertIn("incomplete", run.sim_faults(fact(completed=False), 100))
        self.assertIn("non_finite", run.sim_faults(fact(mean=float("nan")), 100))
        self.assertEqual(run.model_faults({"rate": 1e-4, "error": "unstable"}, 2e-4), ["no_model_point"])
        self.assertEqual(run.model_faults({"rate": 3e-4, "error": "unstable"}, 2e-4), [])
        self.assertEqual(run.model_faults({"rate": 1e-4, "latency": float("inf")}, 2e-4), ["non_finite"])


class Estimators(unittest.TestCase):
    def test_grid_p50_takes_each_points_fastest_call(self):
        # Two bursts over a three-point grid: the points' fastest calls are
        # 4, 8 and 20 µs, wherever in the bursts they fell.
        session = types.SimpleNamespace(
            grid=3, model=[[5.0, 9.0, 30.0, 4.0, 12.0, 20.0], [6.0, 8.0, 40.0]]
        )
        self.assertEqual(run.grid_p50(session), 8.0)


if __name__ == "__main__":
    unittest.main()
