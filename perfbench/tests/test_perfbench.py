#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 perfbench/tests/test_perfbench.py

The input-determinism test builds the benchmark binary first (as run.py does).
"""

import filecmp
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(stats.beyond(90, 100), 10)
        self.assertEqual(stats.highest_reportable(100), 90)
        self.assertEqual(stats.beyond(90, 99), 9)
        self.assertIsNone(stats.highest_reportable(99))
        self.assertIsNone(stats.highest_reportable(5))

    def test_highest_candidate_with_ten_beyond_wins(self):
        self.assertEqual(stats.highest_reportable(1000, (50, 90, 99)), 99)
        self.assertEqual(stats.highest_reportable(999, (50, 90, 99)), 90)
        self.assertEqual(stats.highest_reportable(19, (50, 90, 99)), None)
        self.assertEqual(stats.highest_reportable(20, (50, 90, 99)), 50)

    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile([7.0], 90), 7.0)

    def test_class_stats_reports_tail_only_when_allowed(self):
        self.assertNotIn("p90_ms", run.class_stats([1.0] * 99))
        entry = run.class_stats([float(i) for i in range(1, 101)])
        self.assertEqual(entry["p90_ms"], 90.0)
        self.assertEqual(entry["samples"], 100)
        self.assertEqual(entry["p50_ms"], 50.5)


def span(ident, parent, start, end):
    return {"id": ident, "parent": parent, "start_us": start, "end_us": end}


class SelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30)]
        self.assertEqual(stats.self_times(spans), {1: 50, 2: 40, 3: 10})

    def test_overlapping_children_are_subtracted_once(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 80),
                 span(4, 1, 45, 50)]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[1], 30)
        self.assertEqual(selfs[2], 50)

    def test_child_outside_its_parent_is_clipped(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 5, 20)]
        self.assertEqual(stats.self_times(spans)[1], 5)

    def test_self_times_add_up_to_the_covered_time(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30),
                 span(4, 0, 120, 150)]
        self.assertEqual(sum(stats.self_times(spans).values()), 130)
        self.assertEqual(stats.uncovered(spans, 0, 200), 70)

    def test_uncovered_with_overlapping_top_level_spans(self):
        spans = [span(1, 0, 10, 20), span(2, 0, 15, 30)]
        self.assertEqual(stats.uncovered(spans, 0, 50), 30)


class MetricNames(unittest.TestCase):
    def test_valid_names(self):
        for name in ("latency_p50_ms", "runner.stage.solve.hits", "a", "0x", "a-b", "x" * 64):
            self.assertTrue(stats.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", ".x", "_x", "-x", "a b", "a/b", "x" * 65, "é", "a\n", None):
            self.assertFalse(stats.valid_name(name), name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "MB", "x"):
            self.assertTrue(stats.valid_unit(unit), unit)
        for unit in ("", "per second", "x" * 17):
            self.assertFalse(stats.valid_unit(unit), unit)

    def test_every_reported_metric_is_valid_and_unique(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            names = [name for name, _ in table]
            self.assertEqual(len(names), len(set(names)))
            for name, unit in table:
                self.assertTrue(stats.valid_name(name), name)
                self.assertTrue(stats.valid_unit(unit), unit)

    def test_metrics_document_rejects_undeclared_names(self):
        metrics = run.Metrics(run.END_TO_END)
        with self.assertRaises(run.BenchError):
            metrics.set("not_declared", 1.0)

    def test_negative_remainder_is_listed_invalid_not_reported(self):
        metrics = run.Metrics(run.PER_LAYER)
        metrics.set_remainder("runner.overhead_s", 0.25)
        metrics.set_remainder("daemon.transport_ms.cold", -0.4)
        document = metrics.document()
        self.assertEqual(document["runner.overhead_s"]["value"], 0.25)
        self.assertEqual(document["daemon.transport_ms.cold"]["value"], 0.0)
        self.assertEqual(metrics.invalid, {"daemon.transport_ms.cold": -0.4})
        self.assertIn("daemon.transport_ms.cold", metrics.missing)


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())

    def test_keys_and_limits(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertTrue(stats.valid_name(workload["name"]))
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))
        self.assertLessEqual(len(json.dumps(spec)), 64 * 1024)

    def test_matches_what_run_reports(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         list(run.PER_LAYER))


class SeededInputs(unittest.TestCase):
    def test_one_seed_gives_byte_identical_inputs(self):
        binary, _ = run.build()
        with tempfile.TemporaryDirectory(dir=run.BUILD) as scratch:
            dirs = {}
            for label, seed in (("a", 7), ("b", 7), ("c", 8)):
                directory = pathlib.Path(scratch) / label
                directory.mkdir()
                dirs[label] = directory
                for workload in run.WORKLOADS:
                    subprocess.run([str(binary), "--mode", "inputs", "--workload", workload,
                                    "--seed", str(seed), "--out", str(directory)], check=True)
            files = sorted(p.name for p in dirs["a"].iterdir())
            self.assertEqual(len(files), len(run.WORKLOADS))
            for name in files:
                self.assertTrue(filecmp.cmp(dirs["a"] / name, dirs["b"] / name, shallow=False),
                                f"{name} differs between two runs of seed 7")
                self.assertFalse(filecmp.cmp(dirs["a"] / name, dirs["c"] / name, shallow=False),
                                 f"{name} is the same for seeds 7 and 8")


if __name__ == "__main__":
    unittest.main()
