"""Unit tests for the benchmark's own code.

    python3 perfbench/tests/test_benchlib.py
"""

import json
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from benchlib import parse, schedule, spans, stats, workloads  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_tail_keeps_ten_samples_beyond(self):
        # 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        p, value, count = stats.tail(list(range(1000)))
        self.assertEqual((p, value, count), (99.0, 989, 1000))
        # 10000 samples: p99.9 leaves 10 beyond.
        self.assertEqual(stats.tail(list(range(10000)))[0], 99.9)
        # 200 samples: p95 leaves 10 beyond, p99 only 2.
        self.assertEqual(stats.tail(list(range(200)))[:2], (95.0, 189))

    def test_tail_of_few_samples_is_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (100.0, 3.0, 3))


class ScheduleTest(unittest.TestCase):
    def test_poisson_is_seeded(self):
        a = schedule.poisson_arrivals(2000, 1.0, random.Random("7:2000"))
        b = schedule.poisson_arrivals(2000, 1.0, random.Random("7:2000"))
        c = schedule.poisson_arrivals(2000, 1.0, random.Random("8:2000"))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_poisson_rate_and_order(self):
        times = schedule.poisson_arrivals(5000, 2.0, random.Random(1),
                                          start_us=100)
        self.assertEqual(times, sorted(times))
        self.assertGreaterEqual(times[0], 100)
        self.assertLess(times[-1], 100 + 2_000_000)
        self.assertAlmostEqual(len(times) / 10000, 1.0, delta=0.05)

    def test_zipf_is_seeded_and_skewed(self):
        zipf = schedule.Zipf(500, 1.0)

        def draws(seed):
            rng = random.Random(seed)
            return [zipf.draw(rng) for _ in range(2000)]

        draws_b = draws(3)
        self.assertEqual(draws(3), draws_b)
        self.assertNotEqual(draws(4), draws_b)
        self.assertTrue(all(0 <= d < 500 for d in draws_b))
        # P(0) = 1 / H(500), about 0.147.
        share = draws_b.count(0) / len(draws_b)
        self.assertAlmostEqual(share, 0.147, delta=0.03)
        self.assertGreater(draws_b.count(0), draws_b.count(10))


class ParseTest(unittest.TestCase):
    STATS = ('{"op":"stats","serve_requests":120,"serve_batches":40,'
             '"latency_ms_p99":1.25,"note":"x","flag":true}')

    def test_stats_line(self):
        fields = parse.parse_op_line(self.STATS, "stats")
        self.assertEqual(fields["serve_requests"], 120.0)
        self.assertEqual(fields["latency_ms_p99"], 1.25)
        self.assertNotIn("note", fields)
        self.assertNotIn("flag", fields)

    def test_fleet_line(self):
        line = ('{"op":"fleet","workers":2,"restarts":0,"w0_pid":41,'
                '"w0_port":5000,"w0_gen":1}')
        fields = parse.parse_op_line(line, "fleet")
        self.assertEqual(fields["workers"], 2.0)
        self.assertEqual(fields["w0_port"], 5000.0)

    def test_wrong_op_or_garbage_raises(self):
        with self.assertRaises(ValueError):
            parse.parse_op_line(self.STATS, "fleet")
        with self.assertRaises(ValueError):
            parse.parse_op_line("{not json", "stats")
        with self.assertRaises(ValueError):
            parse.parse_op_line("[1, 2]", "stats")

    def test_finetune_stdout(self):
        text = ("zero-shot F1 58.28 -> fine-tuned F1 84.78 (train 2500 -> "
                "2500 pairs, best epoch 9)\n")
        self.assertEqual(parse.parse_finetune_stdout(text),
                         (58.28, 84.78, 2500))
        with self.assertRaises(ValueError):
            parse.parse_finetune_stdout("nothing here")


def span(name, parent, start, end):
    return {"name": name, "parent": parent, "start_ns": start, "end_ns": end}


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        recorded = [span("root", -1, 0, 100),
                    span("a", 0, 10, 40),
                    span("b", 0, 50, 70),
                    span("a.inner", 1, 20, 30)]
        self_ns = spans.self_times_ns(recorded)
        self.assertEqual(self_ns["root"], 100 - 30 - 20)
        self.assertEqual(self_ns["a"], 30 - 10)
        self.assertEqual(self_ns["b"], 20)
        self.assertEqual(self_ns["a.inner"], 10)
        # Self times partition the root.
        self.assertEqual(sum(self_ns.values()), 100)

    def test_overlapping_and_overhanging_children_count_once(self):
        recorded = [span("root", -1, 0, 100),
                    span("x", 0, 10, 60),
                    span("y", 0, 40, 80),
                    span("z", 0, 90, 120)]
        self.assertEqual(spans.self_times_ns(recorded)["root"],
                         100 - 70 - 10)

    def test_same_name_spans_sum(self):
        recorded = [span("root", -1, 0, 100),
                    span("call", 0, 0, 10),
                    span("call", 0, 20, 35)]
        self_ns = spans.self_times_ns(recorded)
        self.assertEqual(self_ns["call"], 25)
        self.assertEqual(self_ns["root"], 75)

    def test_coverage(self):
        recorded = [span("other", -1, 0, 5),
                    span("root", -1, 0, 100),
                    span("a", 1, 0, 45),
                    span("b", 1, 50, 95),
                    span("deep", 2, 0, 45)]
        self.assertAlmostEqual(spans.coverage(recorded, "root"), 0.9)
        with self.assertRaises(KeyError):
            spans.coverage(recorded, "missing")


def node(path, count, total_ms, children=()):
    return {"name": path.rsplit(".", 1)[-1], "path": path, "count": count,
            "total_ms": total_ms, "children": list(children)}


class SpanTreeTest(unittest.TestCase):
    """The program's aggregated span tree (--metrics-out "spans")."""

    TREE = [node("pipeline", 1, 100.0, [
        node("pipeline.load", 1, 10.0),
        # A path segment that was never opened itself sums its children.
        node("pipeline.eval", 0, 0.0, [node("pipeline.eval.match", 2, 30.0)]),
        node("pipeline.train", 1, 50.0)])]

    def test_self_time_subtracts_children(self):
        self_ms = spans.tree_self_ms(self.TREE)
        self.assertEqual(self_ms["pipeline"], 100.0 - 10.0 - 30.0 - 50.0)
        self.assertEqual(self_ms["pipeline.eval"], 0.0)
        self.assertEqual(self_ms["pipeline.eval.match"], 30.0)
        self.assertEqual(sum(self_ms.values()), 100.0)

    def test_coverage_of_wall_time(self):
        self.assertAlmostEqual(
            spans.tree_coverage(self.TREE, "pipeline", 100.0), 0.9)
        self.assertAlmostEqual(
            spans.tree_coverage(self.TREE, "pipeline", 120.0), 0.75)
        with self.assertRaises(KeyError):
            spans.tree_coverage(self.TREE, "dedup", 100.0)

    def test_find(self):
        self.assertEqual(
            spans.tree_find(self.TREE, "pipeline.eval.match")["count"], 2)
        self.assertIsNone(spans.tree_find(self.TREE, "pipeline.none"))


class DeclarationTest(unittest.TestCase):
    """BENCHMARK.json and the per-layer map describe the same metrics."""

    def test_every_layer_metric_is_mapped(self):
        root = os.path.dirname(os.path.dirname(HERE))
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            declared = json.load(handle)
        with open(os.path.join(os.path.dirname(HERE), "layers.json")) as h:
            mapping = json.load(h)
        names = [m["name"] for m in declared["per_layer"]]
        self.assertEqual(sorted(names), sorted(mapping))
        for name, target in mapping.items():
            # Each layer moves a metric its workload really reports.
            self.assertIn(target["moves"],
                          workloads.METRICS[target["workload"]], name)
        end_to_end = [m["name"] for m in declared["end_to_end"]]
        for workload in declared["workloads"]:
            for metric in end_to_end:
                self.assertIn(metric, workloads.METRICS[workload["name"]])


if __name__ == "__main__":
    unittest.main()
