"""Tests of the runner's statistics: python3 -m unittest discover perfbench"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_tail_leaves_at_least_ten_samples_beyond(self):
        for n in range(11, 600):
            k = run.tail_index(n)
            beyond = n - 1 - k
            self.assertGreaterEqual(beyond, 10)
            # The highest such percentile: one rank higher leaves fewer.
            self.assertLess(beyond - 1, 10)

    def test_tail_value_and_percentile(self):
        samples = list(range(100, 0, -1))  # 1..100, unsorted
        value, pct, n = run.tail(samples)
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_too_few_samples_have_no_tail(self):
        with self.assertRaises(run.BenchError):
            run.tail_index(10)


class ClassPosition(unittest.TestCase):
    # 30 fast, 40 middle, 30 slow samples, interleaved in time.
    samples = ([(1.0 + i / 100, "fast") for i in range(30)]
               + [(10.0 + i / 100, "mid") for i in range(40)]
               + [(100.0 + i / 100, "slow") for i in range(30)])

    def test_bands_follow_class_medians_and_shares(self):
        bands = run.class_bands(self.samples)
        self.assertEqual([b[0] for b in bands], ["fast", "mid", "slow"])
        self.assertAlmostEqual(bands[1][1], 30.0)
        self.assertAlmostEqual(bands[1][2], 70.0)

    def test_median_and_tail_positions(self):
        band, dist, actual = run.class_position(self.samples, 50.0)
        self.assertEqual((band[0], actual), ("mid", "mid"))
        self.assertAlmostEqual(dist, 20.0)
        band, dist, actual = run.class_position(self.samples, 90.0)
        self.assertEqual((band[0], actual), ("slow", "slow"))
        self.assertAlmostEqual(dist, 20.0)

    def test_a_straddling_mix_is_flagged(self):
        mixed = [(1.0, "a")] * 45 + [(50.0, "b")] * 55
        self.assertIn("WARNING", run.describe_position(mixed, 50.0))


class MetricNames(unittest.TestCase):
    def test_runner_metrics_match_benchmark_json(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            doc = json.load(f)
        self.assertEqual(tuple(m["name"] for m in doc["per_layer"]), run.PER_LAYER)
        for m in doc["per_layer"]:
            self.assertEqual(m["unit"], run.unit_of(m["name"]), m["name"])
        e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END_UNITS)


if __name__ == "__main__":
    unittest.main()
