"""Unit tests of the statistics helpers and the compare rules, on synthetic
samples. Run: python3 -m unittest discover -s svcbench"""

import unittest

import compare
import stats


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(stats.percentile([5, 1, 3], 100), 5)
        self.assertEqual(stats.percentile([5, 1, 3], 0), 1)

    def test_tail_keeps_ten_samples_beyond(self):
        p, value, n = stats.tail(list(range(1000)), 99.0)
        self.assertEqual((p, n), (99.0, 1000))
        self.assertAlmostEqual(value, 989.01)
        # 200 samples support at most p95: the p99 request falls back.
        p, _, n = stats.tail(list(range(200)), 99.0)
        self.assertEqual((p, n), (95.0, 200))
        self.assertGreaterEqual(sum(1 for x in range(200) if x > stats.percentile(range(200), p)),
                                10)

    def test_tail_refuses_tiny_samples(self):
        p, _, n = stats.tail(list(range(15)), 90.0)
        self.assertIsNone(p)
        self.assertEqual(n, 15)

    def test_quartiles_match_statistics_quantiles(self):
        q1, q2, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(stats.relative_spread([10, 10, 10, 10]), 0.0)

    def test_slope(self):
        self.assertAlmostEqual(stats.slope([(0, 1), (1, 3), (2, 5)]), 2.0)
        self.assertEqual(stats.slope([(1, 1)]), 0.0)


class SelfTimeTest(unittest.TestCase):
    def span(self, name, id_, parent, start, end):
        return {"name": name, "id": id_, "parent": parent, "start": start, "end": end}

    def test_children_are_subtracted_once(self):
        spans = [
            self.span("job", 1, 0, 0, 10),
            self.span("a", 2, 1, 1, 4),
            self.span("b", 3, 1, 3, 6),   # overlaps a: the union is 1..6
            self.span("c", 4, 2, 2, 3),   # grandchild: only counts against a
        ]
        got = stats.self_times(spans)
        self.assertEqual(got["job"], [5])
        self.assertEqual(got["a"], [2])
        self.assertEqual(got["b"], [3])
        self.assertEqual(got["c"], [1])

    def test_child_outside_parent_is_clipped(self):
        spans = [self.span("job", 1, 0, 0, 4), self.span("late", 2, 1, 3, 9)]
        self.assertEqual(stats.self_times(spans)["job"], [3])


def runs(values, failed=0, attempted=100, correct=True, name="latency_p50_ms"):
    return [{"metrics": {name: {"value": v, "unit": "ms"}}, "failed": failed,
             "attempted": attempted, "correct": correct} for v in values]


LOWER = [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]


class CompareTest(unittest.TestCase):
    parent = [100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_clear_gain(self):
        change = [v - 10 for v in self.parent]
        result = compare.compare_workload(runs(self.parent), runs(change), LOWER)
        self.assertEqual(result["metrics"]["latency_p50_ms"]["verdict"], "gain")
        self.assertTrue(result["row"].startswith("gain"))

    def test_eight_of_ten_wins_is_no_gain(self):
        change = [v - 10 for v in self.parent[:8]] + [v + 1 for v in self.parent[8:]]
        verdict = compare.compare_workload(runs(self.parent), runs(change), LOWER)
        self.assertEqual(verdict["metrics"]["latency_p50_ms"]["wins"], 8)
        self.assertNotEqual(verdict["metrics"]["latency_p50_ms"]["verdict"], "gain")

    def test_gain_needs_more_than_the_parent_spread(self):
        parent = [90, 110, 95, 105, 100, 92, 108, 97, 103, 100]
        change = [v - 1 for v in parent]  # wins every pair, moves less than the IQR
        verdict = compare.compare_metric(parent, change, "lower", 0.5)
        self.assertEqual(verdict["wins"], 10)
        self.assertNotEqual(verdict["verdict"], "gain")

    def test_regression_beyond_bound(self):
        change = [v * 1.2 for v in self.parent]
        result = compare.compare_workload(runs(self.parent), runs(change), LOWER)
        self.assertEqual(result["metrics"]["latency_p50_ms"]["verdict"], "regression")
        self.assertTrue(result["row"].startswith("reject"))

    def test_small_slowdown_is_no_regression(self):
        change = [v * 1.05 for v in self.parent]
        verdict = compare.compare_metric(self.parent, change, "lower", 0.1)
        self.assertEqual(verdict["verdict"], "no regression")

    def test_wide_spread_is_unresolved(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        verdict = compare.compare_metric(self.parent, noisy, "lower", 0.1)
        self.assertEqual(verdict["verdict"], "unresolved")

    def test_wide_spread_all_better_is_resolved(self):
        noisy_parent = [200, 300, 250, 280, 220, 260, 240, 290, 210, 270]
        change = [v / 10 for v in noisy_parent]
        verdict = compare.compare_metric(noisy_parent, change, "lower", 0.1)
        self.assertNotEqual(verdict["verdict"], "unresolved")

    def test_higher_is_better(self):
        metric = [{"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]
        parent = runs(self.parent, name="jobs_per_s")
        slower = runs([v * 0.8 for v in self.parent], name="jobs_per_s")
        result = compare.compare_workload(parent, slower, metric)
        self.assertEqual(result["metrics"]["jobs_per_s"]["verdict"], "regression")

    def test_more_failures_reject(self):
        result = compare.compare_workload(runs(self.parent), runs(self.parent, failed=1), LOWER)
        self.assertTrue(result["row"].startswith("reject"))
        result = compare.compare_workload(runs(self.parent), runs(self.parent, correct=False),
                                          LOWER)
        self.assertTrue(result["row"].startswith("reject"))


if __name__ == "__main__":
    unittest.main()
