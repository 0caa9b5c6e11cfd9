"""Unit tests for perfbench/stats.py.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

import statistics
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_endpoints_are_min_and_max(self):
        values = [5.0, 1.0, 9.0, 3.0]
        self.assertEqual(stats.percentile(values, 0), 1.0)
        self.assertEqual(stats.percentile(values, 100), 9.0)

    def test_interpolates_between_ranks(self):
        values = list(range(1, 101))  # 1..100
        self.assertAlmostEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 99), 99.01)
        self.assertAlmostEqual(stats.percentile(values, 90), 90.1)

    def test_median_agrees_with_fiftieth_percentile(self):
        values = [0.3, 7.1, 2.2, 9.9, 4.4, 1.0]
        self.assertAlmostEqual(stats.percentile(values, 50),
                               statistics.median(values))

    def test_single_value(self):
        self.assertEqual(stats.percentile([42.0], 99), 42.0)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)


class SpreadTest(unittest.TestCase):
    def test_exclusive_quartiles_on_ten_values(self):
        # Quartiles at positions (n + 1) * p: 2.75, 5.5, 8.25 of 1..10.
        values = list(range(1, 11))
        self.assertAlmostEqual(stats.relative_spread(values),
                               (8.25 - 2.75) / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.relative_spread([2.0] * 10), 0.0)

    def test_zero_median(self):
        self.assertEqual(stats.relative_spread([-1.0, 0.0, 1.0, 2.0, -2.0]),
                         float("inf"))

    def test_needs_two_values(self):
        with self.assertRaises(statistics.StatisticsError):
            stats.relative_spread([1.0])


class TailTest(unittest.TestCase):
    def test_level_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_level(99))
        self.assertEqual(stats.tail_level(100), 90.0)
        self.assertEqual(stats.tail_level(999), 90.0)
        self.assertEqual(stats.tail_level(1000), 99.0)
        self.assertEqual(stats.tail_level(10000), 99.9)

    def test_summarize(self):
        summary = stats.summarize([float(v) for v in range(1000)])
        self.assertEqual(summary["n"], 1000)
        self.assertEqual(summary["median"], 499.5)
        self.assertEqual(summary["tail_level"], 99.0)
        self.assertAlmostEqual(summary["tail"], 989.01)

    def test_summarize_without_tail(self):
        summary = stats.summarize([1.0, 2.0, 3.0])
        self.assertIsNone(summary["tail_level"])
        self.assertIsNone(summary["tail"])


if __name__ == "__main__":
    unittest.main()
