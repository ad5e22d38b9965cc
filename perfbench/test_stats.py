"""Unit checks of the A/B statistics: python3 perfbench/test_stats.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class Percentile(unittest.TestCase):
    def test_endpoints_and_interpolation(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(stats.percentile(values, 0.0), 1.0)
        self.assertEqual(stats.percentile(values, 1.0), 4.0)
        self.assertAlmostEqual(stats.percentile(values, 0.5), 2.5)
        self.assertAlmostEqual(stats.percentile(values, 0.25), 1.75)

    def test_single_value_and_empty(self):
        self.assertEqual(stats.percentile([7.0], 0.99), 7.0)
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, med, q3 = stats.quartiles(values)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(med, 5.5)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(stats.spread(values), (8.25 - 2.75) / 5.5)

    def test_single_run(self):
        self.assertEqual(stats.quartiles([3.0]), (3.0, 3.0, 3.0))
        self.assertEqual(stats.spread([3.0]), 0.0)


class WinRule(unittest.TestCase):
    def test_ties_count_for_neither_side(self):
        parent = [10.0, 10.0, 10.0, 10.0]
        change = [9.0, 10.0, 11.0, 9.0]
        self.assertAlmostEqual(stats.win_fraction(parent, change, "lower"), 0.5)
        self.assertAlmostEqual(stats.win_fraction(parent, change, "higher"), 0.25)

    def test_unequal_sides_rejected(self):
        with self.assertRaises(ValueError):
            stats.win_fraction([1.0], [1.0, 2.0], "lower")


class Verdict(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]

    def test_improved_needs_wins_and_a_gap_beyond_the_spread(self):
        change = [v * 0.9 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         "improved")
        # Same gap, but the change loses two pairs of ten: not improved.
        mixed = change[:8] + [200.0, 200.0]
        self.assertNotEqual(stats.verdict(self.parent, mixed, "lower", 0.1),
                            "improved")

    def test_no_worse_within_bound(self):
        change = [v * 1.03 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.05),
                         "no worse within bound")
        lower = [v * 0.97 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, lower, "higher", 0.05),
                         "no worse within bound")

    def test_worse_beyond_bound(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1),
                         "worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
        change = [v * 1.01 for v in noisy]
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.1),
                         "unresolved")


if __name__ == "__main__":
    unittest.main()
