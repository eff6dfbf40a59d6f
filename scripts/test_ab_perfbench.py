#!/usr/bin/env python3
"""Self-test for ab_perfbench.py's statistics (stdlib unittest).

Usage: python3 scripts/test_ab_perfbench.py
"""
import importlib.util
import os
import unittest

_SPEC = importlib.util.spec_from_file_location(
    "ab_perfbench",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 "ab_perfbench.py"),
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0,
          109.0]


class Quartiles(unittest.TestCase):
    def test_linear_interpolation(self):
        self.assertEqual(ab.quartiles(PARENT), (102.25, 104.5, 106.75))

    def test_single_value(self):
        self.assertEqual(ab.quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_relative_spread(self):
        self.assertAlmostEqual(ab.relative_spread(90.0, 100.0, 110.0), 0.2)
        self.assertEqual(ab.relative_spread(0.0, 0.0, 0.0), 0.0)
        self.assertEqual(ab.relative_spread(-1.0, 0.0, 1.0), float("inf"))


class Verdict(unittest.TestCase):
    def test_clear_gain_higher_is_better(self):
        change = [v * 1.25 for v in PARENT]
        res = ab.compare(PARENT, change, "higher", 0.25)
        self.assertEqual(res["wins"], 10)
        self.assertEqual(res["verdict"], "gain")
        self.assertAlmostEqual(res["ratio"], 1.25)

    def test_clear_gain_lower_is_better(self):
        change = [v * 0.8 for v in PARENT]
        res = ab.compare(PARENT, change, "lower", 0.25)
        self.assertEqual(res["wins"], 10)
        self.assertEqual(res["verdict"], "gain")

    def test_worse_beyond_the_bound_is_a_regression_at_any_win_count(self):
        # 30% slower in 8 of 10 pairs: too few losses for the gain rule
        # mirrored, but the median is worse by more than the 0.25 bound.
        change = [v * 0.7 for v in PARENT]
        change[0] = PARENT[0] + 1.0
        change[1] = PARENT[1] + 1.0
        res = ab.compare(PARENT, change, "higher", 0.25)
        self.assertEqual(res["wins"], 2)
        self.assertEqual(res["verdict"], "regression")

    def test_regression_lower_is_better(self):
        change = [v * 1.3 for v in PARENT]
        self.assertEqual(ab.compare(PARENT, change, "lower", 0.25)["verdict"],
                         "regression")

    def test_worse_within_the_bound_is_no_regression(self):
        # 5% slower in every pair is still within a 0.25 bound.
        change = [v * 0.95 for v in PARENT]
        res = ab.compare(PARENT, change, "higher", 0.25)
        self.assertEqual(res["wins"], 0)
        self.assertEqual(res["verdict"], "within bound")

    def test_eight_wins_of_ten_is_no_gain(self):
        change = [v * 1.25 for v in PARENT]
        change[0] = PARENT[0] - 1.0
        change[1] = PARENT[1] - 1.0
        res = ab.compare(PARENT, change, "higher", 0.25)
        self.assertEqual(res["wins"], 8)
        self.assertEqual(res["verdict"], "within bound")

    def test_nine_wins_of_ten_is_a_gain(self):
        change = [v * 1.25 for v in PARENT]
        change[0] = PARENT[0] - 1.0
        res = ab.compare(PARENT, change, "higher", 0.25)
        self.assertEqual(res["wins"], 9)
        self.assertEqual(res["verdict"], "gain")

    def test_median_gap_within_parent_iqr_is_no_gain(self):
        # Every pair won by 1, but the medians differ by 1 < IQR 4.5.
        change = [v + 1.0 for v in PARENT]
        res = ab.compare(PARENT, change, "higher", 0.25)
        self.assertEqual(res["wins"], 10)
        self.assertEqual(res["verdict"], "within bound")

    def test_ties_count_for_neither_side(self):
        res = ab.compare(PARENT, list(PARENT), "higher", 0.25)
        self.assertEqual(res["wins"], 0)
        self.assertEqual(res["verdict"], "within bound")

    def test_spread_beyond_the_bound_is_unresolved(self):
        noisy = [50.0, 150.0] * 5
        change = [v * 2.0 for v in noisy]
        self.assertEqual(ab.compare(noisy, change, "higher", 0.25)["verdict"],
                         "unresolved")
        self.assertEqual(ab.compare(PARENT, noisy, "higher", 0.25)["verdict"],
                         "unresolved")

    def test_wide_spread_resolves_when_every_change_run_is_better(self):
        # Both sides spread beyond the bound, but the slowest change run
        # beats the fastest parent run.
        parent = [50.0, 100.0] * 5
        change = [200.0, 400.0] * 5
        self.assertEqual(ab.compare(parent, change, "higher", 0.25)["verdict"],
                         "gain")
        self.assertEqual(ab.compare(change, parent, "lower", 0.25)["verdict"],
                         "gain")
        # One overlapping run keeps it unresolved.
        change[0] = 90.0
        self.assertEqual(ab.compare(parent, change, "higher", 0.25)["verdict"],
                         "unresolved")

    def test_mismatched_runs_are_rejected(self):
        with self.assertRaises(ValueError):
            ab.compare(PARENT, PARENT[:-1], "higher", 0.25)


class Order(unittest.TestCase):
    def test_sides_alternate(self):
        self.assertEqual(ab.pair_order(0), ("parent", "change"))
        self.assertEqual(ab.pair_order(1), ("change", "parent"))
        firsts = [ab.pair_order(i)[0] for i in range(10)]
        self.assertEqual(firsts.count("parent"), 5)


if __name__ == "__main__":
    unittest.main()
