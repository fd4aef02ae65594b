"""Unit tests for the percentile rule and the spread arithmetic.

Run with ``python3 -m unittest discover -s benchmarks/e2e/tests -p 'unit_*.py'``.
The files are not named ``test_*.py`` or ``bench_*.py`` on purpose: the
repository's pytest configuration collects both patterns, and the tier-1
suite and ``pytest benchmarks/`` must collect exactly what they did
before this harness existed.
"""

import pathlib
import statistics
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from stats import (  # noqa: E402
    percentile, quartiles, relative_iqr, supported_percentile,
    tail_percentile, worsening,
)


class SupportedPercentileTest(unittest.TestCase):
    def test_large_sample_is_capped_at_the_ceiling(self):
        self.assertEqual(supported_percentile(100_000), 99.0)
        self.assertEqual(supported_percentile(1000), 99.0)

    def test_smaller_samples_support_lower_percentiles(self):
        self.assertAlmostEqual(supported_percentile(500), 98.0)
        self.assertAlmostEqual(supported_percentile(100), 90.0)
        self.assertAlmostEqual(supported_percentile(40), 75.0)

    def test_tiny_samples_fall_back_to_the_median(self):
        self.assertEqual(supported_percentile(20), 50.0)
        self.assertEqual(supported_percentile(3), 50.0)

    def test_ten_samples_lie_beyond_whatever_is_reported(self):
        for n in range(21, 3000, 7):
            values = list(range(n))
            value, pct = tail_percentile(values)
            if pct > 50.0:
                beyond = sum(1 for v in values if v > value)
                self.assertGreaterEqual(beyond, 10, (n, pct))

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            supported_percentile(0)
        with self.assertRaises(ValueError):
            percentile([], 50.0)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(percentile(values, 99.0), 990)
        self.assertEqual(percentile(values, 50.0), 500)
        self.assertEqual(percentile(values, 100.0), 1000)
        self.assertEqual(percentile([7.0], 99.0), 7.0)

    def test_tail_percentile_sorts_its_input(self):
        value, pct = tail_percentile(list(range(1000, 0, -1)))
        self.assertEqual((value, pct), (990, 99.0))


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_the_standard_library(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(quartiles(values), (q1, statistics.median(values), q3))
        self.assertAlmostEqual(
            relative_iqr(values), (q3 - q1) / statistics.median(values)
        )

    def test_single_value_has_no_spread(self):
        self.assertEqual(quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(relative_iqr([2.0]), 0.0)

    def test_worsening_follows_the_direction(self):
        self.assertAlmostEqual(worsening(100.0, 90.0, "higher"), 0.10)
        self.assertAlmostEqual(worsening(100.0, 110.0, "higher"), -0.10)
        self.assertAlmostEqual(worsening(10.0, 11.0, "lower"), 0.10)
        self.assertAlmostEqual(worsening(10.0, 9.0, "lower"), -0.10)
        with self.assertRaises(ValueError):
            worsening(1.0, 1.0, "sideways")


if __name__ == "__main__":
    unittest.main()
