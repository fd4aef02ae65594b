"""Unit tests for the sink checker on broken streams."""

import math
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from oracle import BODY_POOL, SinkChecker, make_bodies, weights_failure  # noqa: E402

BODIES = make_bodies(7)


def deliver(seqs, corrupt=()):
    checker = SinkChecker(BODIES)
    for seq in seqs:
        body = checker.body_for(seq)
        checker(seq, b"x" + body[1:] if seq in corrupt else body)
    return checker


class BodiesTest(unittest.TestCase):
    def test_bodies_come_from_the_seed_alone(self):
        self.assertEqual(make_bodies(7), BODIES)
        self.assertNotEqual(make_bodies(8), BODIES)
        self.assertEqual(len(BODIES), BODY_POOL)
        self.assertEqual({len(b) for b in BODIES}, {64})


class SinkCheckerTest(unittest.TestCase):
    def test_a_clean_stream_has_no_failures(self):
        checker = deliver(range(5000))
        self.assertEqual(checker.failures(5000, 5000), 0)

    def test_a_duplicate_is_one_failure(self):
        checker = deliver([0, 1, 2, 2, 3, 4])
        self.assertEqual(checker.stale, 1)
        self.assertEqual(checker.failures(5), 1)

    def test_a_swap_fails_both_tuples(self):
        checker = deliver([0, 1, 3, 2, 4])
        self.assertEqual((checker.skipped, checker.stale), (1, 1))
        self.assertEqual(checker.failures(5), 2)

    def test_a_missing_tuple_is_one_failure(self):
        checker = deliver([0, 1, 3, 4])
        self.assertEqual(checker.skipped, 1)
        self.assertEqual(checker.failures(5), 1)

    def test_a_short_stream_fails_its_missing_tail(self):
        checker = deliver(range(7))
        self.assertEqual(checker.failures(10), 3)

    def test_a_changed_body_is_a_failure(self):
        checker = deliver(range(10), corrupt={4})
        self.assertEqual(checker.wrong_body, 1)
        self.assertEqual(checker.failures(10), 1)

    def test_the_region_must_agree_on_the_count(self):
        checker = deliver(range(10))
        self.assertEqual(checker.failures(10, region_results=10), 0)
        self.assertEqual(checker.failures(10, region_results=9), 1)

    def test_failures_never_exceed_attempts(self):
        checker = deliver([5, 4, 3, 2, 1, 0])
        self.assertLessEqual(checker.failures(6), 6)


class WeightsTest(unittest.TestCase):
    def test_valid_and_priming_rounds_pass(self):
        self.assertFalse(weights_failure([500, 300, 200], 1000))
        self.assertFalse(weights_failure(None, 1000))

    def test_bad_sum_or_non_finite_weights_fail(self):
        self.assertTrue(weights_failure([500, 300, 100], 1000))
        self.assertTrue(weights_failure([math.nan, 500, 500], 1000))
        self.assertTrue(weights_failure([math.inf, 0, 0], 1000))
        self.assertTrue(weights_failure([1100, -100, 0], 1000))


if __name__ == "__main__":
    unittest.main()
