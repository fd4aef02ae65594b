"""Unit tests for the open-loop schedule, on a fake clock."""

import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from pacing import LATE_THRESHOLD_S, due_time, run_open_loop  # noqa: E402


class FakeTime:
    """A clock that only moves when slept on or told to."""

    def __init__(self) -> None:
        self.now = 100.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class DueTimeTest(unittest.TestCase):
    def test_schedule_is_fixed_by_start_and_rate(self):
        self.assertEqual(due_time(5.0, 0, 1000.0), 5.0)
        self.assertAlmostEqual(due_time(5.0, 250, 1000.0), 5.25)


class OpenLoopTest(unittest.TestCase):
    def test_an_instant_system_is_paced_by_sleeping_only(self):
        fake = FakeTime()
        sent: list[tuple[int, float]] = []
        report = run_open_loop(
            1000.0, 10, lambda i, due: sent.append((i, due)),
            clock=fake.clock, sleep=fake.sleep,
        )
        self.assertEqual([i for i, _ in sent], list(range(10)))
        for index, due in sent:
            self.assertAlmostEqual(due, 100.0 + index / 1000.0)
        self.assertEqual(report.sent, 10)
        self.assertEqual(report.late, 0)
        self.assertAlmostEqual(report.max_lag_s, 0.0)
        self.assertAlmostEqual(sum(fake.sleeps), 0.009)

    def test_a_stall_delays_sends_but_never_the_due_times(self):
        fake = FakeTime()
        sent: list[tuple[int, float, float]] = []

        def send(index: int, due: float) -> None:
            sent.append((index, due, fake.now))
            if index == 2:
                fake.now += 0.010  # the system blocks the generator 10 ms

        report = run_open_loop(
            1000.0, 20, send, clock=fake.clock, sleep=fake.sleep
        )
        # The schedule is untouched by the stall ...
        for index, due, _ in sent:
            self.assertAlmostEqual(due, 100.0 + index / 1000.0)
        # ... tuples that fell due during it go out at once, back to back ...
        stalled = [at for index, _, at in sent if 3 <= index <= 12]
        self.assertEqual(len(set(stalled)), 1)
        # ... and once caught up the generator is on time again.
        self.assertAlmostEqual(sent[-1][2], sent[-1][1])
        self.assertAlmostEqual(report.max_lag_s, 0.009)
        late = sum(1 for _, due, at in sent if at - due > LATE_THRESHOLD_S)
        self.assertEqual(report.late, late)
        self.assertGreater(report.late, 0)
        self.assertAlmostEqual(report.late_fraction, late / 20)

    def test_no_sleep_is_ever_negative_or_spinning(self):
        fake = FakeTime()
        run_open_loop(
            500.0, 50, lambda i, due: None, clock=fake.clock, sleep=fake.sleep
        )
        self.assertTrue(all(s > 0 for s in fake.sleeps))

    def test_bad_arguments_are_rejected(self):
        with self.assertRaises(ValueError):
            run_open_loop(0.0, 1, lambda i, due: None)


if __name__ == "__main__":
    unittest.main()
