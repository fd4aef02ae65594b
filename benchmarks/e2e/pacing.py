"""The open-loop load generator: a fixed schedule, sleep-paced.

An open loop sends on a schedule whatever the system does, so a stall
shows up as latency on every tuple that was due during it. Each tuple's
latency is taken from its *due* time, not from when the generator got
round to sending it, and the generator reports how late it ran so a
reader can tell a slow system from a slow generator.

The pacer sleeps; it never spins. It shares the GIL with the region's
receiver threads, and a spinning pacer starves exactly the threads whose
latency the workload measures.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

#: A send this far behind its due time counts as late.
LATE_THRESHOLD_S = 0.001


def due_time(start: float, index: int, rate: float) -> float:
    """When tuple ``index`` of a ``rate``/s schedule starting at ``start`` is due."""
    return start + index / rate


@dataclass(slots=True)
class PacerReport:
    """How well the generator kept to its schedule."""

    sent: int = 0
    late: int = 0
    max_lag_s: float = 0.0

    @property
    def late_fraction(self) -> float:
        return self.late / self.sent if self.sent else 0.0


def run_open_loop(
    rate: float,
    count: int,
    send: Callable[[int, float], None],
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> PacerReport:
    """Call ``send(index, due)`` for ``count`` tuples at ``rate`` per second.

    A tuple whose due time is still ahead is slept for; one whose due
    time has passed (the previous ``send`` blocked, or the sleep overshot)
    goes out immediately, so the generator catches up instead of
    shifting the whole schedule.
    """
    if rate <= 0 or count < 0:
        raise ValueError(f"need rate > 0 and count >= 0: {rate}, {count}")
    report = PacerReport()
    start = clock()
    for index in range(count):
        due = due_time(start, index, rate)
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        lag = clock() - due
        if lag > report.max_lag_s:
            report.max_lag_s = lag
        if lag > LATE_THRESHOLD_S:
            report.late += 1
        send(index, due)
        report.sent += 1
    return report
