"""Host-speed calibration: timings in reference-host seconds.

The sandbox this benchmark runs in is a shared VM whose effective CPU
speed moves by 1.5x within a second and by up to 4x for half a minute
at a time (measured: the same pure-Python loop, alone on the box, takes
between 8 ms and 60 ms). A raw CPU-bound timing therefore spreads by
0.2-0.4 of its median between identical runs, which no regression bound
can sit above.

So every CPU-bound measurement is bracketed by a fixed calibration
kernel — a few thousand iterations of interpreter-bound arithmetic, the
same work the code under test does — and divided by the *host factor*:
the kernel's time now over its time on the reference box at full speed.
The quotient is the time the measurement would have taken at reference
speed. On the control-plane workload this takes the run-to-run spread
of the median round time from 0.42 to 0.03.

What is normalised, what is not, and why is listed in ``README.md``;
each run also reports the factor itself (``bench.host_factor``), so the
raw wall-clock value is always ``reported x factor``.
"""

from __future__ import annotations

import time

_clock = time.perf_counter

#: Kernel iterations per run (about 2 ms on the reference box).
KERNEL_ITERATIONS = 80_000
#: The kernel's wall time on the reference box at full speed, seconds.
REFERENCE_S = 0.0022


def kernel() -> float:
    """Run the calibration kernel once; return its wall time in seconds."""
    start = _clock()
    total = 0
    for value in range(KERNEL_ITERATIONS):
        total += value
    return _clock() - start


def calibrate() -> float:
    """The kernel's time now: the best of three back-to-back runs.

    The first run after the process sat idle (waiting on a child, on a
    drain) pays for a cold core; the minimum of three does not, and it
    shrugs off a single preemption too.
    """
    return min(kernel(), kernel(), kernel())


def factor(*kernel_times: float) -> float:
    """Host factor from the calibrations bracketing a measurement.

    Above 1 the host ran slower than the reference box, so a measured
    duration divided by the factor is its reference-speed duration.
    """
    return sum(kernel_times) / len(kernel_times) / REFERENCE_S


class Calibrated:
    """Accumulates measurements, each bracketed by two calibrations."""

    def __init__(self) -> None:
        self._last = calibrate()
        self.factors: list[float] = []

    def close(self) -> float:
        """End a measurement; return the factor that applied to it."""
        now = calibrate()
        applied = factor(self._last, now)
        self._last = now
        self.factors.append(applied)
        return applied
