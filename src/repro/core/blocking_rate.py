"""Blocking-rate estimation from cumulative counters (Section 3).

The transport layer exposes one cumulative blocking-time counter per
connection. Every sampling interval (the paper samples once per second)
the estimator reads all counters, differences them against the previous
sample, divides by the elapsed time, and smooths the result. The output is
a blocking rate in *seconds blocked per second* — dimensionless, in
``[0, 1]`` in steady state (a sender cannot block more than wall time,
though a sample can momentarily exceed 1 when a long blocking episode is
charged at its end).

Counter resets by the transport layer (Figure 2's sawtooth) are detected
and handled by :class:`repro.util.ewma.IntervalRate`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.util.ewma import IntervalRate

#: Smoothing of the per-connection rates: 1 takes each interval's rate
#: as measured.
RATE_ALPHA = 1.0


class BlockingRateEstimator:
    """Per-connection smoothed blocking rates from cumulative counters."""

    def __init__(self, n_connections: int) -> None:
        if n_connections <= 0:
            raise ValueError("need at least one connection")
        # A module constant: an edit that puts it out of range is refused.
        if not 0.0 < RATE_ALPHA <= 1.0:
            raise ValueError(f"RATE_ALPHA must be in (0, 1], got {RATE_ALPHA}")
        self.n_connections = n_connections
        self._rates = [IntervalRate(RATE_ALPHA) for _ in range(n_connections)]
        self._samples_taken = 0

    @property
    def ready(self) -> bool:
        """Whether at least two samples exist (rates are defined)."""
        return self._samples_taken >= 2

    @property
    def rates(self) -> list[float]:
        """Latest smoothed rate per connection (0.0 until defined)."""
        return [r.rate if r.rate is not None else 0.0 for r in self._rates]

    def sample(self, now: float, counters: Sequence[float]) -> list[float] | None:
        """Fold one reading of all counters taken at time ``now``.

        Returns the smoothed rates, or ``None`` for the very first sample
        (no interval to difference over yet).
        """
        if len(counters) != self.n_connections:
            raise ValueError(
                f"expected {self.n_connections} counters, got {len(counters)}"
            )
        for rate, counter in zip(self._rates, counters):
            rate.sample(now, counter)
        self._samples_taken += 1
        if self._samples_taken < 2:
            return None
        return self.rates

    def reset(self) -> None:
        """Forget all history (topology change)."""
        for rate in self._rates:
            rate.reset()
        self._samples_taken = 0
