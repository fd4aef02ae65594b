"""Overload detection with hysteresis.

The detector's inputs are the three signals that actually move when
offered load exceeds capacity in this system:

* the **source backlog** (tuples that arrived but were not yet pulled by
  the splitter) and its growth between checks — the open-loop queue that
  grows without bound in the overload regime;
* the **merger pending count** — reordering memory, which a skewed or
  late channel inflates even when aggregate demand is fine;
* the **per-connection blocking fractions** derived from the splitter's
  cumulative blocking counters — Section 4.4's overload signature is
  *every* channel blocking at once (any single channel blocking is just
  imbalance, which is the balancer's job, not ours).

A single noisy sample must not flap admission control, so state changes
are debounced: the detector trips only after ``TRIP_CONFIRMATIONS``
consecutive overloaded checks and clears only after
``CLEAR_CONFIRMATIONS`` consecutive healthy ones (clearing is slower than
tripping — re-admitting too early just re-trips).

The watermarks are in tuples; they suit the experiment-scale regions
(tens of tuples/second per worker) used across this repo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.util.validation import check_fraction, check_positive

#: Admission policies :func:`~repro.overload.admission.build_shedding_policy`
#: knows how to build. ``"none"`` disables shedding (flow control only).
SHEDDING_KINDS = ("drop-tail", "probabilistic", "priority", "none")

#: Detector period in simulated seconds.
CHECK_INTERVAL = 0.25
#: Source backlog at/above which (while growing) a check is overloaded.
QUEUE_HIGH = 256
#: Source backlog at/below which a check can count toward clearing.
QUEUE_LOW = 64
#: Merger pending watermark that pauses the splitter (flow control) and
#: counts a check as overloaded.
PENDING_HIGH = 96
#: Merger pending watermark at/below which the splitter resumes.
PENDING_LOW = 24
#: Per-connection blocked-time fraction treated as saturated; a check
#: where *every* live channel exceeds it is overloaded (Section 4.4's
#: all-blocking regime).
SATURATION_THRESHOLD = 0.5
#: Consecutive overloaded checks before the detector trips.
TRIP_CONFIRMATIONS = 3
#: Consecutive healthy checks before the detector clears.
CLEAR_CONFIRMATIONS = 8


@dataclass(slots=True)
class OverloadConfig:
    """How the overload layer sheds."""

    #: Shedding policy: one of :data:`SHEDDING_KINDS`.
    shedding: str = "probabilistic"
    #: Seed for the probabilistic policy's RNG (deterministic runs).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shedding not in SHEDDING_KINDS:
            raise ValueError(
                f"unknown shedding policy {self.shedding!r}; "
                f"choose from {SHEDDING_KINDS}"
            )


class OverloadDetector:
    """Declares (and un-declares) the overload state, with hysteresis."""

    def __init__(self) -> None:
        # The watermarks, period, threshold and streaks are module
        # constants: an edit that breaks one's rule is refused here.
        if not 0 <= QUEUE_LOW < QUEUE_HIGH:
            raise ValueError(
                "need 0 <= QUEUE_LOW < QUEUE_HIGH, got "
                f"QUEUE_LOW={QUEUE_LOW}, QUEUE_HIGH={QUEUE_HIGH}"
            )
        if not 0 <= PENDING_LOW < PENDING_HIGH:
            raise ValueError(
                "need 0 <= PENDING_LOW < PENDING_HIGH, got "
                f"PENDING_LOW={PENDING_LOW}, PENDING_HIGH={PENDING_HIGH}"
            )
        check_positive("CHECK_INTERVAL", CHECK_INTERVAL)
        check_fraction("SATURATION_THRESHOLD", SATURATION_THRESHOLD)
        # Clearing is slower than tripping: re-admitting early re-trips.
        if not 0 < TRIP_CONFIRMATIONS < CLEAR_CONFIRMATIONS:
            raise ValueError(
                "need 0 < TRIP_CONFIRMATIONS < CLEAR_CONFIRMATIONS, got "
                f"TRIP_CONFIRMATIONS={TRIP_CONFIRMATIONS}, "
                f"CLEAR_CONFIRMATIONS={CLEAR_CONFIRMATIONS}"
            )
        #: Current state: ``True`` while the region is declared overloaded.
        self.overloaded = False
        #: Healthy-to-overloaded transitions so far.
        self.trips = 0
        #: Simulated seconds spent in the overloaded state.
        self.overloaded_seconds = 0.0
        #: Most recent signals (diagnostics).
        self.last_backlog = 0
        self.last_pending = 0
        self._trip_streak = 0
        self._clear_streak = 0
        self._last_now: float | None = None
        self._last_counters: tuple[float, ...] | None = None
        #: Called with the check time on each healthy->overloaded edge
        #: (observability hook; None = not recording).
        self.on_trip = None
        #: Called with the check time on each overloaded->healthy edge.
        self.on_clear = None

    def observe(
        self,
        now: float,
        *,
        backlog: int,
        pending: int,
        counters: Sequence[float] = (),
    ) -> bool:
        """Feed one check's signals; returns the (possibly new) state.

        ``counters`` are the cumulative per-connection blocking-time
        counters; the detector differences them against the previous
        check to get blocked-time fractions. The first check only primes
        the counter baseline.
        """
        fractions: list[float] = []
        if (
            self._last_now is not None
            and now > self._last_now
            and self._last_counters is not None
            and len(counters) == len(self._last_counters)
        ):
            dt = now - self._last_now
            fractions = [
                max(0.0, (c - p) / dt)
                for c, p in zip(counters, self._last_counters)
            ]
        if self.overloaded and self._last_now is not None:
            self.overloaded_seconds += now - self._last_now
        growth = backlog - self.last_backlog
        self.last_backlog = backlog
        self.last_pending = pending
        self._last_now = now
        self._last_counters = tuple(counters)

        all_saturated = bool(fractions) and min(fractions) >= (
            SATURATION_THRESHOLD
        )
        overloaded_check = (
            (backlog >= QUEUE_HIGH and growth > 0)
            or pending >= PENDING_HIGH
            or all_saturated
        )
        healthy_check = (
            backlog <= QUEUE_LOW
            and pending <= PENDING_LOW
            and not all_saturated
        )
        if not self.overloaded:
            self._trip_streak = self._trip_streak + 1 if overloaded_check else 0
            if self._trip_streak >= TRIP_CONFIRMATIONS:
                self.overloaded = True
                self.trips += 1
                self._trip_streak = 0
                self._clear_streak = 0
                if self.on_trip is not None:
                    self.on_trip(now)
        else:
            self._clear_streak = self._clear_streak + 1 if healthy_check else 0
            if self._clear_streak >= CLEAR_CONFIRMATIONS:
                self.overloaded = False
                self._trip_streak = 0
                self._clear_streak = 0
                if self.on_clear is not None:
                    self.on_clear(now)
        return self.overloaded

    def pressure(self, backlog: int | None = None) -> float:
        """How hard admission should shed, in ``[0, 1]``.

        Zero while healthy. While overloaded, the larger of the backlog's
        and the pending buffer's fractional distance to its high
        watermark, capped at 1. Probabilistic shedding admits with
        probability ``1 - pressure``, which self-regulates: the backlog
        settles where the admitted rate matches capacity, strictly below
        :data:`QUEUE_HIGH`.
        """
        if not self.overloaded:
            return 0.0
        q = self.last_backlog if backlog is None else backlog
        queue_frac = q / QUEUE_HIGH
        pending_frac = self.last_pending / PENDING_HIGH
        return max(0.0, min(1.0, max(queue_frac, pending_frac)))
