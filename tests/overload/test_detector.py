"""Unit tests for the overload detector and its config."""

import math

import pytest

from repro.overload import detector as detector_module
from repro.overload.detector import (
    CLEAR_CONFIRMATIONS,
    PENDING_HIGH,
    PENDING_LOW,
    QUEUE_HIGH,
    QUEUE_LOW,
    TRIP_CONFIRMATIONS,
    OverloadConfig,
    OverloadDetector,
)


def tripped():
    """A detector just tripped on the pending watermark at t = 1, 2, ..."""
    det = OverloadDetector()
    for i in range(TRIP_CONFIRMATIONS):
        det.observe(float(i + 1), backlog=0, pending=PENDING_HIGH)
    assert det.overloaded
    return det


def assert_refused(monkeypatch, name, *values):
    """Set detector constant ``name`` to each of ``values`` in turn: the
    detector refuses every one, naming the constant."""
    for value in values:
        with monkeypatch.context() as patch:
            patch.setattr(detector_module, name, value)
            with pytest.raises(ValueError, match=name):
                OverloadDetector()


class TestOverloadConfig:
    """Detection's watermarks and streaks are module constants: the
    detector checks each against its rule, and each case below sets one
    to values that break it. The config keeps the shedding choice and
    its seed."""

    def test_defaults_valid(self):
        OverloadConfig()
        OverloadDetector()

    def test_unknown_shedding_rejected(self):
        with pytest.raises(ValueError):
            OverloadConfig(shedding="random-early")

    def test_queue_watermarks_ordered(self, monkeypatch):
        assert_refused(monkeypatch, "QUEUE_LOW", -1, QUEUE_HIGH)
        assert_refused(monkeypatch, "QUEUE_HIGH", QUEUE_LOW)

    def test_pending_watermarks_ordered(self, monkeypatch):
        assert_refused(monkeypatch, "PENDING_LOW", -1, PENDING_HIGH)
        assert_refused(monkeypatch, "PENDING_HIGH", PENDING_LOW)

    def test_check_interval_positive(self, monkeypatch):
        assert_refused(monkeypatch, "CHECK_INTERVAL", 0.0, -0.25, math.nan)

    def test_saturation_threshold_is_fraction(self, monkeypatch):
        assert_refused(
            monkeypatch, "SATURATION_THRESHOLD", -0.1, 1.5, math.nan
        )

    def test_confirmations_positive(self, monkeypatch):
        # Clearing is slower than tripping: re-admitting early re-trips.
        assert_refused(
            monkeypatch, "TRIP_CONFIRMATIONS", 0, CLEAR_CONFIRMATIONS
        )
        assert_refused(monkeypatch, "CLEAR_CONFIRMATIONS", TRIP_CONFIRMATIONS)


class TestTripHysteresis:
    def test_trips_only_after_confirmation_streak(self):
        det = OverloadDetector()
        for i in range(TRIP_CONFIRMATIONS - 1):
            assert not det.observe(float(i + 1), backlog=0, pending=PENDING_HIGH)
        assert det.observe(
            float(TRIP_CONFIRMATIONS), backlog=0, pending=PENDING_HIGH
        )
        assert det.trips == 1

    def test_single_healthy_check_resets_trip_streak(self):
        det = OverloadDetector()
        now = 0.0
        for _ in range(TRIP_CONFIRMATIONS - 1):
            now += 1.0
            assert not det.observe(now, backlog=0, pending=PENDING_HIGH)
        now += 1.0
        assert not det.observe(now, backlog=0, pending=0)
        for _ in range(TRIP_CONFIRMATIONS - 1):
            now += 1.0
            assert not det.observe(now, backlog=0, pending=PENDING_HIGH)
        # The streak restarted after the healthy check; one more trips.
        assert det.observe(now + 1.0, backlog=0, pending=PENDING_HIGH)

    def test_growing_backlog_above_watermark_trips(self):
        det = OverloadDetector()
        for i in range(TRIP_CONFIRMATIONS):
            det.observe(float(i + 1), backlog=QUEUE_HIGH + 100 * i, pending=0)
        assert det.overloaded

    def test_high_but_shrinking_backlog_does_not_trip(self):
        # A shrinking backlog above the watermark is draining, not growing.
        det = OverloadDetector()
        det.last_backlog = QUEUE_HIGH + 1000
        for i in range(TRIP_CONFIRMATIONS):
            assert not det.observe(
                float(i + 1), backlog=QUEUE_HIGH + 900 - 100 * i, pending=0
            )

    def test_all_channels_saturated_trips(self):
        det = OverloadDetector()
        # Counters advancing at ~1 s blocked per second on every channel.
        counters = [0.0, 0.0]
        det.observe(1.0, backlog=0, pending=0, counters=counters)
        for i in range(TRIP_CONFIRMATIONS):
            counters = [counters[0] + 0.95, counters[1] + 0.99]
            det.observe(float(i + 2), backlog=0, pending=0, counters=counters)
        assert det.overloaded

    def test_one_unsaturated_channel_is_imbalance_not_overload(self):
        det = OverloadDetector()
        counters = [0.0, 0.0]
        det.observe(1.0, backlog=0, pending=0, counters=counters)
        for i in range(TRIP_CONFIRMATIONS):
            counters = [counters[0] + 0.99, counters[1] + 0.01]
            assert not det.observe(
                float(i + 2), backlog=0, pending=0, counters=counters
            )


class TestClearHysteresis:
    def test_clears_only_after_healthy_streak(self):
        det = tripped()
        t = 100.0
        for i in range(CLEAR_CONFIRMATIONS - 1):
            assert det.observe(t + i, backlog=0, pending=0)
        assert not det.observe(t + CLEAR_CONFIRMATIONS - 1, backlog=0, pending=0)

    def test_middle_zone_resets_clear_streak(self):
        det = tripped()
        mid = QUEUE_LOW + 1  # above low, below high: not healthy
        now = 100.0
        for _ in range(CLEAR_CONFIRMATIONS - 1):
            now += 1.0
            assert det.observe(now, backlog=0, pending=0)
        now += 1.0
        assert det.observe(now, backlog=mid, pending=0)
        for _ in range(CLEAR_CONFIRMATIONS - 1):
            now += 1.0
            assert det.observe(now, backlog=0, pending=0)
        assert not det.observe(now + 1.0, backlog=0, pending=0)

    def test_overloaded_seconds_accumulate_while_tripped(self):
        det = tripped()
        start = det.overloaded_seconds
        tripped_at = float(TRIP_CONFIRMATIONS)
        base = 10.0
        for i in range(4):
            det.observe(base + i, backlog=0, pending=PENDING_HIGH)
        # 3.0 between the four checks, plus the gap from the trip to t=10.
        assert det.overloaded_seconds == pytest.approx(
            start + 3.0 + (base - tripped_at)
        )


class TestPressure:
    def test_zero_while_healthy(self):
        det = OverloadDetector()
        det.observe(1.0, backlog=10_000, pending=0)
        assert det.pressure() == 0.0

    def test_tracks_worst_fraction_when_overloaded(self):
        det = tripped()
        det.observe(10.0, backlog=QUEUE_HIGH, pending=PENDING_HIGH)
        assert det.overloaded
        det.observe(11.0, backlog=QUEUE_HIGH // 2, pending=0)
        assert det.pressure() == pytest.approx(0.5)

    def test_explicit_backlog_overrides_last_sample(self):
        det = tripped()
        det.observe(10.0, backlog=QUEUE_HIGH, pending=0)
        assert det.pressure(backlog=QUEUE_HIGH // 4) == pytest.approx(0.25)

    def test_capped_at_one(self):
        det = tripped()
        det.observe(10.0, backlog=QUEUE_HIGH * 10, pending=0)
        assert det.pressure() == 1.0
