"""Unit tests for the declarative fault schedules."""

import pytest

from repro.faults import (
    CountCrashEvent,
    CrashEvent,
    FaultSchedule,
    SlowdownEvent,
    StallEvent,
)


class TestEventValidation:
    def test_crash_rejects_negative_time(self):
        with pytest.raises(ValueError):
            CrashEvent(-1.0, 0)

    def test_crash_rejects_negative_worker(self):
        with pytest.raises(ValueError):
            CrashEvent(1.0, -1)

    def test_crash_rejects_nonpositive_restart(self):
        with pytest.raises(ValueError):
            CrashEvent(1.0, 0, restart_after=0.0)

    def test_stall_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            StallEvent(1.0, 0, duration=-2.0)

    def test_slowdown_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError):
            SlowdownEvent(1.0, "h0", 0.0)

    def test_count_crash_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            CountCrashEvent(0, 0)


class TestSchedule:
    def test_none_is_empty(self):
        assert FaultSchedule.none().empty()

    def test_constructors_populate(self):
        assert not FaultSchedule.crash(1, at=5.0).empty()
        assert not FaultSchedule(stalls=[StallEvent(1.0, 0, 2.0)]).empty()
        assert not FaultSchedule.crash_after_emitted(2, 100).empty()

    def test_max_worker_spans_event_kinds(self):
        schedule = FaultSchedule(
            crashes=[CrashEvent(1.0, 1)],
            stalls=[StallEvent(2.0, 3)],
            count_crashes=[CountCrashEvent(10, 2)],
        )
        assert schedule.max_worker() == 3
        assert FaultSchedule.none().max_worker() == -1

    def test_validate_rejects_out_of_range_worker(self):
        schedule = FaultSchedule.crash(4, at=1.0)
        with pytest.raises(ValueError, match="targets worker 4"):
            schedule.validate(4)
        schedule.validate(5)  # in range: no raise


class TestArm:
    def test_timed_events_fire_via_injector(self, rig_factory):
        rig = rig_factory(n=4)
        schedule = FaultSchedule(
            crashes=[CrashEvent(1.0, 0, restart_after=2.0)],
            stalls=[StallEvent(0.5, 1, duration=0.25)],
        )
        schedule.arm(rig.sim, rig.injector)
        rig.region.start()
        rig.sim.run_until(5.0)
        assert rig.injector.crashes == 1
        assert rig.injector.restarts == 1
        assert rig.injector.stalls == 1
        kinds = [record.kind for record in rig.injector.log]
        assert kinds == ["stall", "unstall", "crash", "restart"]

    def test_slowdown_burst_applies_and_reverts(self, rig_factory):
        rig = rig_factory(n=2)
        schedule = FaultSchedule(
            slowdowns=[SlowdownEvent(1.0, "h0", 4.0, duration=1.0)]
        )
        schedule.arm(rig.sim, rig.injector)
        baseline = rig.region.workers[0].load_multiplier
        rig.sim.run_until(1.5)
        assert rig.region.workers[0].load_multiplier == pytest.approx(
            baseline * 4.0
        )
        rig.sim.run_until(3.0)
        assert rig.region.workers[0].load_multiplier == pytest.approx(baseline)

    def test_arm_validates_against_region_width(self, rig_factory):
        rig = rig_factory(n=2)
        with pytest.raises(ValueError):
            FaultSchedule.crash(2, at=1.0).arm(rig.sim, rig.injector)
