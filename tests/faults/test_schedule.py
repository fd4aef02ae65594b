"""Unit tests for the declarative fault schedules."""

import pytest

from repro.faults import (
    CountCrashEvent,
    CrashEvent,
    FaultSchedule,
    StallEvent,
)
from repro.faults.schedule import progress_actions
from repro.workloads.external_load import (
    CountLoadEvent,
    LoadEvent,
    LoadSchedule,
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

    def test_load_event_rejects_nonpositive_multiplier(self):
        with pytest.raises(ValueError):
            LoadEvent(1.0, 0, 0.0)
        with pytest.raises(ValueError):
            CountLoadEvent(10, 0, -1.0)

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

    def test_load_events_set_and_restore_one_worker(self, rig_factory):
        rig = rig_factory(n=2)
        schedule = LoadSchedule(
            events=[LoadEvent(1.0, 0, 4.0), LoadEvent(2.0, 0, 1.0)]
        )
        schedule.arm(rig.sim, rig.region.workers)
        rig.sim.run_until(1.5)
        assert rig.region.workers[0].load_multiplier == 4.0
        assert rig.region.workers[1].load_multiplier == 1.0
        rig.sim.run_until(3.0)
        assert rig.region.workers[0].load_multiplier == 1.0

    def test_arm_validates_against_region_width(self, rig_factory):
        rig = rig_factory(n=2)
        with pytest.raises(ValueError):
            FaultSchedule.crash(2, at=1.0).arm(rig.sim, rig.injector)


class TestActions:
    def test_load_changes_are_set_load_actions(self):
        schedule = LoadSchedule.removed_at([0, 2], 5.0, 3.0)
        assert schedule.actions() == [
            (3.0, "set_load", (0, 1.0)),
            (3.0, "set_load", (2, 1.0)),
        ]

    def test_a_set_load_replaces_never_compounds(self, rig_factory):
        rig = rig_factory(n=2)
        LoadSchedule(
            events=[LoadEvent(1.0, 1, 3.0), LoadEvent(2.0, 1, 2.0)]
        ).arm(rig.sim, rig.region.workers)
        rig.sim.run_until(2.5)
        assert rig.region.workers[1].load_multiplier == 2.0

    def test_progress_list_orders_by_count_loads_first(self):
        faults = FaultSchedule(
            count_crashes=[CountCrashEvent(50, 1), CountCrashEvent(10, 0)]
        )
        load = LoadSchedule.removed_after_emitted([1], 10.0, 50)
        assert progress_actions(faults, load) == [
            (10, "crash", (0, None)),
            (50, "set_load", (1, 1.0)),
            (50, "crash", (1, None)),
        ]

    def test_load_schedule_validates_every_worker(self):
        LoadSchedule.removed_after_emitted([1], 2.0, 5).validate(2)
        with pytest.raises(ValueError, match="worker 2"):
            LoadSchedule(
                count_events=[CountLoadEvent(5, 2, 2.0)]
            ).validate(2)
