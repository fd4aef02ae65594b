"""Unit tests for the fault injector's failure mechanics."""

import pytest

from repro.faults import FaultInjector
from repro.sim.engine import Simulator
from repro.streams.hosts import Host, Placement
from repro.streams.region import ParallelRegion
from repro.streams.sources import FiniteSource, constant_cost
from repro.core.policies import RoundRobinPolicy


class TestRequiresFaultTolerance:
    def test_plain_region_is_rejected(self):
        sim = Simulator()
        host = Host("h", cores=8, thread_speed=1e6)
        region = ParallelRegion(
            sim,
            FiniteSource(10, constant_cost(100.0)),
            RoundRobinPolicy(2),
            Placement.single_host(2, host),
        )
        with pytest.raises(ValueError, match="fault_tolerant"):
            FaultInjector(sim, region)


class TestCrash:
    def test_crash_kills_worker_and_stalls_connection(self, rig_factory):
        rig = rig_factory(n=4)
        rig.region.start()
        rig.sim.run_until(1.0)
        rig.injector.crash(2)
        assert not rig.region.workers[2].alive
        assert rig.region.connections[2].stalled
        assert rig.injector.crashes == 1

    def test_crash_is_idempotent(self, rig_factory):
        rig = rig_factory(n=2)
        rig.injector.crash(0)
        rig.injector.crash(0)
        assert rig.injector.crashes == 1

    def test_in_service_tuple_redelivered_on_quick_restart(self, rig_factory):
        """Crash + restart before detection must lose nothing.

        The revoked in-service tuple is put back at the head of the
        receive queue, so the restarted PE re-services it and the merger's
        sequence stays gap-free without any failover.
        """
        total = 400
        rig = rig_factory(n=4, total=total)
        # Crash mid-service and restart well inside the 1 s staleness
        # window, so the liveness monitor never quarantines the channel.
        rig.sim.call_at(0.505, lambda: rig.injector.crash(1, restart_after=0.3))
        merger = rig.run(60.0, stop_on_total=total)
        assert rig.recovery.quarantines == 0
        assert merger.emitted == total
        assert merger.tuples_lost == 0

    def test_scheduled_restart_revives_worker(self, rig_factory):
        rig = rig_factory(n=2)
        rig.injector.crash(0, restart_after=1.0)
        assert not rig.region.workers[0].alive
        rig.sim.run_until(2.0)
        assert rig.region.workers[0].alive
        assert rig.injector.restarts == 1


class TestStallAndSlowdown:
    def test_stall_blocks_unstall_resumes(self, rig_factory):
        total = 200
        rig = rig_factory(n=2, total=total)
        rig.sim.call_at(0.2, lambda: rig.injector.stall(0))
        rig.sim.call_at(0.4, lambda: rig.injector.unstall(0))
        merger = rig.run(30.0, stop_on_total=total)
        assert merger.emitted == total
        assert rig.injector.stalls == 1

    def test_slowdown_requires_known_host(self, rig_factory):
        rig = rig_factory(n=2)
        with pytest.raises(ValueError, match="no worker"):
            rig.injector.slowdown("nonexistent", 2.0)

    def test_slowdown_composes_multiplicatively(self, rig_factory):
        rig = rig_factory(n=2)
        rig.region.workers[0].set_load_multiplier(3.0)
        rig.injector.slowdown("h0", 2.0)
        assert rig.region.workers[0].load_multiplier == pytest.approx(6.0)
        assert rig.region.workers[1].load_multiplier == pytest.approx(2.0)
        rig.injector.end_slowdown("h0", 2.0)
        assert rig.region.workers[0].load_multiplier == pytest.approx(3.0)


class TestFaultLog:
    def test_last_fault_time_anchors_detection(self, rig_factory):
        rig = rig_factory(n=2)
        rig.sim.call_at(1.0, lambda: rig.injector.stall(0))
        rig.sim.call_at(3.0, lambda: rig.injector.crash(0))
        rig.sim.run_until(5.0)
        assert rig.injector.last_fault_time(0, before=2.0) == pytest.approx(1.0)
        assert rig.injector.last_fault_time(0, before=4.0) == pytest.approx(3.0)
        assert rig.injector.last_fault_time(1, before=4.0) is None
