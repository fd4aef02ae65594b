"""Unit tests for the assembled parallel region."""

import pytest

from repro.core.policies import RoundRobinPolicy
from repro.sim.engine import Simulator
from repro.streams.hosts import Host, Placement
from repro.streams.region import ParallelRegion, RegionParams
from repro.streams.sources import FiniteSource, InfiniteSource, constant_cost


def make_region(sim, n=2, *, total=None, cost=100.0, thread_speed=1000.0,
                load_multipliers=None, params=None):
    host = Host("h", cores=max(8, n), thread_speed=thread_speed)
    placement = Placement.single_host(n, host)
    if total is None:
        source = InfiniteSource(constant_cost(cost))
    else:
        source = FiniteSource(total, constant_cost(cost))
    return ParallelRegion(
        sim,
        source,
        RoundRobinPolicy(n),
        placement,
        params=params,
        load_multipliers=load_multipliers,
    )


class TestAssembly:
    def test_all_tuples_exit_in_order(self):
        sim = Simulator()
        region = make_region(sim, n=3, total=30)
        emitted = []
        region.merger.on_emit = lambda t: emitted.append(t.seq)
        region.start()
        sim.run_until(60.0)
        assert emitted == list(range(30))

    def test_worker_count(self):
        sim = Simulator()
        region = make_region(sim, n=4)
        assert region.n_workers == 4
        assert len(region.blocking_counters) == 4

    def test_load_multipliers_applied(self):
        sim = Simulator()
        region = make_region(sim, n=2, load_multipliers=[10.0, 1.0])
        assert region.workers[0].load_multiplier == 10.0
        assert region.workers[1].load_multiplier == 1.0

    def test_load_multipliers_length_checked(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            make_region(sim, n=2, load_multipliers=[1.0])

    def test_total_capacity(self):
        sim = Simulator()
        region = make_region(
            sim, n=2, thread_speed=1000.0, load_multipliers=[10.0, 1.0]
        )
        # Worker 0: 1000/10 = 100 unit-cost tuples/s; worker 1: 1000.
        assert region.total_capacity() == pytest.approx(1100.0)

    def test_empty_placement_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ParallelRegion(
                sim,
                InfiniteSource(constant_cost(1.0)),
                RoundRobinPolicy(1),
                Placement(host_of=[]),
            )


class TestUnorderedRegion:
    def test_unordered_region_emits_out_of_order(self):
        from repro.streams.merger import UnorderedMerger

        sim = Simulator()
        host = Host("h", cores=8, thread_speed=1000.0)
        placement = Placement.single_host(2, host)
        region = ParallelRegion(
            sim,
            FiniteSource(20, constant_cost(100.0)),
            RoundRobinPolicy(2),
            placement,
            load_multipliers=[10.0, 1.0],
            ordered=False,
        )
        assert isinstance(region.merger, UnorderedMerger)
        emitted = []
        region.merger.on_emit = lambda t: emitted.append(t.seq)
        region.start()
        sim.run_until(50.0)
        assert sorted(emitted) == list(range(20))
        assert emitted != sorted(emitted)  # fast worker ran ahead

    def test_ordered_is_the_default(self):
        sim = Simulator()
        region = make_region(sim, n=2)
        assert region.ordered


class TestRegionParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegionParams(send_capacity=0)
        with pytest.raises(ValueError):
            RegionParams(send_overhead=0.0)

    def test_params_propagate_to_connections(self):
        sim = Simulator()
        region = make_region(
            sim, n=1, params=RegionParams(send_capacity=5, recv_capacity=7)
        )
        conn = region.connections[0]
        assert conn._send_buffer.capacity == 5
        assert conn._recv_buffer.capacity == 7


class TestBackpressure:
    def test_region_gated_by_slowest_worker(self):
        # The Section 4.1 phenomenon: with an in-order merge, overall
        # throughput is that of the slowest member times N.
        sim = Simulator()
        region = make_region(
            sim, n=2, thread_speed=1000.0, cost=100.0,
            load_multipliers=[10.0, 1.0],
        )
        region.start()
        sim.run_until(100.0)
        # Slow worker: 1 tuple/s. RR -> region ~2 tuples/s, not ~11.
        rate = region.merger.emitted / 100.0
        assert rate == pytest.approx(2.0, rel=0.2)

    def test_equal_per_connection_throughput(self):
        # Section 4.3: per-connection throughput carries no information —
        # with RR the long-run rates are equal even when capacities differ
        # 10x. The cumulative counts differ only by the (constant) number
        # of tuples parked in the slow pipeline's buffers, so the gap must
        # not grow with time.
        sim = Simulator()
        region = make_region(
            sim, n=2, thread_speed=1000.0, cost=100.0,
            load_multipliers=[10.0, 1.0],
        )
        region.start()
        sim.run_until(100.0)
        received = region.merger.received_per_worker
        gap_at_100 = received[1] - received[0]
        pipeline_limit = 32 + 32 + 2  # send + recv buffers + in service
        assert 0 <= gap_at_100 <= pipeline_limit
        sim.run_until(200.0)
        received = region.merger.received_per_worker
        assert received[1] - received[0] <= pipeline_limit
        # Meanwhile both totals kept growing at the same (slow) rate.
        assert received[0] >= 190
