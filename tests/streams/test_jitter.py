"""Tests for seeded service-time jitter."""

import pytest

from repro.core.policies import WeightedPolicy
from repro.net.connection import SimulatedConnection
from repro.sim.engine import Simulator
from repro.streams.hosts import Host, Placement
from repro.streams.merger import OrderedMerger
from repro.streams.pe import WorkerPE
from repro.streams.region import ParallelRegion, RegionParams
from repro.streams.sources import InfiniteSource, constant_cost
from repro.streams.tuples import StreamTuple


def make_pe(jitter, seed=0):
    sim = Simulator()
    host = Host("h", cores=1, thread_speed=1000.0)
    conn = SimulatedConnection(0)
    return WorkerPE(
        sim, 0, conn, host, OrderedMerger(sim),
        service_jitter=jitter, seed=seed,
    )


class TestJitterModel:
    def test_zero_jitter_is_deterministic(self):
        pe = make_pe(0.0)
        tup = StreamTuple(seq=0, cost_multiplies=500.0)
        assert pe.service_time(tup) == pe.service_time(tup) == 0.5

    def test_jitter_bounds(self):
        pe = make_pe(0.2)
        tup = StreamTuple(seq=0, cost_multiplies=500.0)
        for _ in range(200):
            assert 0.4 <= pe.service_time(tup) <= 0.6

    def test_jitter_varies(self):
        pe = make_pe(0.2)
        tup = StreamTuple(seq=0, cost_multiplies=500.0)
        samples = {round(pe.service_time(tup), 6) for _ in range(50)}
        assert len(samples) > 10

    def test_same_seed_reproduces(self):
        a, b = make_pe(0.2, seed=7), make_pe(0.2, seed=7)
        tup = StreamTuple(seq=0, cost_multiplies=500.0)
        assert [a.service_time(tup) for _ in range(20)] == [
            b.service_time(tup) for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a, b = make_pe(0.2, seed=1), make_pe(0.2, seed=2)
        tup = StreamTuple(seq=0, cost_multiplies=500.0)
        assert [a.service_time(tup) for _ in range(20)] != [
            b.service_time(tup) for _ in range(20)
        ]

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            make_pe(1.5)
        with pytest.raises(ValueError):
            RegionParams(service_jitter=-0.1)


class TestDraftLeaderRotationUnderNoise:
    def test_5050_leader_swaps_with_jitter(self):
        # The paper's Figure 5(d): at a 50/50 split the draft leader
        # changes "at some arbitrary point in time". A perfectly
        # deterministic simulator never swaps; realistic noise does it.
        sim = Simulator()
        host = Host("h", cores=8, thread_speed=2e5)
        region = ParallelRegion(
            sim,
            InfiniteSource(constant_cost(10_000)),
            WeightedPolicy([500, 500]),
            Placement.single_host(2, host),
            params=RegionParams(
                send_overhead=4_000 / 2e5, service_jitter=0.1, seed=42
            ),
        )
        region.start()
        leaders = []
        last = [0.0, 0.0]

        def sample():
            current = [c.lifetime_seconds for c in region.blocking_counters]
            deltas = [c - p for c, p in zip(current, last)]
            last[:] = current
            if max(deltas) > 0:
                leaders.append(deltas.index(max(deltas)))

        sim.call_every(1.0, sample)
        sim.run_until(300.0)
        assert len(set(leaders)) == 2, "leader never rotated under jitter"
        swaps = sum(1 for a, b in zip(leaders, leaders[1:]) if a != b)
        assert swaps >= 1
