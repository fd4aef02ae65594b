"""Unit tests for worker PEs."""

import pytest

from repro.net.connection import SimulatedConnection
from repro.sim.engine import Simulator
from repro.streams.hosts import Host
from repro.streams.merger import OrderedMerger
from repro.streams.pe import WorkerPE
from repro.streams.tuples import StreamTuple


def make_worker(sim, *, thread_speed=1000.0, load=1.0):
    host = Host("h", cores=1, thread_speed=thread_speed)
    conn = SimulatedConnection(0)
    merger = OrderedMerger(sim)
    pe = WorkerPE(sim, 0, conn, host, merger, load_multiplier=load)
    return pe, conn, merger


class TestServiceModel:
    def test_service_time_formula(self):
        sim = Simulator()
        pe, _conn, _merger = make_worker(sim, thread_speed=1000.0, load=2.0)
        tup = StreamTuple(seq=0, cost_multiplies=500.0)
        # 500 multiplies * 2.0 load / 1000 multiplies-per-sec = 1 second.
        assert pe.service_time(tup) == pytest.approx(1.0)

    def test_processes_delivered_tuple_after_service_time(self):
        sim = Simulator()
        pe, conn, merger = make_worker(sim, thread_speed=1000.0)
        conn.send_nowait(StreamTuple(seq=0, cost_multiplies=500.0))
        sim.run_until(0.49)
        assert merger.emitted == 0
        sim.run_until(0.51)
        assert merger.emitted == 1
        assert pe.tuples_processed == 1

    def test_tuples_processed_sequentially(self):
        sim = Simulator()
        pe, conn, merger = make_worker(sim, thread_speed=1000.0)
        for seq in range(3):
            conn.send_nowait(StreamTuple(seq=seq, cost_multiplies=1000.0))
        sim.run_until(2.5)
        assert merger.emitted == 2
        sim.run_until(3.5)
        assert merger.emitted == 3

    def test_busy_seconds_accumulate(self):
        sim = Simulator()
        pe, conn, _merger = make_worker(sim, thread_speed=1000.0)
        conn.send_nowait(StreamTuple(seq=0, cost_multiplies=250.0))
        sim.run_until(1.0)
        assert pe.busy_seconds == pytest.approx(0.25)


class TestLoadMultiplier:
    def test_load_change_applies_from_next_tuple(self):
        sim = Simulator()
        pe, conn, merger = make_worker(sim, thread_speed=1000.0)
        conn.send_nowait(StreamTuple(seq=0, cost_multiplies=1000.0))
        conn.send_nowait(StreamTuple(seq=1, cost_multiplies=1000.0))
        sim.call_at(0.5, lambda: pe.set_load_multiplier(10.0))
        # Tuple 0 finishes at 1.0 s (started before the change); tuple 1
        # takes 10 s from there.
        sim.run_until(1.5)
        assert merger.emitted == 1
        sim.run_until(11.5)
        assert merger.emitted == 2

    def test_invalid_multiplier_rejected(self):
        sim = Simulator()
        pe, _conn, _merger = make_worker(sim)
        with pytest.raises(ValueError):
            pe.set_load_multiplier(0.0)


class TestHostSharing:
    def test_colocated_pes_share_host_capacity(self):
        sim = Simulator()
        host = Host("h", cores=1, thread_speed=1000.0)
        merger = OrderedMerger(sim)
        conns = [SimulatedConnection(j) for j in range(2)]
        pes = [WorkerPE(sim, j, conns[j], host, merger) for j in range(2)]
        # 2 PEs on a 1-core host: each runs at half speed.
        tup = StreamTuple(seq=0, cost_multiplies=500.0)
        assert pes[0].service_time(tup) == pytest.approx(1.0)
