"""Unit tests for the splitter: routing, electing to block, re-routing."""

import pytest

from repro.core.policies import ReroutingPolicy, RoundRobinPolicy, WeightedPolicy
from repro.net.connection import SimulatedConnection
from repro.sim.engine import Simulator
from repro.streams.splitter import Splitter
from repro.streams.sources import FiniteSource, constant_cost


def build(sim, n_connections, policy, total, *, send_capacity=2, recv_capacity=2,
          send_overhead=0.001):
    connections = [
        SimulatedConnection(
            j, send_capacity=send_capacity, recv_capacity=recv_capacity
        )
        for j in range(n_connections)
    ]
    source = FiniteSource(total, constant_cost(1.0))
    splitter = Splitter(
        sim, source, connections, policy, send_overhead=send_overhead
    )
    return splitter, connections


class TestRouting:
    def test_round_robin_distributes_evenly(self):
        sim = Simulator()
        splitter, conns = build(
            sim, 3, RoundRobinPolicy(3), 9, send_capacity=8, recv_capacity=8
        )
        splitter.start()
        sim.run_until(1.0)
        assert splitter.sent_per_connection == [3, 3, 3]
        assert splitter.finished

    def test_weighted_routing_follows_weights(self):
        sim = Simulator()
        splitter, conns = build(
            sim, 2, WeightedPolicy([750, 250]), 8,
            send_capacity=16, recv_capacity=16,
        )
        splitter.start()
        sim.run_until(1.0)
        assert splitter.sent_per_connection == [6, 2]

    def test_sequence_order_preserved_across_connections(self):
        sim = Simulator()
        splitter, conns = build(
            sim, 2, RoundRobinPolicy(2), 6, send_capacity=8, recv_capacity=8
        )
        splitter.start()
        sim.run_until(1.0)
        seqs = []
        for conn in conns:
            while conn.recv_available():
                seqs.append(conn.take().seq)
        assert sorted(seqs) == list(range(6))

    def test_cannot_start_twice(self):
        sim = Simulator()
        splitter, _ = build(sim, 1, RoundRobinPolicy(1), 1)
        splitter.start()
        with pytest.raises(RuntimeError):
            splitter.start()


class TestElectingToBlock:
    def test_splitter_blocks_when_connection_full(self):
        sim = Simulator()
        # One connection, 4 buffer slots, no consumer: the splitter must
        # stall at tuple 5 and stay blocked.
        splitter, conns = build(sim, 1, RoundRobinPolicy(1), 10)
        splitter.start()
        sim.run_until(10.0)
        assert splitter.tuples_sent == 4
        assert splitter.block_events == 1
        assert not splitter.finished

    def test_blocking_time_charged_to_connection(self):
        sim = Simulator()
        splitter, conns = build(sim, 1, RoundRobinPolicy(1), 10)
        splitter.start()
        sim.run_until(5.0)
        # Free one slot at t=5; the splitter was blocked since ~0.004.
        conns[0].take()
        sim.run_until(6.0)
        blocked = conns[0].blocking.read()
        assert blocked == pytest.approx(5.0 - 0.004, abs=0.01)

    def test_single_thread_blocks_all_connections(self):
        # While blocked on connection 0, the splitter sends nothing to
        # connection 1 — the root cause of drafting (Section 4.2).
        sim = Simulator()
        splitter, conns = build(sim, 2, RoundRobinPolicy(2), 100)
        splitter.start()
        sim.run_until(10.0)
        sent_before = splitter.sent_per_connection[1]
        sim.run_until(20.0)
        assert splitter.sent_per_connection[1] == sent_before


class TestRerouting:
    def test_rerouted_tuples_counted(self):
        sim = Simulator()
        splitter, conns = build(sim, 2, ReroutingPolicy(2), 12)
        splitter.start()
        # Connection 0 never drains; connection 1 drains fully.
        def drain():
            while conns[1].recv_available():
                conns[1].take()
        sim.call_every(0.0005, drain)
        sim.run_until(1.0)
        assert splitter.rerouted > 0
        assert splitter.sent_per_connection[1] > splitter.sent_per_connection[0]

    def test_blocks_when_all_connections_full(self):
        sim = Simulator()
        splitter, conns = build(sim, 2, ReroutingPolicy(2), 20)
        splitter.start()
        sim.run_until(5.0)
        assert splitter.tuples_sent == 8  # both pipelines full
        assert splitter.block_events >= 1
