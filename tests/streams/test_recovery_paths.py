"""Direct unit tests for the dataplane's failure-recovery paths.

The fault package's tests drive these paths end to end; here each layer
is pinned in isolation — the merger's lost-sequence handling, the
splitter's retransmit buffer and fail/restore transitions, the worker's
crash/halt/restart lifecycle, and the connection's fail/reset/redeliver
primitives.
"""

import pytest

from repro.core.policies import RoundRobinPolicy
from repro.net.connection import SimulatedConnection
from repro.obs.hub import ObservabilityHub
from repro.sim.engine import Simulator
from repro.streams.hosts import Host, Placement
from repro.streams.merger import OrderedMerger, SequenceError
from repro.streams.region import ParallelRegion, RegionParams
from repro.streams.sources import FiniteSource, constant_cost
from repro.streams.splitter import Splitter
from repro.streams.tuples import StreamTuple, TupleBlock


def tup(seq):
    return StreamTuple(seq=seq, cost_multiplies=1.0)


def block(start, count):
    return TupleBlock.uniform(start, count, 1.0)


def spans(blocks):
    return [(b.start, b.count) for b in blocks]


def queued(splitter):
    """The splitter's undelivered batch pieces: ``(connection, span)``."""
    return [(j, (b.start, b.count)) for j, b in splitter._chunks]


def make_ft_region(sim, n=2, *, total=50, cost=100.0):
    host = Host("h", cores=max(8, n), thread_speed=1000.0)
    return ParallelRegion(
        sim,
        FiniteSource(total, constant_cost(cost)),
        RoundRobinPolicy(n),
        Placement.single_host(n, host),
        params=RegionParams(fault_tolerant=True),
    )


class TestMergerLostSequences:
    def test_mark_lost_releases_held_successors(self):
        merger = OrderedMerger(Simulator())
        merger.accept(0, tup(1))
        merger.accept(0, tup(2))
        assert merger.emitted == 0
        assert merger.mark_lost([0]) == 1
        assert merger.emitted == 2
        assert merger.tuples_lost == 1

    def test_mark_lost_future_gap_waits_until_reached(self):
        merger = OrderedMerger(Simulator())
        merger.mark_lost([2])
        merger.accept(0, tup(0))
        merger.accept(0, tup(1))
        # Seq 2 is consumed as lost the moment the cursor reaches it.
        assert merger.next_seq == 3
        assert merger.tuples_lost == 1

    def test_emitted_and_pending_seqs_are_not_markable(self):
        merger = OrderedMerger(Simulator())
        merger.accept(0, tup(0))
        merger.accept(0, tup(2))
        assert merger.mark_lost([0, 2]) == 0
        assert merger.tuples_lost == 0

    def test_late_arrival_of_skipped_seq_is_a_drop_not_an_error(self):
        merger = OrderedMerger(Simulator())
        merger.mark_lost([0])
        assert merger.next_seq == 1
        merger.accept(0, tup(0))  # straggler after the skip
        assert merger.late_arrivals == 1
        assert merger.emitted == 0
        # A genuine duplicate still raises.
        merger.accept(0, tup(1))
        with pytest.raises(SequenceError):
            merger.accept(0, tup(1))

    def test_late_arrival_of_marked_but_unskipped_seq(self):
        merger = OrderedMerger(Simulator())
        merger.mark_lost([5])
        merger.accept(0, tup(5))
        assert merger.late_arrivals == 1
        assert merger.next_seq == 0

    def test_completion_counts_lost_tuples(self):
        sim = Simulator()
        merger = OrderedMerger(sim)
        fired = []
        merger.on_completion(3, lambda: fired.append(sim.now))
        merger.accept(0, tup(0))
        merger.accept(0, tup(1))
        merger.mark_lost([2])
        assert fired, "budget must drain even when its tail is lost"


class TestSplitterRetransmit:
    def _splitter(self, sim, n=2, total=20):
        # Fault tolerance runs the block path at every B, B = 1 included.
        connections = [
            SimulatedConnection(
                i, send_capacity=4, recv_capacity=4, block_mode=True
            )
            for i in range(n)
        ]
        splitter = Splitter(
            sim,
            FiniteSource(total, constant_cost(1.0)),
            connections,
            RoundRobinPolicy(n),
            fault_tolerant=True,
        )
        return splitter, connections

    def test_sent_tuples_are_tracked_until_acked(self):
        sim = Simulator()
        splitter, _ = self._splitter(sim)
        splitter.start()
        sim.run_until(1.0)
        # 8 tuples fit in the two connections' send buffers (4 each)
        # plus in-flight pumps; all unacked.
        assert splitter.inflight_count(0) > 0
        total_inflight = splitter.inflight_count(0) + splitter.inflight_count(1)
        assert total_inflight == splitter.tuples_sent

    def test_acks_retire_fifo(self):
        sim = Simulator()
        splitter, _ = self._splitter(sim)
        splitter.start()
        sim.run_until(1.0)
        before = splitter.inflight_count(0)
        splitter.acknowledge_runs(0, [block(0, 1)])  # seq 0 went to 0 (RR)
        assert splitter.inflight_count(0) == before - 1

    def test_out_of_order_ack_raises(self):
        sim = Simulator()
        splitter, _ = self._splitter(sim)
        splitter.start()
        sim.run_until(1.0)
        with pytest.raises(RuntimeError, match="does not match"):
            # The front of connection 0 is seq 0.
            splitter.acknowledge_runs(0, [block(2, 1)])

    def _block_splitter(self, sim):
        """A block-mode splitter whose connection 0 retransmit buffer is
        ``[0, 3) [3, 5) [5, 10)``, as partial send-accepts leave it."""
        connections = [
            SimulatedConnection(i, block_mode=True) for i in range(2)
        ]
        splitter = Splitter(
            sim,
            FiniteSource(20, constant_cost(1.0)),
            connections,
            RoundRobinPolicy(2),
            fault_tolerant=True,
            batch_size=4,
        )
        splitter._inflight[0].extend([block(0, 3), block(3, 2), block(5, 5)])
        splitter._inflight_tuples[0] = 10
        return splitter

    def test_one_ack_per_run_across_buffer_split_points(self):
        splitter = self._block_splitter(Simulator())
        buffer = splitter._inflight[0]
        # A front block acked in part is cut, its unacked tail retained.
        splitter.acknowledge_runs(0, [block(0, 2)])
        assert spans(buffer) == [(2, 1), (3, 2), (5, 5)]
        assert splitter.inflight_count(0) == 8
        # One run block retires two front blocks and cuts into a third.
        splitter.acknowledge_runs(0, [block(2, 4)])
        assert spans(buffer) == [(6, 4)]
        assert splitter.inflight_count(0) == 4
        # Two run blocks retire the one front block between them.
        splitter.acknowledge_runs(0, [block(6, 1), block(7, 3)])
        assert spans(buffer) == []
        assert splitter.inflight_count(0) == 0

    def test_mismatched_run_ack_raises_naming_the_connection(self):
        splitter = self._block_splitter(Simulator())
        with pytest.raises(RuntimeError, match="connection 0's .*front: 0"):
            splitter.acknowledge_runs(0, [block(1, 2)])
        with pytest.raises(RuntimeError, match="connection 0's .*front: 3"):
            splitter.acknowledge_runs(0, [block(0, 3), block(6, 1)])
        with pytest.raises(RuntimeError, match="connection 1's .*empty"):
            splitter.acknowledge_runs(1, [block(0, 1)])

    def test_fail_channel_queues_unacked_for_replay(self):
        sim = Simulator()
        splitter, _ = self._splitter(sim)
        splitter.start()
        sim.run_until(1.0)
        unacked = splitter.inflight_count(0)
        replayed, lost = splitter.fail_channel(0)
        assert replayed == unacked
        assert lost == []
        assert splitter.tuples_replayed == unacked
        assert not splitter.live[0]

    def test_fail_channel_skip_returns_lost_seqs(self):
        sim = Simulator()
        splitter, _ = self._splitter(sim)
        splitter.start()
        sim.run_until(1.0)
        unacked = splitter.inflight_count(0)
        replayed, lost = splitter.fail_channel(0, replay=False)
        assert replayed == 0
        assert len(lost) == unacked
        assert lost == sorted(lost)

    def test_fail_channel_is_idempotent(self):
        sim = Simulator()
        splitter, _ = self._splitter(sim)
        splitter.start()
        sim.run_until(1.0)
        splitter.fail_channel(0)
        assert splitter.fail_channel(0) == (0, [])

    def test_restore_channel_marks_live(self):
        sim = Simulator()
        splitter, _ = self._splitter(sim)
        splitter.start()
        sim.run_until(1.0)
        splitter.fail_channel(0)
        splitter.restore_channel(0)
        assert splitter.live[0]

    def test_plain_splitter_rejects_fail_channel(self):
        sim = Simulator()
        connections = [SimulatedConnection(0)]
        splitter = Splitter(
            sim,
            FiniteSource(5, constant_cost(1.0)),
            connections,
            RoundRobinPolicy(1),
        )
        with pytest.raises(RuntimeError, match="fault-tolerant"):
            splitter.fail_channel(0)

    def test_fault_tolerance_needs_block_mode_connections(self):
        with pytest.raises(ValueError, match="block path"):
            Splitter(
                Simulator(),
                FiniteSource(5, constant_cost(1.0)),
                [SimulatedConnection(0)],
                RoundRobinPolicy(1),
                fault_tolerant=True,
            )

    def _parked_splitter(self, sim):
        """A B = 4 splitter over three block-mode connections, parked on
        connection 0 with the batch ``[12, 16)`` half sent: 0's chunk
        ``[12, 14)`` waits for send space at the head of the queue, 1's
        ``[14]`` and 2's ``[15]`` are still queued behind it."""
        connections = [
            SimulatedConnection(
                i, send_capacity=2, recv_capacity=2, block_mode=True
            )
            for i in range(3)
        ]
        splitter = Splitter(
            sim,
            FiniteSource(40, constant_cost(1.0)),
            connections,
            RoundRobinPolicy(3),
            fault_tolerant=True,
            batch_size=4,
        )
        splitter.start()
        sim.run_until(1.0)
        assert splitter.blocked_on() == 0
        assert queued(splitter) == [(0, (12, 2)), (1, (14, 1)), (2, (15, 1))]
        return splitter

    def test_failing_a_live_channel_keeps_the_splitter_parked(self):
        sim = Simulator()
        splitter = self._parked_splitter(sim)
        blocking = splitter.connections[0].blocking.lifetime_episodes
        splitter.fail_channel(1)
        # Only connection 1's undelivered chunk comes back, to the head
        # of the replay queue; the wait on connection 0 goes on.
        assert splitter.blocked_on() == 0
        assert queued(splitter) == [(0, (12, 2)), (2, (15, 1))]
        assert spans(splitter._replay)[0] == (14, 1)
        assert splitter.connections[0].blocking.lifetime_episodes == blocking

    def test_failing_the_parked_channel_unparks_and_keeps_the_rest(self):
        sim = Simulator()
        splitter = self._parked_splitter(sim)
        splitter.fail_channel(0)
        assert splitter.blocked_on() is None
        assert splitter.connections[0].blocking.lifetime_episodes == 1
        # Connection 0's undelivered tuple heads the replay queue; the
        # live channels' chunks stay queued for the resumed cycle.
        assert queued(splitter) == [(1, (14, 1)), (2, (15, 1))]
        assert spans(splitter._replay)[0] == (12, 2)

    def test_reclaim_that_empties_a_batch_of_one_aborts_its_span(self):
        sim = Simulator()
        splitter, _ = self._splitter(sim)
        hub = ObservabilityHub(lambda: sim.now)
        splitter.attach_observability(hub)
        splitter.start()
        sim.run_until(1.0)
        parked = splitter.blocked_on()
        assert parked is not None
        splitter.fail_channel(parked)
        *_, last = (
            span for span in hub.tracer.as_dicts()
            if span["kind"] == "batch_dispatch"
        )
        assert last["attrs"] == {"tuples": 1, "aborted": True}
        # The parked tuple heads the replay queue, ahead of the dead
        # channel's unacknowledged ones.
        assert spans(splitter._replay)[0] == (splitter.tuples_sent, 1)


class TestRegionFailRestore:
    def test_fail_channel_reroutes_everything_to_survivor(self):
        sim = Simulator()
        region = make_ft_region(sim, n=2, total=40)
        region.start()
        sim.run_until(0.5)
        region.fail_channel(0)
        sim.run_until(60.0)
        assert region.merger.emitted == 40
        assert region.merger.tuples_lost == 0
        assert region.splitter.fault_reroutes > 0

    def test_plain_region_rejects_fail_channel(self):
        sim = Simulator()
        host = Host("h", cores=8, thread_speed=1000.0)
        region = ParallelRegion(
            sim,
            FiniteSource(10, constant_cost(100.0)),
            RoundRobinPolicy(2),
            Placement.single_host(2, host),
        )
        with pytest.raises(RuntimeError, match="fault_tolerant"):
            region.fail_channel(0)

    def test_restore_channel_resumes_consumption(self):
        sim = Simulator()
        region = make_ft_region(sim, n=2, total=60)
        region.start()
        sim.run_until(0.5)
        region.fail_channel(1)
        sim.run_until(1.0)
        region.restore_channel(1)
        sim.run_until(60.0)
        assert region.merger.emitted == 60
        assert region.splitter.live[1]


class TestWorkerLifecycle:
    def test_crash_requires_fault_tolerance(self):
        sim = Simulator()
        host = Host("h", cores=8, thread_speed=1000.0)
        region = ParallelRegion(
            sim,
            FiniteSource(10, constant_cost(100.0)),
            RoundRobinPolicy(1),
            Placement.single_host(1, host),
        )
        region.start()
        sim.run_until(0.05)
        with pytest.raises(RuntimeError, match="not fault-tolerant"):
            region.workers[0].crash()

    def test_crash_revokes_in_service_tuple(self):
        sim = Simulator()
        region = make_ft_region(sim, n=1, total=10)
        region.start()
        sim.run_until(0.05)  # mid-service (service time is 0.1 s)
        worker = region.workers[0]
        assert worker.busy
        revoked = worker.crash()
        assert spans(revoked) == [(0, 1)]
        assert not worker.busy
        # The cancelled completion never fires.
        processed = worker.tuples_processed
        sim.run_until(0.3)
        assert worker.tuples_processed == processed

    @pytest.mark.parametrize("batch_size", [1, 16])
    def test_crash_cancels_the_owned_cell_and_restart_rearms(self, batch_size):
        from repro.faults import FaultInjector

        sim = Simulator()
        region = ParallelRegion(
            sim,
            FiniteSource(40, constant_cost(100.0)),
            RoundRobinPolicy(1),
            Placement.single_host(1, Host("h", cores=8, thread_speed=1000.0)),
            params=RegionParams(fault_tolerant=True, batch_size=batch_size),
        )
        injector = FaultInjector(sim, region)
        worker = region.workers[0]
        region.start()
        sim.run_until(0.05)  # mid-service (0.1 s a tuple)
        assert worker.busy and worker._cell is not None
        injector.crash(0)
        assert worker._cell is None
        assert sim.perf.events_cancelled == 1
        sim.run_until(5.0)
        assert worker.tuples_processed == 0, "the revoked service completed"
        injector.restart(0)
        rearmed = worker._cell
        assert rearmed is not None
        sim.run_until(100.0)
        # Every later service re-armed that one cell.
        assert worker._cell is rearmed
        assert worker.tuples_processed == region.merger.emitted == 40
        assert sim.perf.events_cancelled == 1

    def test_halt_then_resume_continues(self):
        sim = Simulator()
        region = make_ft_region(sim, n=1, total=10)
        region.start()
        sim.run_until(0.05)
        worker = region.workers[0]
        # Halt revokes the in-service tuple; redeliver it the way the
        # injector does, so no sequence number is orphaned.
        revoked = worker.halt()
        assert worker._halted
        assert revoked is not None
        for run in reversed(revoked):
            region.connections[0].requeue_front_run(run)
        sim.run_until(0.5)
        stalled_at = worker.tuples_processed
        worker.resume()
        sim.run_until(10.0)
        assert worker.tuples_processed > stalled_at
        assert region.merger.emitted == 10

    def test_restart_resumes_from_intact_buffer(self):
        sim = Simulator()
        region = make_ft_region(sim, n=1, total=10)
        region.start()
        sim.run_until(0.05)
        worker = region.workers[0]
        for run in reversed(worker.crash()):
            region.connections[0].requeue_front_run(run)
        worker.restart()
        sim.run_until(10.0)
        # Nothing lost: the revoked tuple was redelivered.
        assert region.merger.emitted == 10


class TestConnectionFaultPrimitives:
    def test_fail_drops_buffers_and_stalls(self):
        conn = SimulatedConnection(0, send_capacity=4, recv_capacity=4)
        for seq in range(6):
            assert conn.send_nowait(tup(seq))
        assert conn.queued_tuples() == 6
        assert conn.fail() == 6
        assert conn.queued_tuples() == 0
        assert conn.stalled

    def test_reset_clears_stall(self):
        conn = SimulatedConnection(0)
        conn.fail()
        assert conn.stalled
        conn.reset()
        assert not conn.stalled
        assert conn.send_nowait(tup(0))

    def test_requeue_front_bypasses_capacity(self):
        conn = SimulatedConnection(
            0, send_capacity=2, recv_capacity=1, block_mode=True
        )
        assert conn.send_run(block(1, 2)) == 2
        conn.requeue_front_run(block(0, 1))
        assert spans(conn.take_runs(1)) == [(0, 1)]
