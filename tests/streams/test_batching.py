"""Unit tests for the batched dataplane fast path.

Component-level coverage for the pieces the batch-equivalence property
test exercises end to end: batch allocation in the routing policies, block
buffer/connection operations, the merger's run acceptance, the splitter's
apportion-and-dispatch cycle, and the worker's batched service loop.
"""

import random

import pytest

from repro.core.policies import (
    ReroutingPolicy,
    RoundRobinPolicy,
    WeightedPolicy,
)
from repro.net.buffers import RunBuffer
from repro.net.connection import SimulatedConnection
from repro.sim.engine import Simulator
from repro.streams.hosts import Host, Placement
from repro.streams.merger import OrderedMerger, SequenceError, UnorderedMerger
from repro.streams.region import ParallelRegion, RegionParams
from repro.streams.sources import FiniteSource, constant_cost
from repro.streams.tuples import StreamTuple, TupleBlock
from repro.util.perf import BatchStats


def tup(seq):
    return StreamTuple(seq=seq, cost_multiplies=1.0)


# --------------------------------------------------------------- policies


class TestRoundRobinAllocateBatch:
    def test_matches_per_pick_realization(self):
        batch = RoundRobinPolicy(3)
        picks = RoundRobinPolicy(3)
        for count in (1, 2, 3, 5, 7, 100):
            expected = [0, 0, 0]
            for _ in range(count):
                expected[picks.next_connection()] += 1
            assert batch.allocate_batch(count) == expected

    def test_cursor_advances_across_batches(self):
        policy = RoundRobinPolicy(3)
        assert policy.allocate_batch(2) == [1, 1, 0]
        assert policy.allocate_batch(2) == [1, 0, 1], "resumes at 2, wraps to 0"
        assert policy.next_connection() == 1

    def test_zero_count(self):
        assert RoundRobinPolicy(2).allocate_batch(0) == [0, 0]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinPolicy(2).allocate_batch(-1)


class TestWeightedAllocateBatch:
    def test_exact_for_divisible_batch(self):
        policy = WeightedPolicy([3, 1])
        assert policy.allocate_batch(4) == [3, 1]
        assert policy.allocate_batch(8) == [6, 2]

    def test_unclamped_leftover_goes_to_the_lowest_index_on_ties(self):
        # No floor clamps here: the one leftover of an ordinary
        # largest-remainder hand-out still takes the settling path.
        policy = WeightedPolicy([1, 1, 1])
        assert policy.allocate_batch(16) == [6, 5, 5]

    def test_excess_comes_back_from_the_highest_index_on_ties(self):
        # A whole tuple of share each for a batch of one: the take-back
        # leaves the lowest index, the round-robin's pick on a tie.
        policy = WeightedPolicy([1, 1])
        policy._credits = [2, 2]
        assert policy.allocate_batch(1) == [1, 0]
        assert policy._credits == [1, 3]

    def test_credits_carry_between_batches(self):
        # 1:1 weights, odd batches: the leftover must alternate.
        policy = WeightedPolicy([1, 1])
        totals = [0, 0]
        for _ in range(10):
            alloc = policy.allocate_batch(3)
            assert sum(alloc) == 3
            totals = [a + b for a, b in zip(totals, alloc)]
        assert totals == [15, 15]

    def test_long_run_drift_bounded_by_one(self):
        policy = WeightedPolicy([5, 1, 3])
        totals = [0, 0, 0]
        sent = 0
        for count in [1, 2, 7, 64, 3, 1, 1, 5, 9, 2] * 5:
            alloc = policy.allocate_batch(count)
            assert all(a >= 0 for a in alloc)
            assert sum(alloc) == count
            totals = [a + b for a, b in zip(totals, alloc)]
            sent += count
            for j, w in enumerate([5, 1, 3]):
                assert abs(totals[j] - sent * w / 9) <= 1.0

    def test_wide_region_carries_credits_exactly(self):
        # A paper-sized region (dozens of connections, some at weight 0)
        # over a long random count sequence with weight changes mixed in:
        # every batch sums exactly, nobody goes negative, zero weights get
        # nothing, and the carried integer credits conserve mass exactly —
        # what one batch rounds away the next ones pay back.
        rng = random.Random(20160401)
        n = 45
        weights = [rng.choice([0, 1, 3, 9]) for _ in range(n)]
        weights[0] = 1
        policy = WeightedPolicy(weights)
        for round_no in range(200):
            count = rng.choice([0, 1, 2, n - 1, n, n + 1, rng.randint(0, 500)])
            alloc = policy.allocate_batch(count)
            assert sum(alloc) == count, f"round {round_no}"
            assert all(a >= 0 for a in alloc)
            assert all(a == 0 for a, w in zip(alloc, weights) if w == 0)
            assert sum(policy._credits) == 0
            if round_no % 37 == 36:
                weights = [rng.choice([0, 1, 3, 9]) for _ in range(n)]
                weights[-1] = 1
                policy.set_weights(weights)
                assert policy._credits == [0] * n

    def test_zero_weight_connection_gets_nothing(self):
        policy = WeightedPolicy([0, 2, 0, 1])
        for count in (1, 2, 7, 64):
            alloc = policy.allocate_batch(count)
            assert alloc[0] == 0 and alloc[2] == 0

    def test_debt_never_goes_negative(self):
        # Regression: a low-weight connection that just received a
        # leftover carries a debit credit; on the next small batch its
        # true floor is -1, which must clamp to 0 (a negative allocation
        # corrupts the splitter's batch slicing).
        policy = WeightedPolicy([1, 3, 3, 3])
        for _ in range(50):
            alloc = policy.allocate_batch(2)
            assert all(a >= 0 for a in alloc), alloc
            assert sum(alloc) == 2

    def test_clamped_floors_cannot_overshoot_count(self):
        # Regression: with mixed debit/credit carries the clamped floors
        # summed past ``count`` and the leftover slice went negative,
        # handing +1 to nearly every connection — a batch of 2 came back
        # as an allocation of 8 and crashed the splitter's sum check.
        policy = WeightedPolicy([7, 1, 1, 9, 7, 1])
        # Half a tuple of credit or debt each, in units of 1/26 tuple.
        policy._credits = [13, -13, -13, 13, 13, -13]
        alloc = policy.allocate_batch(2)
        assert sum(alloc) == 2, alloc
        assert all(a >= 0 for a in alloc), alloc

    def test_varying_counts_preserve_sum_invariant(self):
        # The same overshoot arises organically from uneven batch
        # occupancy (partial pulls / end of stream), without poking at
        # the credit vector: every call must still sum exactly.
        policy = WeightedPolicy([7, 1, 1, 9, 7, 1])
        for count in [6, 2, 11, 1, 3, 64, 2, 2, 5, 1] * 20:
            alloc = policy.allocate_batch(count)
            assert sum(alloc) == count, alloc
            assert all(a >= 0 for a in alloc), alloc

    def test_set_weights_resets_credits(self):
        policy = WeightedPolicy([1, 1])
        policy.allocate_batch(1)  # leaves fractional credits behind
        policy.set_weights([1, 1])
        # Fresh credits: the tie goes to the lowest index again.
        assert policy.allocate_batch(1) == [1, 0]


# ------------------------------------------------- buffers and connection


def block(start, count):
    return TupleBlock.uniform(start, count, 1.0)


def spans(blocks):
    return [(b.start, b.count) for b in blocks]


def block_connection(**capacities):
    return SimulatedConnection(0, block_mode=True, **capacities)


class TestPopMany:
    def test_drains_in_fifo_order(self):
        buffer = RunBuffer(8)
        assert buffer.push_run(block(0, 5)) == 5
        assert spans(buffer.pop_runs(3)) == [(0, 3)], "boundary block split"
        assert spans(buffer.pop_runs(10)) == [(3, 2)]
        assert len(buffer) == 0

    def test_non_positive_max_rejected(self):
        with pytest.raises(ValueError):
            RunBuffer(4).pop_runs(0)


class TestBulkConnection:
    def test_send_many_partial_on_full_buffer(self):
        conn = block_connection(send_capacity=2, recv_capacity=2)
        conn.stall()  # freeze the transport so only the send buffer fills
        run = block(0, 5)
        assert conn.send_run(run) == 2
        assert conn.send_run(run.split(2)[1]) == 0
        assert conn.queued_tuples() == 2

    def test_send_many_resumes_from_start_offset(self):
        conn = block_connection(send_capacity=2, recv_capacity=2)
        run = block(0, 4)
        accepted = conn.send_run(run)
        assert accepted == 2, "two land in the receive buffer, then it is full"
        assert conn.send_run(run.split(accepted)[1]) == 2
        assert spans(conn.take_runs(8)) == [(0, 2)]
        assert spans(conn.take_runs(8)) == [(2, 2)], "the tail follows, in order"
        assert conn.queued_tuples() == 0

    def test_take_many_returns_oldest_first(self):
        conn = block_connection(send_capacity=8, recv_capacity=8)
        conn.send_run(block(0, 4))
        assert spans(conn.take_runs(3)) == [(0, 3)]
        assert conn.recv_available() == 1

    def test_coalesced_delivery_notifies_once_per_run(self):
        wakeups = []
        conn = block_connection(send_capacity=8, recv_capacity=8)
        conn.on_deliver = lambda: wakeups.append(conn.recv_available())
        conn.send_run(block(0, 5))
        assert wakeups == [5], "one wakeup with the whole run visible"
        assert conn.recv_available() == 5

    def test_per_tuple_delivery_notifies_per_tuple(self):
        wakeups = []
        conn = SimulatedConnection(0, send_capacity=8, recv_capacity=8)
        conn.on_deliver = lambda: wakeups.append(1)
        conn.stall()
        for s in range(5):
            assert conn.send_nowait(tup(s))
        conn.unstall()  # one pump moves all five
        assert len(wakeups) == 5


# ----------------------------------------------------------------- source


class TestNextBatch:
    # The source's bulk pull, ``next_block``.
    def test_finite_source_batches_until_exhausted(self):
        source = FiniteSource(7, constant_cost(1.0))
        first = source.next_block(3)
        assert [t.seq for t in first.materialize()] == [0, 1, 2]
        rest = source.next_block(10)
        assert [t.seq for t in rest.materialize()] == [3, 4, 5, 6]
        assert source.next_block(5) is None

    def test_non_positive_max_rejected(self):
        with pytest.raises(ValueError):
            FiniteSource(3, constant_cost(1.0)).next_block(0)


# ----------------------------------------------------------------- merger


class TestAcceptRun:
    def test_contiguous_run_emits_in_order(self):
        emitted = []
        merger = OrderedMerger(
            Simulator(), on_emit=lambda t: emitted.append(t.seq)
        )
        merger.accept_runs(0, [block(0, 4)])
        assert emitted == [0, 1, 2, 3]
        assert merger.received_per_worker[0] == 4

    def test_out_of_order_runs_held_and_released(self):
        emitted = []
        merger = OrderedMerger(
            Simulator(), on_emit=lambda t: emitted.append(t.seq)
        )
        merger.accept_runs(1, [block(2, 2)])
        assert emitted == []
        assert merger.pending_count == 2
        merger.accept_runs(0, [block(0, 2)])
        assert emitted == [0, 1, 2, 3]
        assert merger.pending_count == 0

    def test_single_occupancy_update_per_run(self):
        merger = OrderedMerger(Simulator())
        merger.accept_runs(0, [block(5, 3)])
        assert merger.max_pending == 3

    def test_duplicate_in_run_rejected(self):
        merger = OrderedMerger(Simulator())
        merger.accept_runs(0, [block(0, 2)])
        with pytest.raises(SequenceError):
            merger.accept_runs(1, [block(1, 1)])  # already emitted
        merger.accept_runs(0, [block(5, 3)])
        with pytest.raises(SequenceError):
            merger.accept_runs(1, [block(6, 1)])  # inside a parked run

    def test_empty_run_is_a_no_op(self):
        merger = OrderedMerger(Simulator())
        merger.accept_runs(0, [])
        assert merger.emitted == 0
        assert 0 not in merger.received_per_worker

    def test_lost_tuples_straggling_in_a_run_are_dropped(self):
        emitted = []
        merger = OrderedMerger(
            Simulator(), on_emit=lambda t: emitted.append(t.seq)
        )
        merger.mark_lost([0, 1])
        merger.accept_runs(0, [block(0, 1), block(2, 2)])
        assert emitted == [2, 3]
        assert merger.late_arrivals == 1
        assert merger.tuples_lost == 2

    def test_unordered_merger_accepts_runs(self):
        emitted = []
        merger = UnorderedMerger(
            Simulator(), on_emit=lambda t: emitted.append(t.seq)
        )
        merger.accept_runs(0, [block(3, 1), block(1, 1)])
        assert emitted == [3, 1], "unordered: arrival order, no holding"

    def test_born_column_latency_matches_per_tuple_accounting(self):
        # Blocks with a per-tuple born column, arriving out of order so
        # both the in-order fast path and the parked-run drain emit them.
        rng = random.Random(5)
        borns = [rng.random() for _ in range(64)]
        sim = Simulator()
        merger = OrderedMerger(sim)
        blocks = [
            TupleBlock.from_costs(
                start, [100.0] * 16, borns=borns[start : start + 16]
            )
            for start in (0, 16, 32, 48)
        ]
        sim.call_at(1.0, lambda: merger.accept_runs(1, [blocks[1]]))
        sim.call_at(1.0, lambda: merger.accept_runs(0, [blocks[0]]))
        sim.call_at(2.0, lambda: merger.accept_runs(1, [blocks[3]]))
        sim.call_at(2.0, lambda: merger.accept_runs(0, [blocks[2]]))
        sim.run_until(3.0)
        assert merger.emitted == 64 and merger.next_seq == 64
        assert merger.latency_count == 64
        expected = sum(1.0 - b for b in borns[:32]) + sum(
            2.0 - b for b in borns[32:]
        )
        assert merger.latency_seconds == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------- batch stats


class TestBatchStats:
    def test_mean_occupancy(self):
        stats = BatchStats()
        assert stats.mean_occupancy == 0.0
        stats.record(4)
        stats.record(2)
        assert stats.batches == 2
        assert stats.tuples == 6
        assert stats.mean_occupancy == 3.0
        assert stats.as_dict() == {
            "batches": 2,
            "tuples": 6,
            "mean_occupancy": 3.0,
        }


# ---------------------------------------------------------- region wiring


def build_region(total, batch_size, *, weights=(1, 1), **params):
    sim = Simulator()
    host = Host("h", cores=8, thread_speed=1e5)
    region = ParallelRegion(
        sim,
        FiniteSource(total, constant_cost(1_000.0)),
        WeightedPolicy(list(weights)),
        Placement.single_host(len(weights), host),
        params=RegionParams(batch_size=batch_size, **params),
    )
    return sim, region


class TestRegionBatching:
    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            RegionParams(batch_size=0)

    def test_rerouting_policy_refused_in_block_mode(self):
        # Section 4.4 re-routing offers one tuple to alternate buffers; a
        # block path would silently run it as plain round-robin.
        def region(batch_size, **params):
            return ParallelRegion(
                Simulator(),
                FiniteSource(8, constant_cost(1_000.0)),
                ReroutingPolicy(2),
                Placement.single_host(2, Host("h", cores=2, thread_speed=1e5)),
                params=RegionParams(batch_size=batch_size, **params),
            )

        with pytest.raises(ValueError, match="allows_reroute"):
            region(4)
        # Fault tolerance runs the block path at B = 1 too.
        with pytest.raises(ValueError, match="allows_reroute"):
            region(1, fault_tolerant=True)
        assert region(1).splitter.policy.allows_reroute

    def test_dispatch_and_service_stats_recorded(self):
        sim, region = build_region(64, 16)
        region.merger.on_completion(64, sim.stop)
        region.start()
        sim.run_until(1e6)
        stats = region.splitter.dispatch_stats
        assert stats.tuples == 64
        assert stats.batches <= 8, "16-tuple batches, modulo partial pulls"
        assert stats.mean_occupancy > 1.0
        assert sum(pe.service_stats.tuples for pe in region.workers) == 64
        assert sim.events_coalesced > 0
        assert sim.perf.events_coalesced == sim.events_coalesced

    def test_batch_size_one_coalesces_nothing(self):
        sim, region = build_region(32, 1)
        region.merger.on_completion(32, sim.stop)
        region.start()
        sim.run_until(1e6)
        assert sim.events_coalesced == 0
        assert region.splitter.dispatch_stats.batches == 0

    def test_batching_schedules_fewer_events(self):
        def events_at(batch_size):
            sim, region = build_region(256, batch_size)
            region.merger.on_completion(256, sim.stop)
            region.start()
            sim.run_until(1e6)
            return sim.perf.events_processed

        assert events_at(16) < events_at(1) / 3

    def test_blocking_charged_when_workers_lag(self):
        # Tiny buffers and slow workers: the splitter must elect to block
        # mid-batch and charge the wait to the connection that filled up.
        sim, region = build_region(
            80, 8, send_capacity=2, recv_capacity=2
        )
        region.merger.on_completion(80, sim.stop)
        region.start()
        sim.run_until(1e6)
        assert region.splitter.block_events > 0
        assert sum(c.blocking.lifetime_seconds for c in region.connections) > 0.0

    def test_crash_revokes_whole_run_and_replays(self):
        from repro.faults import FaultInjector

        sim, region = build_region(
            60, 8, fault_tolerant=True, weights=(1, 1)
        )
        injector = FaultInjector(sim, region)
        emitted = []
        region.merger.on_emit = lambda t: emitted.append(t.seq)
        region.merger.on_completion(60, sim.stop)
        busy_at_crash = []

        def crash():
            busy_at_crash.append(region.workers[0].busy)
            injector.crash(0, restart_after=0.05)

        sim.call_at(0.02, crash)
        region.start()
        sim.run_until(1e6)
        assert emitted == list(range(60))
        assert busy_at_crash == [True], "the in-service run was revoked"


class TestCustomPolicyFallback:
    def test_custom_policy_allocation_is_followed(self):
        class EvensOnly:
            """Minimal RoutingPolicy: everything to connection 0."""

            allows_reroute = False

            def next_connection(self):
                return 0

            def reroute_candidates(self, blocked):
                return ()

            def allocate_batch(self, count):
                return [count, 0]

        sim = Simulator()
        host = Host("h", cores=8, thread_speed=1e5)
        region = ParallelRegion(
            sim,
            FiniteSource(20, constant_cost(1_000.0)),
            EvensOnly(),
            Placement.single_host(2, host),
            params=RegionParams(batch_size=4),
        )
        region.merger.on_completion(20, sim.stop)
        region.start()
        sim.run_until(1e6)
        assert region.splitter.sent_per_connection == [20, 0]

    def test_invalid_allocation_rejected(self):
        class Overallocates(RoundRobinPolicy):
            def allocate_batch(self, count):
                return [count, count]

        sim = Simulator()
        host = Host("h", cores=8, thread_speed=1e5)
        region = ParallelRegion(
            sim,
            FiniteSource(10, constant_cost(1_000.0)),
            Overallocates(2),
            Placement.single_host(2, host),
            params=RegionParams(batch_size=4),
        )
        with pytest.raises(ValueError, match="allocated"):
            region.start()
            sim.run_until(1e6)
