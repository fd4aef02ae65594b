"""Loss-declaration paths: mark_lost x on_completion, both mergers.

These pin down the skip-gap bookkeeping the fault-tolerant recovery
layer depends on: completion targets count lost tuples, late arrivals of
skipped tuples are drops (not sequence errors), and the unordered merger
counts losses immediately because it has no gap to wait behind.
"""

from repro.overload.flow import FlowControlGate
from repro.sim.engine import Simulator
from repro.streams.merger import OrderedMerger, UnorderedMerger
from repro.streams.tuples import StreamTuple, TupleBlock


def tup(seq):
    return StreamTuple(seq=seq, cost_multiplies=1.0)


def block(start, count):
    return TupleBlock.uniform(start, count, 1.0)


class TestOrderedMarkLostCompletion:
    def test_lost_tuples_count_toward_completion(self):
        merger = OrderedMerger(Simulator())
        done = []
        merger.on_completion(3, lambda: done.append(True))
        merger.accept(0, tup(0))
        merger.accept(0, tup(2))
        assert not done
        merger.mark_lost([1])
        assert done
        assert merger.emitted == 2
        assert merger.tuples_lost == 1

    def test_all_lost_budget_still_completes(self):
        merger = OrderedMerger(Simulator())
        done = []
        merger.on_completion(4, lambda: done.append(True))
        merger.mark_lost([0, 1, 2, 3])
        assert done
        assert merger.emitted == 0
        assert merger.tuples_lost == 4

    def test_lost_tail_after_emissions_completes(self):
        merger = OrderedMerger(Simulator())
        done = []
        merger.on_completion(5, lambda: done.append(True))
        for seq in range(3):
            merger.accept(0, tup(seq))
        merger.mark_lost([3, 4])
        assert done

    def test_completion_fires_once(self):
        merger = OrderedMerger(Simulator())
        calls = []
        merger.on_completion(1, lambda: calls.append(True))
        merger.mark_lost([0])
        merger.accept(0, tup(1))
        assert calls == [True]


class TestOrderedMarkLostEdges:
    def test_emitted_and_pending_seqs_are_not_lost(self):
        merger = OrderedMerger(Simulator())
        merger.accept(0, tup(0))  # emitted
        merger.accept(0, tup(2))  # pending behind the gap at 1
        assert merger.mark_lost([0, 2]) == 0
        assert merger.tuples_lost == 0

    def test_double_mark_counts_once(self):
        merger = OrderedMerger(Simulator())
        assert merger.mark_lost([5]) == 1
        assert merger.mark_lost([5]) == 0

    def test_future_gap_not_counted_until_reached(self):
        merger = OrderedMerger(Simulator())
        assert merger.mark_lost([2]) == 1
        assert merger.tuples_lost == 0  # still waiting on 0 and 1
        merger.accept(0, tup(0))
        merger.accept(0, tup(1))
        assert merger.tuples_lost == 1
        assert merger.next_seq == 3

    def test_late_arrival_of_skipped_tuple_is_a_drop(self):
        merger = OrderedMerger(Simulator())
        merger.accept(0, tup(0))
        merger.mark_lost([1])
        merger.accept(0, tup(2))
        merger.accept(1, tup(1))  # straggler for the skipped seq
        assert merger.late_arrivals == 1
        assert merger.emitted == 2

    def assert_skipped_past_seq_2(self, merger):
        assert merger.emitted == 3
        assert merger.next_seq == 4
        assert merger.tuples_lost == 1
        assert merger.late_arrivals == 1
        assert merger.pending_count == 0

    def test_straggler_of_a_lost_seq_not_yet_passed_stays_lost(self):
        # The straggler for seq 2 arrives while the merger is still
        # waiting on seq 1: it is dropped, and seq 2 must stay lost — no
        # one will send it again, so un-losing it parks seq 3 for ever.
        merger = OrderedMerger(Simulator())
        merger.accept(0, tup(0))
        merger.mark_lost([2])
        merger.accept(1, tup(2))
        assert merger.late_arrivals == 1
        merger.accept(0, tup(1))
        merger.accept(0, tup(3))
        self.assert_skipped_past_seq_2(merger)

    def test_block_straggler_of_a_lost_seq_not_yet_passed_stays_lost(self):
        merger = OrderedMerger(Simulator())
        merger.accept_runs(0, [block(0, 1)])
        merger.mark_lost([2])
        merger.accept_runs(1, [block(2, 1)])
        assert merger.late_arrivals == 1
        merger.accept_runs(0, [block(1, 1)])
        merger.accept_runs(0, [block(3, 1)])
        self.assert_skipped_past_seq_2(merger)

    def test_block_straggler_sharing_a_call_with_its_predecessors(self):
        # The block path drains at the end of a call, the scalar path
        # after every tuple; the straggler is dropped on both whether or
        # not its seq has been passed yet.
        merger = OrderedMerger(Simulator())
        merger.accept_runs(0, [block(0, 1)])
        merger.mark_lost([2])
        merger.accept_runs(0, [block(1, 1), block(2, 1), block(3, 1)])
        self.assert_skipped_past_seq_2(merger)

    def test_mark_lost_drains_the_pending_buffer_through_the_gate(self):
        merger = OrderedMerger(Simulator())
        gate = FlowControlGate(3, 1)
        merger.attach_flow_gate(gate)
        for seq in (1, 2, 3):  # parked behind missing seq 0
            merger.accept(0, tup(seq))
        assert gate.paused
        merger.mark_lost([0])
        assert merger.pending_count == 0
        assert not gate.paused


class TestUnorderedMarkLost:
    def test_never_seen_seqs_count_immediately(self):
        merger = UnorderedMerger(Simulator())
        assert merger.mark_lost([3, 7]) == 2
        assert merger.tuples_lost == 2

    def test_seen_seqs_are_not_lost(self):
        merger = UnorderedMerger(Simulator())
        merger.accept(0, tup(5))
        assert merger.mark_lost([5]) == 0

    def test_double_mark_counts_once(self):
        merger = UnorderedMerger(Simulator())
        assert merger.mark_lost([4]) == 1
        assert merger.mark_lost([4]) == 0
        assert merger.tuples_lost == 1

    def test_losses_count_toward_completion(self):
        merger = UnorderedMerger(Simulator())
        done = []
        merger.on_completion(3, lambda: done.append(True))
        merger.accept(0, tup(9))
        merger.accept(1, tup(4))
        merger.mark_lost([0])
        assert done

    def test_late_arrival_of_skipped_tuple_is_a_drop(self):
        merger = UnorderedMerger(Simulator())
        merger.mark_lost([2])
        merger.accept(0, tup(2))
        assert merger.late_arrivals == 1
        assert merger.emitted == 0
