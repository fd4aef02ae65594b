"""Unit tests for the ordered merger (sequential semantics)."""

import math
import operator
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.streams.merger import OrderedMerger, SequenceError, UnorderedMerger
from repro.streams.tuples import StreamTuple, TupleBlock


def tup(seq):
    return StreamTuple(seq=seq, cost_multiplies=1.0)


def block(start, count):
    return TupleBlock.uniform(start, count, 1.0)


class TestOrdering:
    def test_in_order_tuples_flow_through(self):
        emitted = []
        merger = OrderedMerger(Simulator(), on_emit=lambda t: emitted.append(t.seq))
        for seq in range(5):
            merger.accept(0, tup(seq))
        assert emitted == [0, 1, 2, 3, 4]
        assert merger.pending_count == 0

    def test_out_of_order_tuples_held_back(self):
        emitted = []
        merger = OrderedMerger(Simulator(), on_emit=lambda t: emitted.append(t.seq))
        merger.accept(1, tup(2))
        merger.accept(1, tup(1))
        assert emitted == []
        assert merger.pending_count == 2
        merger.accept(0, tup(0))
        assert emitted == [0, 1, 2]

    def test_interleaving_across_workers(self):
        emitted = []
        merger = OrderedMerger(Simulator(), on_emit=lambda t: emitted.append(t.seq))
        # Worker 0 got evens, worker 1 got odds; worker 1 runs ahead.
        for seq in (1, 3, 5):
            merger.accept(1, tup(seq))
        for seq in (0, 2, 4):
            merger.accept(0, tup(seq))
        assert emitted == [0, 1, 2, 3, 4, 5]

    def test_duplicate_rejected(self):
        merger = OrderedMerger(Simulator())
        merger.accept(0, tup(0))
        with pytest.raises(SequenceError):
            merger.accept(0, tup(0))

    def test_duplicate_pending_rejected(self):
        merger = OrderedMerger(Simulator())
        merger.accept(0, tup(5))
        with pytest.raises(SequenceError):
            merger.accept(1, tup(5))


class TestDiagnostics:
    def test_max_pending_tracks_reordering_depth(self):
        merger = OrderedMerger(Simulator())
        for seq in (3, 2, 1):
            merger.accept(0, tup(seq))
        assert merger.max_pending == 3

    def test_received_per_worker(self):
        merger = OrderedMerger(Simulator())
        merger.accept(0, tup(0))
        merger.accept(1, tup(1))
        merger.accept(1, tup(2))
        assert merger.received_per_worker == {0: 1, 1: 2}

    def test_last_emit_time_uses_sim_clock(self):
        sim = Simulator()
        merger = OrderedMerger(sim)
        sim.call_at(2.5, lambda: merger.accept(0, tup(0)))
        sim.run_until(3.0)
        assert merger.last_emit_time == 2.5


class TestUnorderedMerger:
    def test_forwards_immediately_out_of_order(self):
        emitted = []
        merger = UnorderedMerger(
            Simulator(), on_emit=lambda t: emitted.append(t.seq)
        )
        for seq in (2, 0, 1):
            merger.accept(0, tup(seq))
        assert emitted == [2, 0, 1]
        assert merger.pending_count == 0

    def test_counts_and_completion(self):
        merger = UnorderedMerger(Simulator())
        done = []
        merger.on_completion(2, lambda: done.append(True))
        merger.accept(0, tup(5))
        merger.accept(1, tup(3))
        assert merger.emitted == 2
        assert done == [True]
        assert merger.received_per_worker == {0: 1, 1: 1}

    def test_duplicate_rejected(self):
        merger = UnorderedMerger(Simulator())
        merger.accept(0, tup(7))
        with pytest.raises(SequenceError):
            merger.accept(1, tup(7))


class TestCompletion:
    def test_callback_fires_at_target(self):
        merger = OrderedMerger(Simulator())
        done = []
        merger.on_completion(3, lambda: done.append(merger.emitted))
        for seq in range(5):
            merger.accept(0, tup(seq))
        assert done == [3]

    def test_target_must_be_positive(self):
        with pytest.raises(ValueError):
            OrderedMerger(Simulator()).on_completion(0, lambda: None)


class TestOnEmitted:
    def test_fires_at_the_count_and_rearms_on_what_it_returns(self):
        merger = OrderedMerger(Simulator())
        seen = []
        targets = iter([5, math.inf])

        def callback():
            seen.append(merger.emitted)
            return next(targets)

        merger.on_emitted(2, callback)
        for seq in range(8):
            merger.accept(0, tup(seq))
        assert seen == [2, 5]

    def test_only_the_block_that_reaches_the_target_is_expanded(self, monkeypatch):
        expanded = []
        materialize = TupleBlock.materialize
        monkeypatch.setattr(
            TupleBlock,
            "materialize",
            lambda self: expanded.append(self.start) or materialize(self),
        )
        merger = OrderedMerger(Simulator())
        seen = []
        merger.on_emitted(6, lambda: seen.append(merger.emitted) or math.inf)
        merger.accept_runs(0, [block(4, 4), block(8, 4)])  # parked, drained
        merger.accept_runs(0, [block(0, 4)])  # in order
        merger.accept_runs(0, [block(12, 4)])  # the target is spent
        assert seen == [6], "mid-block, at exactly the target"
        assert expanded == [4]
        assert merger.emitted == 16


class TestParkedRunOverlap:
    """Every way a block can repeat tuples of a parked one is caught."""

    @pytest.mark.parametrize(
        "start, count",
        [(4, 4), (2, 4), (6, 4), (5, 2), (0, 16), (4, 8), (0, 8)],
        ids=[
            "equal", "left", "right", "contained", "containing",
            "containing-same-start", "containing-same-end",
        ],
    )
    def test_duplicate_of_a_parked_block_is_rejected(self, start, count):
        merger = OrderedMerger(Simulator())
        merger.accept_runs(0, [block(4, 4)])
        with pytest.raises(SequenceError):
            merger.accept_runs(1, [block(start, count)])
        assert merger.emitted <= 4, "seqs 4-7 never go downstream twice"

    def test_containing_block_counts_late_arrivals_under_skip(self):
        merger = OrderedMerger(Simulator())
        merger.mark_lost([0])  # skipped at once: the skip policy is live
        merger.accept_runs(0, [block(4, 4)])
        merger.mark_lost(range(4, 8))  # parked, so not lost
        with pytest.raises(SequenceError):
            merger.accept_runs(1, [block(1, 16)])

    def test_duplicate_of_tuples_held_one_by_one_is_rejected(self):
        # Blocks accepted while a loss is outstanding are held per tuple,
        # outside the parked-run index; a later duplicate must still be
        # checked against them once the loss has cleared.
        merger = OrderedMerger(Simulator())
        merger.mark_lost([2, 3])
        merger.accept_runs(0, [block(6, 2)])
        merger.accept_runs(1, [block(2, 2)])  # the stragglers: un-lost
        assert merger.late_arrivals == 2
        with pytest.raises(SequenceError):
            merger.accept_runs(1, [block(6, 2)])


class CountedSeq(int):
    """A sequence number that counts every comparison made against it."""

    comparisons = 0

    def _counted(compare):
        def method(self, other):
            CountedSeq.comparisons += 1
            return compare(int(self), int(other))

        return method

    __lt__ = _counted(operator.lt)
    __le__ = _counted(operator.le)
    __gt__ = _counted(operator.gt)
    __ge__ = _counted(operator.ge)
    __eq__ = _counted(operator.eq)
    __ne__ = _counted(operator.ne)
    __hash__ = int.__hash__


class TestReorderIndexCost:
    @pytest.mark.parametrize("parked", [64, 4096])
    def test_accepting_a_block_does_not_walk_the_parked_ones(self, parked):
        # The deterministic stand-in for a timing test: P blocks are
        # parked behind a missing head, with a gap after each; K more
        # blocks, whose starts count comparisons, then land in the first K
        # gaps in shuffled order and everything is drained. A scan of the
        # parked blocks costs about 2 * K * P comparisons; the index costs
        # two bisects and two neighbour checks per block.
        probes = 64
        merger = OrderedMerger(Simulator())
        for i in range(1, parked + 1):
            merger.accept_runs(0, [block(8 * i, 4)])
        gaps = list(range(1, probes + 1))
        random.Random(parked).shuffle(gaps)
        CountedSeq.comparisons = 0
        for j in gaps:
            merger.accept_runs(1, [block(CountedSeq(8 * j + 4), 4)])
        assert merger.pending_count == 4 * (parked + probes)
        merger.accept_runs(0, [block(0, 8)])
        assert merger.next_seq == 8 * (probes + 1) + (4 if parked > probes else 0)
        assert CountedSeq.comparisons <= 4 * probes * (math.log2(parked) + 2)


# ---------------------------------------------------- differential property


@st.composite
def delivery_scripts(draw):
    """``(N, steps)``; a step is ``("runs", worker, [(start, count), ...])``
    or ``("lost", span)``.

    Disjoint blocks tiling ``[0, N)`` arrive in random order and random
    per-call groupings. Some blocks are declared lost at a random point,
    and may still arrive — before or after it, in a call of their own or
    sharing one with the blocks that lead up to them. Duplicates of all
    five shapes, lost spans included, are spliced in anywhere.
    """
    counts = draw(st.lists(st.integers(1, 6), min_size=2, max_size=16))
    spans, total = [], 0
    for count in counts:
        spans.append((total, count))
        total += count
    indices = range(len(spans))
    lost = draw(st.sets(st.sampled_from(indices), max_size=3))
    worker = st.integers(0, 2)
    steps, group = [], []
    for i in draw(st.permutations(indices)):
        if i in lost:
            continue
        group.append(spans[i])
        if draw(st.booleans()):
            steps.append(("runs", draw(worker), group))
            group = []
    if group:
        steps.append(("runs", draw(worker), group))

    def splice(run):
        """Add ``run`` to a call already in the script, or as its own."""
        calls = [step for step in steps if step[0] == "runs"]
        if calls and draw(st.booleans()):
            runs = draw(st.sampled_from(calls))[2]
            runs.insert(draw(st.integers(0, len(runs))), run)
        else:
            at = draw(st.integers(0, len(steps)))
            steps.insert(at, ("runs", draw(worker), [run]))

    shapes = st.sampled_from(["equal", "left", "right", "contained", "containing"])
    for _ in range(draw(st.integers(0, 3))):
        lo, count = spans[draw(st.sampled_from(indices))]
        hi = lo + count
        shape = draw(shapes)
        if shape == "left":
            lo, hi = lo - draw(st.integers(1, 3)), lo + draw(st.integers(1, count))
        elif shape == "right":
            lo, hi = hi - draw(st.integers(1, count)), hi + draw(st.integers(1, 3))
        elif shape == "contained" and count > 1:
            size = draw(st.integers(1, count - 1))
            lo += draw(st.integers(0, count - size))
            hi = lo + size
        elif shape == "containing":
            lo, hi = lo - draw(st.integers(0, 3)), hi + draw(st.integers(1, 3))
        # Inside [0, N): the liveness check below needs N to be the end.
        lo, hi = max(lo, 0), min(hi, total)
        splice((lo, hi - lo))
    for i in sorted(lost):
        steps.insert(draw(st.integers(0, len(steps))), ("lost", spans[i]))
        if draw(st.booleans()):
            splice(spans[i])
    return total, steps


def raises_sequence_error(deliver):
    try:
        deliver()
    except SequenceError:
        return True
    return False


def check_reorder_index(merger):
    starts = merger._run_starts
    assert starts == sorted(merger._pending_runs)
    ends = [s + merger._pending_runs[s].count for s in starts]
    assert all(end <= nxt for end, nxt in zip(ends, starts[1:])), "overlap"
    assert not starts or starts[0] >= merger.next_seq


class TestBlockPathMatchesTuplePath:
    @given(script=delivery_scripts())
    def test_accept_runs_agrees_with_accept_after_every_call(self, script):
        total, steps = script
        sim = Simulator()
        ref_order, hooked_order = [], []
        reference = OrderedMerger(sim, on_emit=lambda t: ref_order.append(t.seq))
        # One block-path merger delivers per tuple (order is observable),
        # one has no hook and emits by run.
        hooked = OrderedMerger(sim, on_emit=lambda t: hooked_order.append(t.seq))
        bulk = OrderedMerger(sim)
        for step in steps:
            if step[0] == "lost":
                seqs = range(step[1][0], sum(step[1]))
                marked = reference.mark_lost(seqs)
                assert hooked.mark_lost(seqs) == marked
                assert bulk.mark_lost(seqs) == marked
            else:
                _, worker, spans = step

                def one_by_one():
                    for start, count in spans:
                        for t in block(start, count).materialize():
                            reference.accept(worker, t)

                raised = raises_sequence_error(one_by_one)
                for merger in (hooked, bulk):
                    runs = [block(start, count) for start, count in spans]
                    assert raised == raises_sequence_error(
                        lambda: merger.accept_runs(worker, runs)
                    )
                if raised:
                    return
            assert hooked_order == ref_order
            for merger in (hooked, bulk):
                assert merger.emitted == reference.emitted
                assert merger.next_seq == reference.next_seq
                assert merger.pending_count == reference.pending_count
                assert merger.late_arrivals == reference.late_arrivals
                assert merger.tuples_lost == reference.tuples_lost
                assert merger.received_per_worker == reference.received_per_worker
                check_reorder_index(merger)
        # Liveness: no call raised, so every block was delivered or
        # declared lost — nothing may be left waiting.
        for merger in (reference, hooked, bulk):
            assert merger.next_seq == total
            assert merger.pending_count == 0
