"""The ordered merger at the back of a parallel region.

Sequential semantics (Section 4.1): tuples must leave the region in exactly
the order they entered the splitter, as if a single PE had processed them
all. The merger therefore holds back any tuple whose predecessors have not
yet arrived — which is why the whole region is gated by its slowest worker,
and why per-connection throughput carries no information (Section 4.3).

The merger's reordering buffer is unbounded, matching the paper's
implementation choice to "block at the splitter" rather than at the merger
("it is an artifact of our implementation *where* we block. But we
fundamentally have to block *somewhere*"). Its occupancy stays bounded in
practice by the connections' bounded buffers.

In block mode the buffer holds whole blocks, keyed by their first sequence
number, with those keys also kept in ascending order. The parked blocks are
disjoint and none starts below the awaited sequence number, so whether an
arriving block repeats any parked tuple is one bisect and a look at two
neighbours — the cost of accepting a block does not grow with how far the
merger is behind.

Failure recovery: a crashed worker's unacknowledged tuples are normally
*replayed* to survivors by the splitter, so the merger never waits forever
on a lost sequence number and its invariants are untouched. Under the
bounded-timeout *skip* gap policy the recovery layer instead declares those
sequence numbers lost via :meth:`OrderedMerger.mark_lost`; the merger
advances past them (counting ``tuples_lost``) and tolerates any late
arrival of a skipped tuple as a counted drop rather than a
:class:`SequenceError`.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

from repro.streams.tuples import StreamTuple, TupleBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class SequenceError(RuntimeError):
    """A tuple arrived that violates sequence bookkeeping (duplicate/stale)."""


class OrderedMerger:
    """Restores global sequence order across N worker outputs."""

    def __init__(
        self,
        sim: "Simulator",
        *,
        on_emit: Callable[[StreamTuple], None] | None = None,
    ) -> None:
        self.sim = sim
        self.on_emit = on_emit
        self._next_seq = 0
        self._pending: dict[int, StreamTuple] = {}
        #: Block-native reordering buffer: whole TupleBlocks parked intact,
        #: keyed by their starting seq. One dict entry holds B tuples.
        self._pending_runs: dict[int, TupleBlock] = {}
        #: The keys of ``_pending_runs`` in ascending order. The parked
        #: blocks are disjoint and none starts below ``_next_seq``, so a
        #: ready block is always the first entry.
        self._run_starts: list[int] = []
        #: Tuples (not blocks) held in ``_pending_runs``.
        self._pending_run_tuples = 0
        #: Tuples emitted downstream, in order.
        self.emitted = 0
        #: Simulated time of the most recent emission.
        self.last_emit_time: float | None = None
        #: Peak size of the reordering buffer (diagnostic).
        self.max_pending = 0
        #: Tuples received per upstream worker (diagnostic).
        self.received_per_worker: dict[int, int] = {}
        #: Sum of end-to-end region latencies (seconds) of emitted tuples
        #: that carried a ``born_at`` stamp, and their count. The ratio is
        #: the mean region latency; samplers difference it per interval.
        self.latency_seconds = 0.0
        self.latency_count = 0
        self._completion_target: int | None = None
        self._on_complete: Callable[[], None] | None = None
        #: Emitted count the :meth:`on_emitted` callback waits for.
        self._emitted_target: float = math.inf
        self._on_emitted: Callable[[], float] | None = None
        #: Sequence numbers declared lost (skip gap policy), not yet passed.
        self._lost: set[int] = set()
        #: Sequence numbers already skipped over (kept to classify a late
        #: arrival of a skipped tuple as a drop, not a sequence violation).
        self._skipped: set[int] = set()
        #: Gaps skipped over instead of waiting/replaying (skip gap policy).
        self.tuples_lost = 0
        #: Tuples that arrived after their seq had been declared lost.
        self.late_arrivals = 0
        #: Merger->splitter backpressure gate (overload protection only).
        self._flow_gate = None
        #: When set (overload protection), per-emit end-to-end latencies
        #: are appended here; the experiment sampler drains it per
        #: interval to track p99 over time.
        self.latency_samples: list[float] | None = None
        #: When set (observability), per-emit end-to-end latencies are
        #: additionally recorded into this fixed-bucket histogram.
        self.latency_histogram = None

    @property
    def next_seq(self) -> int:
        """Sequence number the merger is waiting for."""
        return self._next_seq

    @property
    def pending_count(self) -> int:
        """Tuples held back waiting for predecessors."""
        return len(self._pending) + self._pending_run_tuples

    def attach_observability(self, hub) -> None:
        """Register the merger's instruments on ``hub``."""
        registry = hub.registry
        self.latency_histogram = registry.histogram(
            "merger_latency_seconds",
            help="End-to-end region latency of emitted tuples",
        )
        registry.gauge_fn(
            "merger_tuples_emitted_total",
            lambda: self.emitted,
            help="Tuples emitted downstream in order",
        )
        registry.gauge_fn(
            "merger_pending_tuples",
            lambda: self.pending_count,
            help="Tuples held back waiting for predecessors",
        )
        registry.gauge_fn(
            "merger_max_pending",
            lambda: self.max_pending,
            help="Peak reordering-buffer occupancy",
        )
        registry.gauge_fn(
            "merger_tuples_lost_total",
            lambda: self.tuples_lost,
            help="Sequence gaps skipped under the skip gap policy",
        )
        registry.gauge_fn(
            "merger_late_arrivals_total",
            lambda: self.late_arrivals,
            help="Tuples arriving after their seq was declared lost",
        )

    def attach_flow_gate(self, gate) -> None:
        """Report pending-buffer occupancy to a flow-control ``gate``.

        The gate is updated after every batch of accepts/skips; when
        occupancy crosses the gate's high watermark the splitter stops
        pulling tuples until it drains to the low one.
        """
        self._flow_gate = gate

    def on_completion(self, target: int, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once ``target`` tuples have been disposed of.

        Emitted and declared-lost tuples both count: a finite budget under
        the skip gap policy still drains even when its tail is lost.
        """
        if target <= 0:
            raise ValueError(f"target must be positive, got {target}")
        self._completion_target = target
        self._on_complete = callback

    def on_emitted(self, target: float, callback: Callable[[], float]) -> None:
        """Invoke ``callback`` on the tuple that brings ``emitted`` to ``target``.

        It returns the next count to be called at (``math.inf``: never
        again). Unlike an ``on_emit`` hook, which sees every tuple, this
        leaves every block that does not reach the target on the bulk
        emission path.
        """
        self._emitted_target = target
        self._on_emitted = callback

    def accept(self, worker_id: int, tup: StreamTuple) -> None:
        """Receive a processed tuple from worker ``worker_id``."""
        pending = self._pending
        seq = tup.seq
        if (self._lost or self._skipped) and (
            seq in self._lost or seq in self._skipped
        ):
            # A tuple the recovery layer already gave up on (skip gap
            # policy) straggled in — drop it. Its seq stays lost, passed
            # or not: nobody will send it again.
            self.late_arrivals += 1
            return
        if seq < self._next_seq or seq in pending:
            raise SequenceError(
                f"tuple seq {seq} already merged or pending "
                f"(next expected: {self._next_seq})"
            )
        received = self.received_per_worker
        received[worker_id] = received.get(worker_id, 0) + 1
        pending[seq] = tup
        occupancy = len(pending)
        if occupancy > self.max_pending:
            self.max_pending = occupancy
        while self._next_seq in pending:
            ready = pending.pop(self._next_seq)
            self._next_seq += 1
            self._emit(ready)
        if self._pending_runs and self._next_seq in self._pending_runs:
            self._drain_ready()
        if self._lost and self._next_seq in self._lost:
            self._advance_past_lost()
        if self._flow_gate is not None:
            self._flow_gate.update(len(pending) + self._pending_run_tuples)

    def accept_runs(self, worker_id: int, runs: "list[TupleBlock]") -> None:
        """Receive whole column blocks of processed tuples from one worker.

        The block-native bulk accept: an in-order block is parked intact —
        one dict entry for B tuples, no per-tuple objects — and emitted as
        a unit when its turn comes. Per-seq scrutiny happens only on
        fault-path arrivals (lost/skipped bookkeeping active, tuples held
        one by one, a stale replay, or any overlap with an already-parked
        run), where the block is expanded and fed through the per-tuple
        checks.
        """
        if not runs:
            return
        pending_runs = self._pending_runs
        starts = self._run_starts
        if (
            len(runs) == 1
            and runs[0].start == self._next_seq
            and not self._lost
            and not self._skipped
            and not self._pending
            and not (starts and self._overlaps_run(self._next_seq, runs[0].end))
        ):
            # Steady-state fast path: a single block arriving exactly in
            # order emits directly — no park in the reordering buffer, no
            # drain round-trip. Occupancy peaks at the same value the
            # park-then-drain path would have recorded.
            block = runs[0]
            count = block.count
            received = self.received_per_worker
            received[worker_id] = received.get(worker_id, 0) + count
            occupancy = self._pending_run_tuples + count
            if occupancy > self.max_pending:
                self.max_pending = occupancy
            self._next_seq = block.start + count
            self._emit_run(block)
            if pending_runs:
                self._drain_ready()
            if self._flow_gate is not None:
                self._flow_gate.update(
                    len(self._pending) + self._pending_run_tuples
                )
            return
        fast = 0
        slow = 0
        for block in runs:
            start = block.start
            if (
                self._lost
                or self._skipped
                or self._pending
                or start < self._next_seq
                or (starts and self._overlaps_run(start, start + block.count))
            ):
                slow += self._accept_block_slow(block)
            else:
                pending_runs[start] = block
                insort(starts, start)
                fast += block.count
        self._pending_run_tuples += fast
        accepted = fast + slow
        if accepted:
            received = self.received_per_worker
            received[worker_id] = received.get(worker_id, 0) + accepted
            occupancy = len(self._pending) + self._pending_run_tuples
            if occupancy > self.max_pending:
                self.max_pending = occupancy
        self._drain_ready()
        if self._lost and self._next_seq in self._lost:
            self._advance_past_lost()
        if self._flow_gate is not None:
            self._flow_gate.update(
                len(self._pending) + self._pending_run_tuples
            )

    def _accept_block_slow(self, block: "TupleBlock") -> int:
        """Per-tuple insertion of a block that needs fault bookkeeping."""
        pending = self._pending
        accepted = 0
        for tup in block.materialize():
            seq = tup.seq
            if seq in self._lost or seq in self._skipped:
                # As in ``accept``: a straggler is dropped, its seq stays
                # lost.
                self.late_arrivals += 1
                continue
            if (
                seq < self._next_seq
                or seq in pending
                or self._overlaps_run(seq, seq + 1)
            ):
                raise SequenceError(
                    f"tuple seq {seq} already merged or pending "
                    f"(next expected: {self._next_seq})"
                )
            pending[seq] = tup
            accepted += 1
        return accepted

    def _overlaps_run(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` touches a block parked in ``_pending_runs``.

        The parked blocks are disjoint, so only two of them can be the
        one: the last that starts at or before ``start`` (if it reaches
        past it) and the first that starts after (if before ``end``).
        """
        starts = self._run_starts
        i = bisect_right(starts, start)
        if i:
            before = starts[i - 1]
            if before + self._pending_runs[before].count > start:
                return True
        return i < len(starts) and starts[i] < end

    def _drain_ready(self) -> None:
        """Emit the ready prefix from both reordering buffers, in order."""
        pending = self._pending
        runs = self._pending_runs
        while True:
            nxt = self._next_seq
            block = runs.pop(nxt, None) if runs else None
            if block is not None:
                del self._run_starts[0]
                self._pending_run_tuples -= block.count
                self._next_seq = nxt + block.count
                self._emit_run(block)
            elif nxt in pending:
                ready = pending.pop(nxt)
                self._next_seq = nxt + 1
                self._emit(ready)
            else:
                return

    def mark_lost(self, seqs: "Iterable[int]") -> int:
        """Declare ``seqs`` lost: never wait for them (skip gap policy).

        Sequence numbers already emitted or currently pending are ignored
        (they are not lost). Returns how many were newly marked. The merger
        then advances past any lost prefix immediately, releasing every
        held-back successor.
        """
        marked = 0
        for seq in seqs:
            if (
                seq < self._next_seq
                or seq in self._pending
                or self._overlaps_run(seq, seq + 1)
            ):
                continue
            if seq not in self._lost:
                self._lost.add(seq)
                marked += 1
        if self._lost and self._next_seq in self._lost:
            self._advance_past_lost()
        if self._flow_gate is not None:
            self._flow_gate.update(
                len(self._pending) + self._pending_run_tuples
            )
        return marked

    def _advance_past_lost(self) -> None:
        """Skip lost seqs (and any pending tuples/blocks they unblock)."""
        pending = self._pending
        runs = self._pending_runs
        lost = self._lost
        while True:
            nxt = self._next_seq
            if nxt in lost:
                lost.discard(nxt)
                self._skipped.add(nxt)
                self.tuples_lost += 1
                self._next_seq = nxt + 1
                self._check_completion()
            elif nxt in pending:
                ready = pending.pop(nxt)
                self._next_seq = nxt + 1
                self._emit(ready)
            elif runs and nxt in runs:
                block = runs.pop(nxt)
                del self._run_starts[0]
                self._pending_run_tuples -= block.count
                self._next_seq = nxt + block.count
                self._emit_run(block)
            else:
                return

    def _emit(self, tup: StreamTuple) -> None:
        self.emitted += 1
        now = self.sim.now
        self.last_emit_time = now
        if tup.born_at is not None:
            self.latency_seconds += now - tup.born_at
            self.latency_count += 1
            if self.latency_samples is not None:
                self.latency_samples.append(now - tup.born_at)
            if self.latency_histogram is not None:
                self.latency_histogram.observe(now - tup.born_at)
        if self.on_emit is not None:
            self.on_emit(tup)
        if self.emitted >= self._emitted_target:
            self._emitted_target = self._on_emitted()
        self._check_completion()

    def _emit_run(self, block: "TupleBlock") -> None:
        """Emit a whole in-order block without materializing tuples.

        The latency samples and histogram are fed from the block's born
        stamp: a uniform-born block is one histogram step of ``count``, a
        born column one pass. Only an ``on_emit`` hook, which is owed
        every tuple, and the one block that reaches the
        :meth:`on_emitted` target, whose callback must run at exactly
        that count, expand the block and deliver it as the per-tuple path
        would.
        """
        count = block.count
        if (
            self.on_emit is not None
            or self.emitted + count >= self._emitted_target
        ):
            for tup in block.materialize():
                self._emit(tup)
            return
        now = self.sim.now
        self.emitted += count
        self.last_emit_time = now
        borns = block.borns
        if borns is not None:
            latencies = [now - born for born in borns.tolist()]
            total = 0.0
            for latency in latencies:
                total += latency
            self.latency_seconds += total
            self.latency_count += count
            if self.latency_samples is not None:
                self.latency_samples.extend(latencies)
            if self.latency_histogram is not None:
                self.latency_histogram.observe_many(latencies)
        elif block.born is not None:
            latency = now - block.born
            self.latency_seconds += latency * count
            self.latency_count += count
            if self.latency_samples is not None:
                self.latency_samples.extend([latency] * count)
            if self.latency_histogram is not None:
                self.latency_histogram.observe(latency, count)
        self._check_completion()

    def _check_completion(self) -> None:
        if (
            self._completion_target is not None
            and self.emitted + self.tuples_lost >= self._completion_target
        ):
            callback, self._on_complete = self._on_complete, None
            self._completion_target = None
            if callback is not None:
                callback()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OrderedMerger(emitted={self.emitted}, next_seq={self._next_seq}, "
            f"pending={len(self._pending)})"
        )


class UnorderedMerger(OrderedMerger):
    """A pass-through merger: no sequential semantics.

    Models the regions the paper mentions in passing — "Some parallel
    regions end without merges, in parallel sinks" — and the production
    version of IBM Streams, which "does not maintain tuple order" for
    annotated parallel regions. Tuples are forwarded downstream the moment
    a worker finishes them.

    Without the in-order merge, a fast worker's completions are no longer
    held hostage to a slow sibling's queue: per-connection throughput
    becomes informative again, and transport-level re-routing actually
    works. The ordering ablation bench uses this class to demonstrate that
    the ordered merge is precisely what makes the paper's problem hard
    (Sections 4.1 and 4.3).
    """

    def accept(self, worker_id: int, tup: StreamTuple) -> None:
        """Forward ``tup`` downstream immediately."""
        if tup.seq in self._skipped:
            # Declared lost (skip gap policy) and already counted toward
            # completion — a straggling arrival is a drop, not an error.
            self.late_arrivals += 1
            return
        if tup.seq in self._seen:
            raise SequenceError(f"tuple seq {tup.seq} delivered twice")
        self._seen.add(tup.seq)
        self.received_per_worker[worker_id] = (
            self.received_per_worker.get(worker_id, 0) + 1
        )
        self._emit(tup)

    def accept_runs(self, worker_id: int, runs: "list[TupleBlock]") -> None:
        """Forward blocks downstream immediately, tuple by tuple.

        Pass-through emission is inherently per tuple (every tuple goes
        straight out), so blocks are expanded on arrival.
        """
        for block in runs:
            for tup in block.materialize():
                self.accept(worker_id, tup)

    def mark_lost(self, seqs: "Iterable[int]") -> int:
        """Count ``seqs`` as lost (skip gap policy), without ordering.

        The ordered implementation defers the count until the gap is
        reached in sequence order; without sequential semantics there is
        no gap to wait behind, so never-seen seqs are counted (toward
        completion targets) immediately. Already-emitted seqs are not
        lost and are ignored.
        """
        marked = 0
        for seq in seqs:
            if seq in self._seen or seq in self._skipped:
                continue
            self._skipped.add(seq)
            self.tuples_lost += 1
            marked += 1
        if marked:
            self._check_completion()
        return marked

    def __init__(self, sim, *, on_emit=None) -> None:
        super().__init__(sim, on_emit=on_emit)
        self._seen: set[int] = set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"UnorderedMerger(emitted={self.emitted})"
