"""The discrete-event simulation engine.

A :class:`Simulator` owns the virtual clock and the event queue. Entities
(splitter, connections, worker PEs, merger, samplers) are plain objects that
schedule callbacks on the simulator; there is no thread or coroutine
machinery, which keeps runs deterministic and fast.

Time is in *simulated seconds*. The paper reports everything against
elapsed seconds, so simulated seconds preserve every reported ratio.

Two scheduling flavours exist:

* :meth:`Simulator.call_at` / :meth:`Simulator.call_after` return an
  :class:`~repro.sim.events.Event` handle that can be cancelled;
* :meth:`Simulator.schedule_after` returns nothing — the engine recycles
  its heap cells through a free list, so the per-tuple traffic that
  dominates every experiment allocates no event objects. Use it on hot
  paths that never cancel.

:meth:`Simulator.call_every` is backed by a reusable timer that re-arms a
single heap cell each tick instead of allocating a fresh event, so
samplers and controllers cost nothing per firing beyond their callback.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Callable
from heapq import heapify, heappop, heappush

from repro.sim.events import _COMPACT_MIN_DEAD, _FREE_LIST_MAX, Event
from repro.util.perf import PerfCounters


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class _RepeatingTimer:
    """A ``call_every`` repetition that reuses one heap cell per tick."""

    __slots__ = ("_sim", "_interval", "_callback", "_cell", "_active")

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[[], None],
        first: float,
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._active = True
        # The timer itself occupies the handle slot, which marks the cell
        # as non-recyclable: after each firing the cell is re-armed here.
        self._cell = sim.new_cell(first, self._fire, self)

    def _fire(self) -> None:
        self._callback()
        if self._active:
            sim = self._sim
            sim.repush(self._cell, sim._now + self._interval)

    def cancel(self) -> None:
        self._active = False
        self._sim.cancel_cell(self._cell)


class Simulator:
    """Deterministic event-driven simulator.

    Typical use::

        sim = Simulator()
        sim.call_at(1.0, lambda: ...)
        sim.call_after(0.5, lambda: ...)
        sim.run_until(10.0)
    """

    __slots__ = (
        "_heap",
        "_seq",
        "_dead",
        "_free",
        "compactions",
        "cancellations",
        "_now",
        "_running",
        "_stopped",
        "_trace",
        "events_processed",
        "events_coalesced",
    )

    def __init__(self) -> None:
        # The heap and the free list are only ever mutated in place
        # (compaction uses slice assignment), so the run loop may hoist
        # them into locals.
        self._heap: list[list] = []
        self._seq = 0
        # Cancelled-but-unpopped entries still sitting in the heap. The
        # live count is derived (len(heap) - dead) so the per-event
        # schedule/pop paths maintain no counter at all — only the rare
        # cancellation path touches it.
        self._dead = 0
        self._free: list[list] = []
        #: Heap rebuilds triggered by cancelled-entry pile-up (diagnostic).
        self.compactions = 0
        #: Total events cancelled over the run (diagnostic).
        self.cancellations = 0
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._trace: "hashlib._Hash | None" = None
        #: Total events fired so far; useful for performance reporting.
        self.events_processed = 0
        #: Per-tuple events the batched dataplane avoided scheduling
        #: (bumped by batching entities, not the engine itself).
        self.events_coalesced = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ----------------------------------------------------------- scheduling

    # The scheduling entry points build the heap cell (and the Event
    # handle, via __new__) in place instead of sharing a helper: they run
    # once per event on every hot path, and a method dispatch plus an
    # __init__ frame is a measurable slice of the event budget (see
    # bench_core_hotpath.py).

    def call_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event.__new__(Event)
        cell = [time, seq, callback, event, True]
        event._cell = cell
        event._sim = self
        heappush(self._heap, cell)
        return event

    def call_after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        event = Event.__new__(Event)
        cell = [self._now + delay, seq, callback, event, True]
        event._cell = cell
        event._sim = self
        heappush(self._heap, cell)
        return event

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Hot-path :meth:`call_after`: no cancellation handle, no allocation."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            cell = free.pop()
            cell[0] = self._now + delay
            cell[1] = seq
            cell[2] = callback
            cell[4] = True
        else:
            cell = [self._now + delay, seq, callback, None, True]
        heappush(self._heap, cell)

    def call_every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        start: float | None = None,
    ) -> Callable[[], None]:
        """Schedule ``callback`` every ``interval`` seconds.

        The first firing is at ``start`` (default: one interval from now).
        Returns a zero-argument function that cancels the repetition. The
        repetition reuses a single heap cell, so each tick allocates no
        event objects.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive: {interval}")
        first = start if start is not None else self._now + interval
        if first < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {first} < now {self._now}"
            )
        return _RepeatingTimer(self, interval, callback, first).cancel

    def repush(self, cell: list, time: float) -> None:
        """Re-arm a previously fired cell at ``time`` (reusable timers).

        The caller owns the cell (its ``handle`` slot marks it
        non-recyclable) and guarantees it is not currently in the heap.
        """
        seq = self._seq
        self._seq = seq + 1
        cell[0] = time
        cell[1] = seq
        cell[4] = True
        heappush(self._heap, cell)

    def new_cell(
        self, time: float, callback: Callable[[], None], owner: object
    ) -> list:
        """Schedule a fresh cell owned by ``owner`` and return it.

        ``owner`` is stored in the handle slot, which (being non-``None``)
        keeps the run loop from recycling the cell — the owner may
        :meth:`repush` it after it fires.
        """
        seq = self._seq
        self._seq = seq + 1
        cell = [time, seq, callback, owner, True]
        heappush(self._heap, cell)
        return cell

    # --------------------------------------------------------- cancellation

    def cancel_cell(self, cell: list) -> None:
        """Cancel a scheduled cell; a no-op once it fired or was cancelled."""
        if cell[4]:
            cell[4] = False
            cell[2] = None
            dead = self._dead + 1
            self._dead = dead
            self.cancellations += 1
            if dead > _COMPACT_MIN_DEAD and dead * 2 > len(self._heap):
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Pop order is fully determined by ``(time, seq)``, so rebuilding the
        heap's internal layout cannot change event order. The heap list is
        mutated in place (slice assignment) rather than rebound so the
        run loop may safely keep a direct reference to it.
        """
        heap = self._heap
        heap[:] = [cell for cell in heap if cell[2] is not None]
        heapify(heap)
        self._dead = 0
        self.compactions += 1

    # ------------------------------------------------------------- metrics

    @property
    def perf(self) -> PerfCounters:
        """Snapshot of the engine's performance counters."""
        return PerfCounters(
            events_processed=self.events_processed,
            events_scheduled=self._seq,
            events_cancelled=self.cancellations,
            heap_compactions=self.compactions,
            live_events=len(self._heap) - self._dead,
            events_coalesced=self.events_coalesced,
        )

    def attach_observability(self, hub) -> None:
        """Register the engine's counters as callback gauges on ``hub``.

        Pure registration: the gauges read live attributes only when the
        registry is collected, so the event loop itself is untouched.
        """
        registry = hub.registry
        registry.gauge_fn(
            "sim_events_processed",
            lambda: self.events_processed,
            help="Events fired by the simulator loop",
        )
        registry.gauge_fn(
            "sim_events_coalesced",
            lambda: self.events_coalesced,
            help="Per-tuple events the batched dataplane avoided",
        )
        registry.gauge_fn(
            "sim_events_scheduled",
            lambda: self._seq,
            help="Events ever pushed onto the queue",
        )
        registry.gauge_fn(
            "sim_events_cancelled",
            lambda: self.cancellations,
            help="Events cancelled before firing",
        )
        registry.gauge_fn(
            "sim_heap_compactions",
            lambda: self.compactions,
            help="Times the event heap compacted dead cells",
        )
        registry.gauge_fn(
            "sim_live_events",
            lambda: len(self._heap) - self._dead,
            help="Events currently pending in the queue",
        )
        registry.gauge_fn(
            "sim_clock_seconds",
            lambda: self._now,
            help="Current simulated time",
        )

    def enable_tracing(self) -> None:
        """Hash every fired event's ``(time, seq)`` into a golden trace.

        The digest (:meth:`trace_digest`) pins the exact event order of a
        run; two runs with identical semantics produce identical digests.
        Adds one branch per event when disabled, a hash update when on.
        """
        self._trace = hashlib.blake2b(digest_size=16)

    def trace_digest(self) -> str:
        """Hex digest of the event trace so far (requires tracing enabled)."""
        if self._trace is None:
            raise SimulationError("tracing is not enabled")
        return self._trace.hexdigest()

    # ------------------------------------------------------------- running

    def stop(self) -> None:
        """Request the current :meth:`run_until` loop to return."""
        self._stopped = True

    def _run(self, end_time: float) -> None:
        """Fire all due events in order; the shared core of both run modes.

        Popping the next due cell and recycling it are written out in the
        loop body: at ~1M events/sec two method frames per event would be
        the single largest remaining cost. ``_heap`` and ``_free`` are
        hoisted out of the loop — both are mutated strictly in place
        (:meth:`_compact` compacts via slice assignment, never
        rebinding). The traced branch is a separate loop body so the
        untraced hot path pays no per-event trace check.
        ``events_processed`` advances per event (not batched at loop
        exit) because observability gauges read it mid-run.
        """
        if self._trace is not None:
            self._run_traced(end_time)
            return
        heap = self._heap
        free = self._free
        pop = heappop
        self._running = True
        self._stopped = False
        try:
            while not self._stopped:
                # The earliest live cell, if it is due by end_time.
                while True:
                    if not heap:
                        return
                    cell = heap[0]
                    if cell[2] is None:
                        pop(heap)
                        self._dead -= 1
                        continue
                    if cell[0] > end_time:
                        return
                    pop(heap)
                    break
                cell[4] = False
                self._now = cell[0]
                self.events_processed += 1
                callback = cell[2]
                handle = cell[3]
                if handle is None:
                    # Handle-less cell: no reference escaped, safe to
                    # reuse.
                    if len(free) < _FREE_LIST_MAX:
                        cell[2] = None
                        free.append(cell)
                elif type(handle) is Event:
                    # The cell and its handle reference each other; once
                    # fired the pair would be cyclic garbage only the
                    # cycle collector could reclaim. Dropping the
                    # back-reference here lets plain refcounting free
                    # both the moment the caller lets go of the handle.
                    # The cell itself is NOT recycled: the handle may
                    # still be held, and a stale cancel() must stay a
                    # no-op (guarded by the alive flag).
                    cell[3] = None
                callback()
        finally:
            self._running = False

    def _run_traced(self, end_time: float) -> None:
        """:meth:`_run` with the golden-trace hash folded into the loop."""
        heap = self._heap
        free = self._free
        pop = heappop
        trace = self._trace
        pack = struct.Struct("<dq").pack
        self._running = True
        self._stopped = False
        try:
            while not self._stopped:
                while True:
                    if not heap:
                        return
                    cell = heap[0]
                    if cell[2] is None:
                        pop(heap)
                        self._dead -= 1
                        continue
                    if cell[0] > end_time:
                        return
                    pop(heap)
                    break
                cell[4] = False
                self._now = cell[0]
                self.events_processed += 1
                trace.update(pack(cell[0], cell[1]))
                callback = cell[2]
                handle = cell[3]
                if handle is None:
                    if len(free) < _FREE_LIST_MAX:
                        cell[2] = None
                        free.append(cell)
                elif type(handle) is Event:
                    cell[3] = None
                callback()
        finally:
            self._running = False

    def run_until(self, end_time: float) -> None:
        """Fire events in order until the clock reaches ``end_time``.

        The clock is left exactly at ``end_time`` (even if the queue drains
        earlier), so back-to-back ``run_until`` calls behave like one long
        run.
        """
        if self._running:
            raise SimulationError("run_until is not reentrant")
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time} is before now {self._now}"
            )
        self._run(end_time)
        if not self._stopped:
            self._now = end_time

    def run_until_idle(self, max_time: float) -> None:
        """Run until the queue drains, but never past ``max_time``."""
        if self._running:
            raise SimulationError("run_until_idle is not reentrant")
        self._run(max_time)
