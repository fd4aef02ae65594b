"""The event handle and heap-cell layout of the discrete-event engine.

Determinism matters: two events scheduled for the same instant fire in the
order they were scheduled (FIFO tie-break on a monotone sequence number).
Every experiment in the repository is therefore reproducible bit-for-bit.

Hot-path representation
-----------------------

The heap does not store :class:`Event` objects. Each entry is a plain
5-slot list cell ``[time, seq, callback, handle, alive]``:

* list-vs-list comparison runs at C speed and never looks past ``seq``
  (sequence numbers are unique), so no ``__lt__`` is ever dispatched to
  Python code;
* the hand-off path that dominates simulations
  (:meth:`~repro.sim.engine.Simulator.schedule_after`) returns no handle
  at all, which lets the engine recycle the cell through a free list —
  steady-state tuple traffic allocates no per-event objects;
* :meth:`~repro.sim.engine.Simulator.call_at` / ``call_after`` wrap the
  cell in a lightweight :class:`Event` handle (stored in slot 3) so
  callers can cancel it. Cells with handles are never recycled, and the
  ``alive`` flag makes a stale ``cancel()`` (after the event fired) a
  safe no-op.

Cancellation is lazy (``callback`` set to ``None``; skipped on pop), but
the simulator tracks a dead-entry count so its live count is exact, and
compacts the heap when cancelled entries start to dominate.

Cell index constants: ``_TIME=0, _SEQ=1, _CB=2, _HANDLE=3, _ALIVE=4``.
"""

from __future__ import annotations

from collections.abc import Callable

#: Upper bound on recycled cells kept around between bursts.
_FREE_LIST_MAX = 512
#: Compaction triggers only once at least this many dead entries piled up.
_COMPACT_MIN_DEAD = 64


class Event:
    """Handle to a scheduled callback.

    Ordering of the simulator's heap is by ``(time, seq)``; ``seq`` is the
    global scheduling order, so simultaneous events fire FIFO. A cancelled
    event stays in the heap but is skipped when popped (lazy deletion, the
    standard heapq idiom).
    """

    #: The heap cell and its simulator, filled in by
    #: :meth:`~repro.sim.engine.Simulator.call_at` / ``call_after``,
    #: which build the handle in place.
    __slots__ = ("_cell", "_sim")

    @property
    def time(self) -> float:
        """Scheduled firing time."""
        return self._cell[0]

    @property
    def seq(self) -> int:
        """Global scheduling order (FIFO tie-break)."""
        return self._cell[1]

    @property
    def callback(self) -> Callable[[], None] | None:
        """The scheduled callback (``None`` once cancelled)."""
        return self._cell[2]

    def cancel(self) -> None:
        """Mark the event so the engine drops it instead of firing it.

        Cancelling an event that already fired (or cancelling twice) is a
        no-op — the ``alive`` flag guards the simulator's live count.
        """
        self._sim.cancel_cell(self._cell)
