"""Bounded FIFO buffers.

These model the OS socket buffers that make blocking a *late* indicator of
congestion (Section 4.4): "By the time a TCP connection for an overloaded
PE blocks, it already has at least two system buffers worth of unprocessed
tuples (locally on the splitter and remotely on the worker)."

Capacity is measured in tuples. Real TCP buffers are sized in bytes, but for
a fixed-size tuple stream the two are equivalent up to a constant, and tuple
units keep the simulator's accounting exact. Transfers between the two
buffers of a connection are immediate, so occupancy is the whole state: a
buffer is full when it holds ``capacity`` tuples.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, TypeVar

from repro.util.validation import check_positive

T = TypeVar("T")


class BufferFullError(RuntimeError):
    """Unconditional push into a full buffer (a caller bug, never expected)."""


class BoundedBuffer(Generic[T]):
    """FIFO queue with a hard capacity."""

    __slots__ = ("capacity", "_items")

    def __init__(self, capacity: int) -> None:
        check_positive("capacity", capacity)
        self.capacity = int(capacity)
        self._items: deque[T] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def is_full(self) -> bool:
        """True when no push can be accepted."""
        return len(self._items) >= self.capacity

    def try_push(self, item: T) -> bool:
        """Append ``item`` if there is space; return whether it was taken."""
        if len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        return True

    def push(self, item: T) -> None:
        """Append ``item``; raises :class:`BufferFullError` when full."""
        if not self.try_push(item):
            raise BufferFullError(f"buffer full (capacity={self.capacity})")

    def push_front(self, item: T) -> None:
        """Put ``item`` back at the head, bypassing the capacity check.

        Redelivery path: a crashed worker's in-service tuple is returned
        to the receive buffer it was taken from (the take never completed,
        so logically the slot is still its own). The buffer may transiently
        exceed capacity by one; flow control absorbs it on the next pump.
        """
        self._items.appendleft(item)

    def clear(self) -> int:
        """Drop every item; return items dropped.

        Fault path: a failed connection's buffers die with it.
        """
        dropped = len(self._items)
        self._items.clear()
        return dropped

    def pop(self) -> T:
        """Remove and return the oldest item."""
        if not self._items:
            raise IndexError("pop from empty buffer")
        return self._items.popleft()


class RunBuffer:
    """A bounded FIFO of :class:`~repro.streams.tuples.TupleBlock` runs.

    The block-native dataplane's buffer: capacity and occupancy are
    denominated in **tuples** — exactly like
    :class:`BoundedBuffer` — so blocking dynamics (when a send buffer
    fills, how much a connection holds) are unchanged from the per-tuple
    engine; only the bookkeeping granularity is coarser. A push that does
    not fully fit is accepted partially (the caller splits the block at
    the accepted boundary), and a bounded pop splits the front block, so
    no operation ever distorts capacity accounting to block granularity.
    """

    __slots__ = ("capacity", "_runs", "_tuples")

    def __init__(self, capacity: int) -> None:
        check_positive("capacity", capacity)
        self.capacity = int(capacity)
        self._runs: deque = deque()
        self._tuples = 0

    def __len__(self) -> int:
        """Occupancy in tuples (not blocks)."""
        return self._tuples

    def __bool__(self) -> bool:
        return self._tuples > 0

    def is_full(self) -> bool:
        """True when not a single further tuple can be accepted."""
        return self._tuples >= self.capacity

    def push_run(self, block) -> int:
        """Accept as much of ``block`` as fits; return tuples accepted.

        A partial accept stores the block's head; the caller keeps the
        tail (``block.split(accepted)[1]``) — the run-level analogue of a
        partial ``sendmsg``.
        """
        free = self.capacity - self._tuples
        if free <= 0:
            return 0
        count = block.count
        if count <= free:
            self._runs.append(block)
            self._tuples += count
            return count
        self._runs.append(block.split(free)[0])
        self._tuples += free
        return free

    def push_front_run(self, block) -> None:
        """Put a block back at the head, bypassing the capacity check.

        Crash redelivery, exactly like :meth:`BoundedBuffer.push_front`:
        the buffer may transiently exceed capacity; flow control absorbs
        it on the next pump.
        """
        self._runs.appendleft(block)
        self._tuples += block.count

    def transfer_to(self, other: "RunBuffer") -> int:
        """Move blocks FIFO into ``other`` until its free slots run out.

        The block pump's whole inner loop in one call: whole
        blocks move as single deque operations, the block straddling the
        receiver's free-slot boundary is split exactly where per-tuple
        flow control would have stopped, and both buffers' tuple counts
        are settled once. Returns tuples moved (0 when nothing fits or
        nothing is queued).
        """
        free = other.capacity - other._tuples
        if free <= 0 or not self._tuples:
            return 0
        runs = self._runs
        dst = other._runs
        moved = 0
        while runs:
            block = runs[0]
            count = block.count
            if moved + count <= free:
                runs.popleft()
                dst.append(block)
                moved += count
                if moved == free:
                    break
            else:
                head, tail = block.split(free - moved)
                runs[0] = tail
                dst.append(head)
                moved = free
                break
        self._tuples -= moved
        other._tuples += moved
        return moved

    def pop_runs(self, max_n: int) -> list:
        """Remove and return up to ``max_n`` tuples of blocks, in order.

        Whole blocks are popped while they fit; a block straddling the
        limit is split, its head returned and its tail left at the front.
        """
        if max_n <= 0:
            raise ValueError(f"max_n must be positive, got {max_n}")
        runs = self._runs
        if self._tuples <= max_n:
            # Everything fits — the steady-state take drains the buffer
            # whole, without per-block boundary checks.
            out = list(runs)
            runs.clear()
            self._tuples = 0
            return out
        out = []
        taken = 0
        while runs:
            block = runs[0]
            count = block.count
            if taken + count <= max_n:
                runs.popleft()
                out.append(block)
                taken += count
                if taken == max_n:
                    break
            else:
                head, tail = block.split(max_n - taken)
                runs[0] = tail
                out.append(head)
                taken = max_n
                break
        self._tuples -= taken
        return out

    def clear(self) -> int:
        """Drop every block; return tuples dropped."""
        dropped = self._tuples
        self._runs.clear()
        self._tuples = 0
        return dropped
