"""A simulated TCP connection between the splitter and one worker PE.

The model mirrors what matters about TCP for the paper's argument:

* a bounded **send buffer** on the splitter's host and a bounded **receive
  buffer** on the worker's host (two "system buffers" of queued tuples —
  exactly the latency that makes blocking a *late* congestion signal);
* **flow control**: data moves from send to receive buffer only while the
  receive buffer has space, so a slow consumer backs pressure up to the
  sender;
* a **non-blocking send** (`send_nowait`, the simulator's ``MSG_DONTWAIT``)
  that reports would-block instead of waiting, plus a wakeup for a blocked
  sender (the simulator's ``select``);
* a per-connection :class:`~repro.net.blocking.BlockingCounter` that the
  *sender* charges with the time it spent blocked.

A transfer from the send to the receive buffer is immediate: the paper ran
on InfiniBand, where propagation is negligible next to buffer-induced
queueing. The connection therefore schedules no events of its own; it
moves tuples synchronously inside the send and take that make room.

Fault support (the fault-injection subsystem): a connection can be
**stalled** (transport frozen — tuples pile up in the send buffer, exactly
what a dead or wedged peer looks like to the sender), **failed** (both
buffers dropped, as when the peer's kernel discards its socket state), and
**reset** (buffers cleared and the transport revived for a restarted peer).
Nothing is ever in flight between the buffers, so clearing them is the
whole of a fail or reset.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.net.blocking import BlockingCounter
from repro.net.buffers import BoundedBuffer, RunBuffer


class SimulatedConnection:
    """One splitter-to-worker connection inside the event simulator."""

    def __init__(
        self,
        conn_id: int,
        *,
        send_capacity: int = 32,
        recv_capacity: int = 32,
        block_mode: bool = False,
    ) -> None:
        self.conn_id = conn_id
        #: The array-native dataplane: buffers hold contiguous
        #: :class:`~repro.streams.tuples.TupleBlock` runs (capacity still
        #: denominated in tuples) and the transport moves whole blocks via
        #: :meth:`send_run`/:meth:`take_runs`. The per-item APIs
        #: (``send_nowait``/``take``) are not valid in this mode. The
        #: splitter and worker at either end follow it.
        self.block_mode = block_mode
        if block_mode:
            self._send_buffer: Any = RunBuffer(send_capacity)
            self._recv_buffer: Any = RunBuffer(recv_capacity)
            # Shadow the per-item pump with the block pump so every
            # internal consumer (unstall, take) moves blocks.
            self._pump = self._pump_runs
        else:
            self._send_buffer = BoundedBuffer(send_capacity)
            self._recv_buffer = BoundedBuffer(recv_capacity)
        #: Cumulative blocking time charged by the sender (Section 3).
        self.blocking = BlockingCounter()
        #: Called (with no arguments) each time a tuple lands in the
        #: receive buffer; set by the worker PE.
        self.on_deliver: Callable[[], None] | None = None
        self._send_space_waiter: Callable[[], None] | None = None
        self._pumping = False
        #: Transport frozen (peer wedged/dead): no transfers move until
        #: :meth:`unstall` or :meth:`reset`. Sends still fill the send
        #: buffer — the sender only notices once it elects to block.
        self.stalled = False

    # ----------------------------------------------------------------- send

    def can_send(self) -> bool:
        """Whether a ``send_nowait`` would currently succeed."""
        return not self._send_buffer.is_full()

    def send_nowait(self, item: Any) -> bool:
        """Non-blocking send: accept ``item`` or report would-block.

        This is the simulator's ``send(..., MSG_DONTWAIT)``. Returns
        ``False`` when the send buffer is full (the caller may then elect
        to block and charge :attr:`blocking`, as the paper's splitter
        does).
        """
        if not self._send_buffer.try_push(item):
            return False
        self._pump()
        return True

    def wait_for_send_space(self, callback: Callable[[], None]) -> None:
        """Register a one-shot wakeup for when the send buffer has space.

        The simulator's ``select``: the blocked sender parks here and is
        called back the instant a slot frees. Only one waiter may be
        outstanding (the splitter is single-threaded — the root cause of
        drafting, Section 4.2).
        """
        if self._send_space_waiter is not None:
            raise RuntimeError(f"connection {self.conn_id} already has a waiter")
        if self.can_send():
            raise RuntimeError("waiting for send space that is already available")
        self._send_space_waiter = callback

    # -------------------------------------------------------------- receive

    def recv_available(self) -> int:
        """Tuples currently waiting in the receive buffer."""
        return len(self._recv_buffer)

    def take(self) -> Any:
        """Remove and return the oldest received tuple (worker side)."""
        item = self._recv_buffer.pop()
        self._pump()
        return item

    # ------------------------------------------------- block-mode transport

    def send_run(self, block) -> int:
        """Bulk send of a tuple block; returns tuples accepted.

        As much of the block as fits enters the send buffer (the caller
        keeps the split tail on partial accept, exactly like a partial
        ``sendmsg``), followed by one flow-control pump.

        Steady state — nothing queued or stalled, and the whole block
        fits in free receive space — skips the send buffer entirely: the
        block lands in the receive buffer and the consumer is notified in
        one step, which is exactly what the push-then-pump sequence would
        have done block by block.
        """
        count = block.count
        if (
            count <= (recv := self._recv_buffer).capacity - recv._tuples
            and not self._send_buffer._tuples
            and not self.stalled
            and not self._pumping
        ):
            recv._runs.append(block)
            recv._tuples += count
            # No send space was freed (the send buffer stayed empty, so
            # no waiter can exist) — deliver and return. The consumer's
            # take cannot re-enter a pump here: with an empty send buffer
            # take_runs skips it.
            if self.on_deliver is not None:
                self.on_deliver()
            return count
        accepted = self._send_buffer.push_run(block)
        if accepted:
            self._pump_runs()
        return accepted

    def take_runs(self, max_n: int) -> list:
        """Remove and return up to ``max_n`` received tuples as blocks.

        The worker's block-mode take: whole blocks, with the boundary
        block split, then one flow-control pump.
        """
        runs = self._recv_buffer.pop_runs(max_n)
        if runs and self._send_buffer._tuples:
            # Pump only when queued data can actually advance into the
            # space just freed: an empty send buffer can neither deliver
            # nor free send space, so the pump would be a no-op.
            self._pump_runs()
        return runs

    def requeue_front_run(self, block) -> None:
        """Return a taken-but-unprocessed block to the head of the queue.

        Crash redelivery: the worker died mid-service, so the block goes
        back where it came from and is re-serviced on restart (or swept up
        by :meth:`fail` and replayed if the channel is failed over
        instead).
        """
        self._recv_buffer.push_front_run(block)

    def _pump_runs(self) -> None:
        """Block-mode :meth:`_pump`: move whole runs, notify per delivery.

        Always coalesced: a block-mode worker consumes runs, so one
        notification per pump round is the only sensible granularity (the
        per-tuple notification schedule belongs to the per-tuple path).
        Capacity accounting is still per tuple — blocks split at the
        receive buffer's free-slot boundary exactly where per-tuple flow
        control would have stopped.
        """
        if self._pumping or self.stalled:
            return
        self._pumping = True
        freed_send_space = False
        send_buffer = self._send_buffer
        recv_buffer = self._recv_buffer
        try:
            # Move-then-notify rounds: the consumer's take may free
            # receive space, so loop until a round moves nothing.
            while True:
                if send_buffer.transfer_to(recv_buffer) == 0:
                    break
                freed_send_space = True
                if self.on_deliver is None:
                    break
                self.on_deliver()
                if not send_buffer._tuples:
                    # The consumer drained everything queued; no next
                    # round can move more.
                    break
        finally:
            self._pumping = False
        if freed_send_space:
            self._wake_sender()

    # ------------------------------------------------------------ inspection

    def queued_tuples(self) -> int:
        """Total tuples buffered in the connection (send + receive).

        This is the "at least two system buffers worth of unprocessed
        tuples" of Section 4.4.
        """
        return len(self._send_buffer) + len(self._recv_buffer)

    # ---------------------------------------------------------------- faults

    def stall(self) -> None:
        """Freeze the transport: no tuple moves until unstalled or reset.

        Models a wedged or dead peer as the sender experiences it: sends
        keep landing in the (splitter-side) send buffer until it fills,
        then the sender blocks — and stays blocked, because nothing drains.
        """
        self.stalled = True

    def unstall(self) -> None:
        """Thaw a stalled transport and let flow control catch up."""
        if not self.stalled:
            return
        self.stalled = False
        self._pump()

    def cancel_wait(self) -> "Callable[[], None] | None":
        """Drop the parked send-space waiter, returning it (or ``None``).

        Recovery path: when the splitter abandons a dead channel it must
        un-park from its ``select`` before it can route elsewhere.
        """
        waiter = self._send_space_waiter
        self._send_space_waiter = None
        return waiter

    def fail(self) -> int:
        """Kill the transport: drop all buffered tuples.

        Returns how many tuples were dropped (send + receive). The
        connection stays stalled afterwards; :meth:`reset` revives it.
        Replay of the dropped tuples is the splitter's job — it holds the
        retransmit buffer of everything unacknowledged.
        """
        dropped = self._send_buffer.clear() + self._recv_buffer.clear()
        self.stalled = True
        return dropped

    def reset(self) -> None:
        """Revive a failed/stalled connection with empty buffers.

        The restarted peer comes up with fresh socket state.
        """
        self._send_buffer.clear()
        self._recv_buffer.clear()
        self._send_space_waiter = None
        self.stalled = False

    # -------------------------------------------------------------- internal

    def _pump(self) -> None:
        """Move tuples from send to receive buffer while flow control allows.

        Reentrant calls (a delivery callback that synchronously takes a
        tuple, which frees receive space) are flattened into the outer
        loop via the ``_pumping`` guard.
        """
        if self._pumping or self.stalled:
            return
        self._pumping = True
        freed_send_space = False
        send_buffer = self._send_buffer
        recv_buffer = self._recv_buffer
        try:
            while send_buffer and not recv_buffer.is_full():
                item = send_buffer.pop()
                freed_send_space = True
                recv_buffer.push(item)
                if self.on_deliver is not None:
                    self.on_deliver()
        finally:
            self._pumping = False
        if freed_send_space:
            self._wake_sender()

    def _wake_sender(self) -> None:
        """Fire the parked sender, if any and if space truly exists."""
        if self._send_space_waiter is None or not self.can_send():
            return
        waiter = self._send_space_waiter
        self._send_space_waiter = None
        waiter()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimulatedConnection(id={self.conn_id}, "
            f"send={len(self._send_buffer)}/{self._send_buffer.capacity}, "
            f"recv={len(self._recv_buffer)}/{self._recv_buffer.capacity})"
        )
