"""Stateful property test: the simulated connection's invariants.

A hypothesis rule-based state machine drives a
:class:`~repro.net.connection.SimulatedConnection` — per tuple
(``send_nowait`` / ``take`` / ``requeue_front``) or, on the block-mode
axis, by runs (``send_run`` / ``take_runs`` / ``requeue_front_run``) —
with arbitrary interleavings of sends, takes, crash redeliveries, waiter
registrations and the fault transitions ``stall`` / ``unstall`` /
``fail`` / ``reset``, checking after every step that:

* tuples come out in exactly the order they went in (FIFO end to end),
  and a redelivered tuple comes out first;
* every tuple sent is either still queued, taken, or dropped by a
  ``fail`` / ``reset`` that reported it (conservation);
* the send buffer never exceeds its capacity, and the receive buffer
  exceeds its own only by redelivered tuples not yet taken again;
* a refused send means the send buffer really is full;
* a registered waiter fires at most once, and only when space exists.
"""

from collections import deque

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.net.connection import SimulatedConnection
from repro.streams.tuples import TupleBlock


class ConnectionMachine(RuleBasedStateMachine):
    @initialize(
        send_capacity=st.integers(min_value=1, max_value=4),
        recv_capacity=st.integers(min_value=1, max_value=4),
        block_mode=st.booleans(),
    )
    def setup(self, send_capacity, recv_capacity, block_mode):
        self.conn = SimulatedConnection(
            0,
            send_capacity=send_capacity,
            recv_capacity=recv_capacity,
            block_mode=block_mode,
        )
        self.block_mode = block_mode
        self.send_capacity = send_capacity
        self.recv_capacity = recv_capacity
        #: Model of the pipeline: every queued seq, oldest first.
        self.queued = deque()
        self.next_to_send = 0
        self.taken = 0
        self.dropped = 0
        #: Redelivered tuples at the head of the receive buffer.
        self.requeued = 0
        self.waiter_armed = False
        self.waiter_fired = 0

    # ------------------------------------------------------------- dataplane

    @rule(size=st.integers(min_value=1, max_value=5))
    def send(self, size):
        start = self.next_to_send
        if self.block_mode:
            accepted = self.conn.send_run(TupleBlock(start, size, cost=1.0))
            assert 0 <= accepted <= size
        else:
            accepted = int(self.conn.send_nowait(start))
        if not accepted:
            # Refusal must mean the send buffer really is full.
            assert not self.conn.can_send()
        self.queued.extend(range(start, start + accepted))
        self.next_to_send += accepted

    def _take(self, max_n):
        """Take up to ``max_n`` tuples; return what came out, in order."""
        if self.block_mode:
            runs = self.conn.take_runs(max_n)
            out = [seq for run in runs for seq in range(run.start, run.end)]
        else:
            n = min(max_n, self.conn.recv_available())
            runs = [self.conn.take() for _ in range(n)]
            out = list(runs)
        expected = [self.queued.popleft() for _ in out]
        assert out == expected, f"out of order: got {out}, expected {expected}"
        self.requeued = max(0, self.requeued - len(out))
        return runs, out

    @rule(max_n=st.integers(min_value=1, max_value=5))
    def take(self, max_n):
        if self.conn.recv_available():
            _, out = self._take(max_n)
            self.taken += len(out)

    @rule(max_n=st.integers(min_value=1, max_value=3))
    def redeliver(self, max_n):
        # A worker crashes mid-service: what it took goes back to the head.
        if not self.conn.recv_available():
            return
        runs, out = self._take(max_n)
        if self.block_mode:
            for run in reversed(runs):
                self.conn.requeue_front_run(run)
        else:
            for item in reversed(runs):
                self.conn.requeue_front(item)
        self.queued.extendleft(reversed(out))
        self.requeued += len(out)

    @rule()
    def arm_waiter(self):
        if not self.waiter_armed and not self.conn.can_send():
            before = self.waiter_fired
            self.conn.wait_for_send_space(self._on_wake)
            # Arming never fires synchronously (space was unavailable).
            assert self.waiter_fired == before
            self.waiter_armed = True

    def _on_wake(self):
        assert self.waiter_armed, "waiter fired twice"
        assert self.conn.can_send(), "waiter fired without send space"
        self.waiter_fired += 1
        self.waiter_armed = False

    # ---------------------------------------------------------------- faults

    @rule()
    def stall(self):
        self.conn.stall()

    @rule()
    def unstall(self):
        self.conn.unstall()

    @rule()
    def fail(self):
        assert self.conn.fail() == len(self.queued)
        self._dropped_all()
        assert self.conn.stalled

    @rule()
    def reset(self):
        self.conn.reset()
        self._dropped_all()
        self.waiter_armed = False  # a revived peer starts with no waiter
        assert not self.conn.stalled

    def _dropped_all(self):
        self.dropped += len(self.queued)
        self.queued.clear()
        self.requeued = 0

    # ------------------------------------------------------------ invariants

    @invariant()
    def conservation(self):
        if not hasattr(self, "conn"):
            return
        assert self.conn.queued_tuples() == len(self.queued)
        accounted = self.taken + self.dropped + len(self.queued)
        assert self.next_to_send == accounted

    @invariant()
    def buffers_bounded(self):
        if not hasattr(self, "conn"):
            return
        received = self.conn.recv_available()
        assert self.conn.queued_tuples() - received <= self.send_capacity
        assert received <= self.recv_capacity + self.requeued


TestConnectionStateful = ConnectionMachine.TestCase
TestConnectionStateful.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
