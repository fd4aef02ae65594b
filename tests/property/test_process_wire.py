"""Property: no interleaving of routes, acks and deaths strands a tuple.

Hypothesis drives the process region's splitter and merger through
arbitrary interleavings of the events a live region sees — tuples
routed, result frames arriving (whole, split across two frames,
duplicated, or late from an incarnation that has since died), workers
dying, workers rejoining — with :class:`tests.proc.fakewire.FakeWire`
standing in for the worker processes, so every step is synchronous and
"what is on the wire" is exact. After every step:

* the merged output is gap-free, ordered and duplicate-free;
* a retransmit window never exceeds ``window`` until a failover has
  over-committed one on purpose;
* the work-conserving flush rule's liveness invariant holds — *whenever
  the generator stops, every outbox is empty or its slot has a frame in
  flight* (whose ack will release it). An outbox holding only tuples
  whose results already arrived by another road strands nothing and is
  exempt.

And at the end, with the generator stopped for good and **no call to
``drain``**, acking whatever is in flight until the wires fall silent
delivers every tuple ever submitted.

A second property runs the same events over kernel buffers that can
fill: every slot's buffer is shrunk, bodies are padded so a window's
worth outgrows it, and the peers read what they are sent only when the
script says so, a few hundred bytes at a time. A frame that does not fit
parks its sender — here, with one thread playing everybody, until
``send_stall_timeout`` hands the slot to the death path — and the same
three invariants must hold.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.proc.fakewire import FakeWire

pytestmark = pytest.mark.sockets

N_WORKERS = 3
WINDOW = 12
BATCH = 4

slots = st.integers(min_value=0, max_value=N_WORKERS - 1)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("route"), st.integers(min_value=1, max_value=9)),
        st.tuples(st.just("ack"), slots),
        st.tuples(st.just("ack_split"), slots),
        st.tuples(st.just("ack_again"), slots),
        st.tuples(st.just("ack_late"), slots),
        st.tuples(st.just("down"), slots),
        st.tuples(st.just("up"), slots),
    ),
    max_size=70,
)


tight_steps = st.lists(
    st.one_of(
        # Long enough to put a third frame on a wire nobody has read.
        st.tuples(
            st.just("route"),
            st.integers(min_value=1, max_value=N_WORKERS * WINDOW),
        ),
        st.tuples(
            st.just("peer_reads"),
            st.tuples(slots, st.integers(min_value=1, max_value=2048)),
        ),
        st.tuples(st.just("ack"), slots),
        st.tuples(st.just("ack_split"), slots),
        st.tuples(st.just("ack_late"), slots),
        st.tuples(st.just("down"), slots),
        st.tuples(st.just("up"), slots),
    ),
    max_size=70,
)


class Model:
    """The worker side of the wire, as far as the properties need it."""

    #: Appended to every body.
    padding = b""

    def __init__(self, wire):
        self.wire = wire
        self.region = wire.region
        #: Last frame each slot acked in full (for duplicate acks).
        self.acked = [None] * N_WORKERS

    def can_route(self):
        # A submit that would block (no serving slot, or a weighted
        # choice whose window is full) would block this one thread
        # forever; the generator only offers load the region can take.
        serving = [s for s in self.region.slots if self.wire.is_up(s.index)]
        return bool(serving) and all(
            len(s.unacked) < WINDOW for s in serving
        )

    def step(self, op, arg):
        wire, region = self.wire, self.region
        if op == "route":
            for _ in range(arg):
                if not self.can_route():
                    break
                seq = region.stats().tuples
                assert region.submit(0.0, self.body(seq)) == seq
        elif op == "down":
            if wire.is_up(arg):
                wire.down(arg)
        elif op == "up":
            if not wire.is_up(arg):
                wire.up(arg)
        elif not wire.is_up(arg):
            return
        elif op == "ack":
            wire.read(arg)
            if wire.in_flight[arg]:
                self.acked[arg] = wire.ack(arg)
        elif op == "ack_split":
            # A heartbeat split the cumulative ack: the first half of
            # the oldest frame's results now, the rest still owed.
            wire.read(arg)
            frames = wire.in_flight[arg]
            if frames and len(frames[0]) > 1:
                half = len(frames[0]) // 2
                head, frames[0] = frames[0][:half], frames[0][half:]
                wire.inject(arg, head)
        elif op == "ack_again":
            if self.acked[arg] is not None:
                wire.inject(arg, self.acked[arg])
        elif op == "ack_late":
            # The previous incarnation's last breath, delivered after
            # its tuples were already replayed elsewhere.
            if wire.orphans[arg] is not None:
                incarnation, frames = wire.orphans[arg]
                wire.orphans[arg] = None
                for frame in frames:
                    wire.inject(arg, frame, incarnation=incarnation)

    def body(self, seq):
        return b"b%d" % seq + self.padding

    def observe(self):
        """Look at the wires before the invariants are evaluated."""
        self.wire.read_all()

    def on_wire(self, index):
        """Whether slot ``index`` has a frame in flight."""
        return bool(self.wire.in_flight[index])

    def check(self):
        wire, region = self.wire, self.region
        self.observe()
        outputs = region.outputs
        assert [seq for seq, _ in outputs] == list(range(len(outputs)))
        assert all(body == self.body(seq) for seq, body in outputs)
        stats = region.stats()
        assert stats.results == len(outputs) + region._reorderer.held
        for slot in region.slots:
            if stats.replayed == 0:
                assert len(slot.unacked) <= WINDOW
            owed = [e for e in slot.outbox if e[0] in slot.unacked]
            if not wire.is_up(slot.index):
                assert not slot.outbox and not slot.unacked
            elif owed:
                assert self.on_wire(slot.index), (
                    f"slot {slot.index} holds {len(owed)} undelivered "
                    "tuples in its outbox with nothing on its wire"
                )
        assert sum(stats.flushes_by_reason.values()) == stats.data_flushes


class TightModel(Model):
    """The same worker side over kernel buffers that can fill.

    The peers read only when the script says so, so the invariants are
    evaluated without draining the wires: a frame is in flight while it
    is unacked, unread, or half read.
    """

    #: Two full runs of these outgrow the smallest buffer the kernel
    #: allows; one still fits an empty buffer, so an idle flush (sent
    #: when everything before it has been read and acked) never parks.
    padding = b"." * 450

    def __init__(self, wire):
        super().__init__(wire)
        for index in range(N_WORKERS):
            wire.shrink(index, 2048)

    def step(self, op, arg):
        if op == "peer_reads":
            index, nbytes = arg
            if self.wire.is_up(index):
                self.wire.read(index, limit=nbytes)
            return
        super().step(op, arg)
        if op == "up":
            self.wire.shrink(arg, 2048)

    def observe(self):
        pass

    def on_wire(self, index):
        return super().on_wire(index) or self.wire.unread(index)


def run_script(model, script):
    wire = model.wire
    for op, arg in script:
        model.step(op, arg)
        model.check()
    # The generator has stopped. Bring everyone back (parked tuples
    # need a serving slot) and let the wires fall silent on their
    # own: every ack releases whatever waited behind it.
    for index in range(N_WORKERS):
        if not wire.is_up(index):
            wire.up(index)
    for _ in range(10_000):
        wire.read_all()
        busy = [j for j in range(N_WORKERS) if wire.in_flight[j]]
        if not busy:
            break
        for index in busy:
            wire.ack(index)
        model.check()
    region = wire.region
    stats = region.stats()
    assert stats.results == stats.tuples
    assert [seq for seq, _ in region.outputs] == list(range(stats.tuples))
    assert all(not slot.unacked for slot in region.slots)


@settings(max_examples=60, deadline=None)
@given(script=steps)
def test_every_interleaving_is_exactly_once_and_nothing_is_stranded(script):
    with FakeWire(N_WORKERS, batch_size=BATCH, window=WINDOW) as wire:
        run_script(Model(wire), script)


@settings(max_examples=40, deadline=None)
@given(script=tight_steps)
def test_every_interleaving_survives_full_kernel_buffers(script):
    with FakeWire(N_WORKERS, batch_size=BATCH, window=WINDOW,
                  send_stall_timeout=0.01) as wire:
        run_script(TightModel(wire), script)
