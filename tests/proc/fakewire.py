"""A ``ProcessRegion`` whose workers are socketpairs: no processes, no sleeps.

The region is constructed normally (it binds its listener) but never
started: no supervisor monitor, no acceptor, no receiver threads. Each
slot's socket is one end of a ``socket.socketpair()`` and the slot is
brought up through the supervisor's own ``on_connected``; the test plays
the worker — it reads the frames the region put on the wire from the
other end and injects acks through ``ProcessRegion._handle_message``,
exactly where a receiver thread would deliver them. Everything is
synchronous, so "what is on the wire right now" is an exact question.

:meth:`FakeWire.shrink` makes a slot's kernel buffer a few KiB, so a
frame larger than that parks its sender until the test reads — the second
source of backpressure a real socket has, next to a full window.
"""

import math
import select
import socket

from repro.net import framing
from repro.proc.region import ProcessRegion
from repro.proc.supervisor import STARTING, UP


class FakeWire:
    """One never-started region plus the test's end of every worker wire."""

    def __init__(self, n_workers=2, **region_kwargs):
        self.region = ProcessRegion(n_workers, **region_kwargs)
        self.region._started = True  # submit() checks only the flag
        self.peers = [None] * n_workers
        self._assemblers = [None] * n_workers
        #: Raw bytes read off each wire, all incarnations, in order.
        self.raw = [b""] * n_workers
        #: Data frames read off each live wire and not yet acked, oldest
        #: first; a frame is its ``[(seq, cost, body), ...]`` entries.
        self.in_flight = [[] for _ in range(n_workers)]
        #: ``(incarnation, frames)`` a slot's previous incarnation died
        #: holding — what a dying worker's last breath could still ack.
        self.orphans = [None] * n_workers
        for index in range(n_workers):
            self.up(index)

    # ------------------------------------------------------------ lifecycle

    def up(self, index):
        """(Re)connect slot ``index`` on a fresh socketpair."""
        region = self.region
        slot = region.slots[index]
        if self.peers[index] is not None:
            # The region failed the slot over on its own (a send that
            # timed out); nobody closed the test's end of that wire.
            self.peers[index].close()
        ours, peer = socket.socketpair()
        peer.setblocking(False)
        with region._lock:
            slot.incarnation += 1
            slot.state = STARTING
            region._socks[index] = ours
        self.peers[index] = peer
        self._assemblers[index] = framing.MessageAssembler()
        self.in_flight[index] = []
        assert region.supervisor.on_connected(index, slot.incarnation)

    def shrink(self, index, nbytes=4096):
        """Make slot ``index``'s kernel buffers hold only a few KiB."""
        for sock in (self.region._socks[index], self.peers[index]):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, nbytes)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, nbytes)

    def down(self, index, *, drain=True):
        """Kill slot ``index``: the region fails it over synchronously.

        ``drain=False`` leaves what is on the wire unread, so a sender
        parked on a full kernel buffer is still parked when the slot dies.
        """
        slot = self.region.slots[index]
        if drain:
            self.read(index)
        self.orphans[index] = (slot.incarnation, self.in_flight[index])
        self.in_flight[index] = []
        assert self.region.supervisor.declare_dead(index, "test kill")
        self.peers[index].close()
        self.peers[index] = None

    def is_up(self, index):
        return self.region.slots[index].state == UP

    def close(self):
        self.region.close()
        for peer in self.peers:
            if peer is not None:
                peer.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ------------------------------------------------------------- the wire

    def read(self, index, limit=math.inf):
        """Data frames put on slot ``index``'s wire since the last read.

        ``limit`` stops after that many bytes: the peer reads some of
        what the kernel holds and leaves the rest.
        """
        peer = self.peers[index]
        frames = []
        while peer is not None and limit > 0:
            try:
                chunk = peer.recv(min(65536, limit))
            except BlockingIOError:
                break
            if not chunk:
                break
            limit -= len(chunk)
            self.raw[index] += chunk
            for message in self._assemblers[index].feed(chunk):
                if message.type == framing.MSG_DATA:
                    frames.append([message.data()])
                elif message.type == framing.MSG_DATA_BATCH:
                    frames.append(message.data_batch())
        self.in_flight[index].extend(frames)
        return frames

    def read_all(self):
        return [self.read(index) for index in range(len(self.peers))]

    def unread(self, index):
        """Whether slot ``index``'s wire holds bytes no frame accounts for.

        True while the kernel buffer has bytes the peer has not read or
        the assembler holds the head of a frame whose tail it has not.
        """
        if self._assemblers[index].pending_bytes:
            return True
        try:
            return bool(self.peers[index].recv(1, socket.MSG_PEEK))
        except BlockingIOError:
            return False

    def wait_readable(self, index, timeout=10.0):
        """Block until slot ``index``'s wire holds unread bytes."""
        ready, _, _ = select.select([self.peers[index]], [], [], timeout)
        assert ready, f"nothing reached slot {index}'s wire in {timeout}s"

    def inject(self, index, entries, *, incarnation=None, batched=True):
        """Deliver the worker's results for ``entries`` to the region."""
        slot = self.region.slots[index]
        if incarnation is None:
            incarnation = slot.incarnation
        results = [(seq, 0.0, body) for seq, _cost, body in entries]
        if batched:
            blob = framing.encode_result_batch(results)
        else:
            blob = b"".join(framing.encode_result(*r) for r in results)
        for message in framing.MessageAssembler().feed(blob):
            self.region._handle_message(slot, incarnation, message)

    def ack(self, index, *, batched=True):
        """Ack the oldest frame in flight on ``index``; return its entries."""
        self.read(index)
        entries = self.in_flight[index].pop(0)
        self.inject(index, entries, batched=batched)
        return entries
