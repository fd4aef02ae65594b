"""A ``ProcessRegion`` whose workers are socketpairs: no processes, no sleeps.

The region is constructed normally (it binds its listener) but never
started: no supervisor monitor, no acceptor, no receiver threads. Each
slot's socket is one end of a ``socket.socketpair()`` and the slot is
brought up through the supervisor's own ``on_connected``; the test plays
the worker — it reads the frames the region put on the wire from the
other end and injects acks through ``ProcessRegion._handle_message``,
exactly where a receiver thread would deliver them. Everything is
synchronous, so "what is on the wire right now" is an exact question.
"""

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

    def down(self, index):
        """Kill slot ``index``: the region fails it over synchronously."""
        slot = self.region.slots[index]
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

    def read(self, index):
        """Data frames put on slot ``index``'s wire since the last read."""
        peer = self.peers[index]
        frames = []
        while peer is not None:
            try:
                chunk = peer.recv(65536)
            except BlockingIOError:
                break
            if not chunk:
                break
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
