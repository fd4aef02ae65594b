"""The worker process: ``python -m repro.proc.worker``.

One worker = one OS process = one duplex TCP connection back to the
parent region. The loop is deliberately primitive — a single thread
multiplexing reads, service work, and heartbeats with ``select`` — so
that the only ways it stops are exactly the failure modes the
supervisor is built to handle:

* ``SIGKILL`` — the process vanishes; the parent sees a dead socket and
  missed heartbeats.
* ``SIGSTOP`` — the process freezes mid-loop; the socket stays open but
  heartbeats stop (the piggybacked-liveness case a separate health port
  would get wrong).
* ``SIGTERM`` — *graceful drain*: the worker finishes every tuple it
  has already read, sends ``BYE``, and exits 0.
* ``EOS`` from the parent — same drain, initiated over the data channel.
* EOF from the parent — the region is gone; exit quietly.

Service work is simulated per tuple from the cost carried in each DATA
frame times the worker's ``--multiplier`` (heterogeneous capacity) times
a runtime CONTROL multiplier (host-slowdown faults). ``--mode spin``
burns CPU for the duration (the multi-core benchmark), ``--mode sleep``
sleeps it (cheap tests).

Batched wire protocol: tuples arriving in a ``DATA_BATCH`` run are
serviced a whole run per wakeup, and their results accumulate into a
single cumulative ``RESULT_BATCH`` ack — flushed when the queue drains,
when a heartbeat falls due, or at :data:`RESULT_FLUSH_MAX` pending
entries, whichever comes first. Heartbeats are never starved behind a
large run: the service loop breaks out between tuples the moment the
heartbeat deadline passes. Tuples arriving as plain ``DATA`` are acked
with a per-tuple ``RESULT`` immediately, keeping the ``batch_size=1``
wire behavior identical to the pre-batching protocol.
"""

from __future__ import annotations

import argparse
import select
import signal
import socket
import sys
import time
from collections import deque

from repro.net import framing

#: Cumulative-ack cap: a RESULT_BATCH flushes at this many pending
#: entries even mid-run, bounding both ack latency under a huge backlog
#: and the frame size (well under ``framing.MAX_PAYLOAD``).
RESULT_FLUSH_MAX = 512
#: Seconds the worker waits for the parent's listener to accept it.
CONNECT_TIMEOUT = 10.0


class WorkerMain:
    """The worker loop, factored as a class for in-process testing."""

    def __init__(
        self,
        host: str,
        port: int,
        worker_id: int,
        incarnation: int,
        *,
        multiplier: float = 1.0,
        heartbeat_interval: float = 0.1,
        mode: str = "sleep",
        exit_after: int | None = None,
        exit_code: int = 1,
    ) -> None:
        if mode not in ("sleep", "spin"):
            raise ValueError(f"unknown mode {mode!r}")
        self.host = host
        self.port = port
        self.worker_id = worker_id
        self.incarnation = incarnation
        self.multiplier = multiplier
        self.heartbeat_interval = heartbeat_interval
        self.mode = mode
        #: Debug harness: die with ``exit_code`` after N tuples — a
        #: deterministic stand-in for an external SIGKILL in tests of
        #: nonzero-exit crash detection.
        self.exit_after = exit_after
        self.exit_code = exit_code
        self.control_multiplier = 1.0
        self.processed = 0
        self._draining = False

    # ------------------------------------------------------------- service

    def _service(self, cost_seconds: float) -> float:
        """Perform one tuple's work; return the realized duration."""
        duration = cost_seconds * self.multiplier * self.control_multiplier
        if duration <= 0:
            return 0.0
        if self.mode == "sleep":
            time.sleep(duration)
            return duration
        # Spin: burn the CPU so N workers genuinely occupy N cores.
        deadline = time.perf_counter() + duration
        x = 1
        while time.perf_counter() < deadline:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        return duration

    # ---------------------------------------------------------------- loop

    def run(self) -> int:
        """Connect, serve until told (or made) to stop; return exit code."""
        signal.signal(signal.SIGTERM, self._on_sigterm)
        sock = socket.create_connection(
            (self.host, self.port), timeout=CONNECT_TIMEOUT
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - AF_UNIX in exotic setups
            pass
        sock.settimeout(None)
        sock.sendall(framing.encode_hello(self.worker_id, self.incarnation))
        assembler = framing.MessageAssembler()
        # Queue entries are ``(seq, cost, body, batched)``: batched
        # tuples accumulate a cumulative ack, unbatched ones ack per
        # tuple (the B=1 wire behavior, byte for byte).
        queue: deque[tuple[int, float, bytes, bool]] = deque()
        #: Serviced-but-unacked batched results awaiting one flush.
        pending: list[tuple[int, float, bytes]] = []
        next_heartbeat = time.monotonic() + self.heartbeat_interval
        try:
            while True:
                now = time.monotonic()
                if now >= next_heartbeat:
                    # The cumulative ack rides ahead of the beat so the
                    # parent's liveness view never outruns its results.
                    if pending:
                        sock.sendall(framing.encode_result_batch(pending))
                        pending.clear()
                    sock.sendall(
                        framing.encode_heartbeat(
                            self.processed, self.incarnation
                        )
                    )
                    next_heartbeat = now + self.heartbeat_interval
                if pending and not queue:
                    # The run is serviced: one RESULT_BATCH covers it.
                    sock.sendall(framing.encode_result_batch(pending))
                    pending.clear()
                if self._draining and not queue:
                    sock.sendall(framing.encode_bye(self.processed))
                    return 0
                # Poll for input; don't sleep if there is work queued.
                timeout = 0.0 if queue else min(
                    self.heartbeat_interval, next_heartbeat - now
                )
                readable, _, _ = select.select(
                    [sock], [], [], max(0.0, timeout)
                )
                if readable:
                    try:
                        chunk = sock.recv(65536)
                    except OSError:
                        return 0
                    if not chunk:
                        return 0  # parent is gone; nothing to report to
                    for message in assembler.feed(chunk):
                        if message.type == framing.MSG_DATA:
                            queue.append(message.data() + (False,))
                        elif message.type == framing.MSG_DATA_BATCH:
                            queue.extend(
                                entry + (True,)
                                for entry in message.data_batch()
                            )
                        elif message.type == framing.MSG_CONTROL:
                            self.control_multiplier = message.control()
                        elif message.type == framing.MSG_EOS:
                            self._draining = True
                # Service a whole run per wakeup, breaking out between
                # tuples the moment a heartbeat falls due so liveness is
                # never starved behind a large batch.
                while queue:
                    seq, cost, body, batched = queue.popleft()
                    realized = self._service(cost)
                    self.processed += 1
                    if batched:
                        pending.append((seq, realized, body))
                        if len(pending) >= RESULT_FLUSH_MAX:
                            sock.sendall(
                                framing.encode_result_batch(pending)
                            )
                            pending.clear()
                    else:
                        sock.sendall(
                            framing.encode_result(seq, realized, body)
                        )
                    if (
                        self.exit_after is not None
                        and self.processed >= self.exit_after
                    ):
                        # A crash stand-in: die with pending acks
                        # unsent, exactly like a SIGKILL mid-batch.
                        return self.exit_code
                    if time.monotonic() >= next_heartbeat:
                        break
        except (framing.TruncatedStreamError, OSError):
            # A torn parent stream / dead parent: nothing useful left to
            # do. Exit zero — the parent decides what this death means.
            return 0
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _on_sigterm(self, _signum, _frame) -> None:
        self._draining = True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.proc.worker",
        description="One worker process of the multi-process dataplane.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--worker-id", type=int, required=True)
    parser.add_argument("--incarnation", type=int, default=0)
    parser.add_argument("--multiplier", type=float, default=1.0)
    parser.add_argument("--heartbeat-interval", type=float, default=0.1)
    parser.add_argument("--mode", choices=("sleep", "spin"), default="sleep")
    parser.add_argument("--exit-after", type=int, default=None)
    parser.add_argument("--exit-code", type=int, default=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    worker = WorkerMain(
        args.host,
        args.port,
        args.worker_id,
        args.incarnation,
        multiplier=args.multiplier,
        heartbeat_interval=args.heartbeat_interval,
        mode=args.mode,
        exit_after=args.exit_after,
        exit_code=args.exit_code,
    )
    return worker.run()


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
