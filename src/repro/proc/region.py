"""The multi-process ordered region: splitter + merger in the parent.

Topology::

    caller thread --submit()--> weighted splitter --TCP--> worker procs
    one receiver thread: polls the listener and every worker wire; a
        new wire is admitted by its first message, which must be HELLO
    one short-lived thread per failover, and per parked replay a slot
        coming up releases: everything the receiver must not send
    supervisor monitor thread: liveness, restarts (repro.proc.supervisor)

Correctness invariants, in the order they matter:

1. *Bounded retransmit buffers.* Every tuple is registered in its
   worker's ``unacked`` map **before** the bytes hit the socket (for
   ``batch_size > 1``, before it even enters the slot's send outbox),
   and removed only when its RESULT arrives. A worker's window is
   capped at ``window`` in-flight tuples — buffered-but-unflushed
   tuples count — and the splitter blocks when its weighted choice is
   full. That wait, and the time a frame then spends parked on a full
   kernel buffer (§3 of the paper: a ``MSG_DONTWAIT`` send, then a
   timed wait; :func:`send_measured`), are both charged to the
   slot's blocking counter — one counter per connection, one episode
   per park — and that counter is the signal the balancer consumes,
   here as in the simulator.

2. *Exactly-once output across kills.* A global ``seq -> owner`` map
   dedupes: the first RESULT for a sequence wins, later ones (a replay
   racing the original worker's last breath) are dropped. On a death the
   dead slot's unacked tuples are replayed to survivors — or parked
   until a restart lands — so the merger always converges to the full
   gap-free sequence. The dead slot's outbox is discarded wholesale:
   everything in it is in ``unacked`` and re-batches through replay.

3. *No blocking sends under the region lock, no receiver waiting on a
   worker it reads.* Death handling collects replay entries under the
   lock but performs the sends outside it; a send that fails simply
   funnels into the same death path. Batch flushes pop a whole outbox
   under the region lock and ship it with one send-lock acquisition and
   one measured write outside it. The receiver reads every worker, so
   the failover of a wire it saw end, and of an idle flush it could not
   deliver, and the replay of tuples parked until a slot came up, run
   on a thread of its own. The receiver sends only the
   idle flush below: after taking that worker's send lock *without
   waiting*, and only a run popped while that worker owed nothing. A
   single-threaded worker that is blocked writing results is therefore
   never waited on by the one thread that reads them.

With ``batch_size=B > 1`` the splitter accumulates each worker's run in
its slot outbox, and ``B`` is a **cap, not a target**. A run leaves as a
single columnar ``DATA_BATCH`` frame when it reaches ``B`` (*full*);
when the splitter is about to block (*backpressure*), drain or close
(*drain*), or finish a failover (*failover*); and **whenever nothing of
that slot's is on the wire** (*idle*) — every unacked tuple of the slot
is still sitting in its outbox. The idle rule is checked at the two
places that can make it true: right after a tuple is appended (the
first tuple to an idle worker leaves at once) and right after a result
frame is absorbed (the ack that empties the wire releases whatever
accumulated behind it). That is Nagle's rule applied to runs: under
saturation acks are always outstanding, so frames still fill to ``B``;
at low load a tuple waits one round trip, not for ``B - 1`` successors.
There is no flush timer, and a source that pauses strands nothing — no
tuple ever sits in a buffer the worker cannot see while that worker's
wire is idle. A run that was popped but not yet sent is in ``unacked``
and not in the outbox, so it counts as in flight and an idle flush can
never overtake it. ``batch_size=1`` keeps the original
one-``DATA``-frame-per-tuple wire behavior byte for byte.

The ordered merger is a reorder buffer keyed on the global sequence
number; output order is submission order regardless of which worker
(or which incarnation of which worker) serviced each tuple.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.net import framing
from repro.net.blocking import BlockingCounter
from repro.proc.supervisor import (
    UP,
    QUARANTINED,
    STARTING,
    Supervisor,
    SupervisorConfig,
    WorkerSlot,
)
from repro.streams.splitter import RegionStalledError
from repro.util.validation import check_non_negative, check_positive

#: One pending flush: ``(slot index, incarnation, entries, reason)``.
_FlushOrder = tuple[int, int, list[tuple[int, float, bytes]], str]

#: Why a data frame left its outbox — the keys of
#: :attr:`ProcessRunStats.flushes_by_reason`.
FLUSH_REASONS = ("full", "idle", "backpressure", "drain", "failover")

#: The flag, not the socket's mode, makes one send non-blocking: the
#: receiver reads the same descriptor in blocking mode.
#: Where the platform lacks the flag, 0 leaves a plain blocking send.
_DONTWAIT = getattr(socket, "MSG_DONTWAIT", 0)

#: Seconds one frame may stay parked on a full kernel buffer before the
#: slot is handed to the death path.
SEND_STALL_TIMEOUT = 30.0


def send_measured(
    sock: socket.socket, frame: bytes, timeout: float
) -> tuple[bool, float]:
    """Write ``frame`` as §3 of the paper does; report the time blocked.

    One ``MSG_DONTWAIT`` attempt and, only when the kernel takes less
    than the whole frame, a timed wait for writability before each
    further piece. Returns ``(sent, blocked_seconds)``: 0.0 when the
    first attempt took everything, else the whole interval from that
    attempt until the frame was out or given up on — one episode however
    many pieces it took. ``sent`` is false after ``timeout`` blocked
    seconds, on a dead peer, and on a socket in error or closed under
    the wait (what a slot going down does to it).

    The paper reads the blocked time out of ``select``'s timeout; Python
    cannot, so the wait is timed with ``time.monotonic()``. It is
    ``poll`` rather than ``select``: the same wait with no 1 024
    descriptor ceiling, and one that reports a descriptor closed under
    it where older Linux ``select`` sleeps out the timeout.
    """
    try:
        sent = sock.send(frame, _DONTWAIT)
    except BlockingIOError:
        sent = 0
    except OSError:
        return False, 0.0
    if sent == len(frame):
        return True, 0.0
    started = time.monotonic()
    deadline = started + timeout
    rest = memoryview(frame)[sent:]
    try:
        writable = select.poll()
        writable.register(sock, select.POLLOUT)
        while rest:
            left = max(0.0, deadline - time.monotonic())
            events = writable.poll(left * 1000.0)
            if not events or events[0][1] != select.POLLOUT:
                break  # the deadline passed, or error / hang-up / closed
            try:
                rest = rest[sock.send(rest, _DONTWAIT):]
            except BlockingIOError:
                pass  # writable was a hint, not a promise
    except (OSError, ValueError):
        pass  # peer gone; ValueError: the socket was already closed
    return not rest, time.monotonic() - started


@dataclass(slots=True)
class ProcessRunStats:
    """Outcome of one process-backend run, in plain numbers."""

    #: Tuples submitted (sequence numbers issued).
    tuples: int
    #: Unique results delivered through the ordered merger.
    results: int
    #: Redundant results dropped by the seq->owner dedup.
    duplicates_dropped: int
    #: Tuples re-sent after a worker death.
    replayed: int
    #: Supervised restarts performed.
    restarts: int
    #: Slots permanently removed by the restart-budget circuit breaker.
    quarantined: list[int]
    #: Worker death episodes detected.
    episodes: int
    #: Fault-injection -> detection latency of the first episode (s).
    time_to_quarantine: float | None
    #: Detection -> service-restored latency of the first episode (s).
    time_to_reconverge: float | None
    #: Region-clock duration of the run.
    wall_seconds: float
    #: Results credited to each slot (all incarnations).
    per_worker_results: list[int]
    #: Splitter blocking charged to each slot, in seconds.
    blocked_seconds: list[float]
    #: ``(slot, signal)`` escalations needed at shutdown.
    escalated: list = field(default_factory=list)
    #: Wire frames written to worker sockets (all types).
    wire_frames_sent: int = 0
    #: Wire bytes written to worker sockets.
    wire_bytes_sent: int = 0
    #: Wire frames read from worker sockets (results, acks, beats).
    wire_frames_received: int = 0
    #: DATA/DATA_BATCH flushes performed (each is one frame written).
    data_flushes: int = 0
    #: Mean tuples per data flush (1.0 exactly when ``batch_size=1``).
    mean_batch_occupancy: float = 0.0
    #: Data flushes by what released them (keys: ``FLUSH_REASONS``):
    #: the run reached ``batch_size``; nothing of the worker's was on
    #: the wire; the splitter was about to block; drain/close; the
    #: trailing flush of a failover. Sums to ``data_flushes``.
    flushes_by_reason: dict[str, int] = field(default_factory=dict)


class ProcessRegion:
    """An ordered data-parallel region over real worker processes."""

    def __init__(
        self,
        n_workers: int,
        *,
        multipliers: Sequence[float] | None = None,
        window: int = 64,
        batch_size: int = 1,
        supervisor_config: SupervisorConfig | None = None,
        balancer=None,
        balancer_interval: float = 1.0,
        initial_weights: Sequence[float] | None = None,
        sink: Callable[[int, bytes], None] | None = None,
        host: str = "127.0.0.1",
    ) -> None:
        check_positive("n_workers", n_workers)
        check_positive("window", window)
        check_positive("batch_size", batch_size)
        check_positive("balancer_interval", balancer_interval)
        if multipliers is None:
            multipliers = [1.0] * n_workers
        if len(multipliers) != n_workers:
            raise ValueError(
                f"{len(multipliers)} multipliers for {n_workers} workers"
            )
        for j, m in enumerate(multipliers):
            check_positive(f"multipliers[{j}]", m)
        if balancer is not None and balancer.n_connections != n_workers:
            raise ValueError(
                f"balancer.n_connections={balancer.n_connections} for "
                f"{n_workers} workers"
            )
        self.n_workers = n_workers
        self.window = window
        self.batch_size = batch_size
        self.balancer = balancer
        self.balancer_interval = balancer_interval
        # Where merged results go: the caller's sink, else ``outputs``.
        self._sink = sink if sink is not None else (
            lambda seq, body: self.outputs.append((seq, body))
        )
        self.host = host
        self._lock = threading.RLock()
        self._cv = threading.Condition(self._lock)
        self.slots = [
            WorkerSlot(index=j, multiplier=float(m))
            for j, m in enumerate(multipliers)
        ]
        #: The paper's per-connection cumulative blocking counters,
        #: charged with real wall time the splitter spends blocked.
        self.block_counters = [BlockingCounter() for _ in range(n_workers)]
        # Routing weights: explicit override first, then balancer-solved,
        # then static speed-proportional (1/multiplier).
        if initial_weights is not None:
            if len(initial_weights) != n_workers:
                raise ValueError(
                    f"{len(initial_weights)} initial_weights for "
                    f"{n_workers} workers"
                )
            for j, w in enumerate(initial_weights):
                check_non_negative(f"initial_weights[{j}]", w)
            total = sum(initial_weights)
            if total <= 0:
                raise ValueError("initial_weights must sum to > 0")
            self._set_route_weights([w / total for w in initial_weights])
        elif balancer is not None:
            self._set_route_weights(balancer.weights)
        else:
            inv = [1.0 / m for m in multipliers]
            total = sum(inv)
            self._set_route_weights([w / total for w in inv])
        self._wrr = [0.0] * n_workers
        # The pick writes its candidate scores here and swaps the two
        # lists on success, so a blocked pick leaves ``_wrr`` untouched.
        self._wrr_next = [0.0] * n_workers
        self._last_balance = 0.0
        self._socks: list[socket.socket | None] = [None] * n_workers
        self._send_locks = [threading.Lock() for _ in range(n_workers)]
        # Wire accounting: one cell per worker out, each only ever
        # touched under that worker's send lock — no shared hot counter;
        # in, one count only the receiver touches.
        self._wire_frames_out = [0] * n_workers
        self._wire_bytes_out = [0] * n_workers
        self._wire_frames_in = 0
        self._data_flushes = [0] * n_workers
        self._data_tuples_flushed = [0] * n_workers
        self._flush_reasons = [
            dict.fromkeys(FLUSH_REASONS, 0) for _ in range(n_workers)
        ]
        # The one receiver, and the pair whose far end ``close`` hangs
        # up to stop it.
        self._receiver: threading.Thread | None = None
        self._wake: tuple[socket.socket, socket.socket] | None = None
        self._owner: dict[int, int] = {}
        self._parked: list[tuple[int, float, bytes]] = []
        # Slots whose multiplier was set while an incarnation released
        # with the old one was not yet admitted: it is sent on admission.
        self._control_owed: set[int] = set()
        # The reorder buffer: results parked until their predecessors.
        self._held: dict[int, bytes] = {}
        self._next_expected = 0
        self.outputs: list[tuple[int, bytes]] = []
        self._next_seq = 0
        self._results = 0
        self._duplicates = 0
        self._replayed = 0
        self._fatal: Exception | None = None
        self._closing = False
        self._started = False
        self._t0: float | None = None
        self._escalated: list[tuple[int, str]] = []
        self._obs = None
        self._blocking_hist = None
        self._occupancy_hist = None
        # Bind before the supervisor exists so spawns know the port
        # (``create_server`` sets SO_REUSEADDR on POSIX).
        self._listener_sock = socket.create_server(
            (host, 0), backlog=n_workers * 2
        )
        self.port = self._listener_sock.getsockname()[1]
        self.supervisor = Supervisor(
            self.slots,
            port=self.port,
            listener=self,
            lock=self._lock,
            clock=self.clock,
            config=supervisor_config,
            host=host,
        )

    # ----------------------------------------------------------------- clock

    def clock(self) -> float:
        """Region wall clock: seconds since :meth:`start` (0 before)."""
        return 0.0 if self._t0 is None else time.monotonic() - self._t0

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "ProcessRegion":
        if self._started:
            raise RuntimeError("region already started")
        self._started = True
        self._t0 = time.monotonic()
        self._wake = socket.socketpair()
        self._receiver = threading.Thread(
            target=self._receive_loop, name="repro-region-recv", daemon=True
        )
        self._receiver.start()
        self.supervisor.start()
        return self

    def wait_ready(self, timeout: float | None = None) -> "ProcessRegion":
        """Block until every live worker slot is connected and serving.

        Separates one-time warm-up (interpreter spawn, connect, HELLO)
        from steady-state operation: benchmarks start their clock after
        this returns, and callers that want the first ``submit`` to go
        straight onto a socket (instead of parking behind a spawning
        worker) call it too. Quarantined slots don't count — a region
        that lost slots permanently is still "ready" on the survivors.
        Raises ``TimeoutError`` if the deadline passes first.
        """
        if not self._started:
            raise RuntimeError("region not started")
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._cv:
            while True:
                if self._fatal is not None:
                    raise self._fatal
                live = [
                    s for s in self.slots if s.state != QUARANTINED
                ]
                if live and all(
                    s.state == UP
                    and self._socks[s.index] is not None
                    for s in live
                ):
                    return self
                # Every transition the predicate reads (socket attached,
                # slot up/down/quarantined, fatal) notifies ``_cv``, so
                # the only deadline is the caller's.
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            "workers did not all connect within "
                            f"{timeout}s"
                        )
                self._cv.wait(remaining)

    def submit(self, cost_seconds: float, body: bytes = b"") -> int:
        """Route one tuple; blocks on backpressure; returns its seq."""
        if not self._started:
            raise RuntimeError("region not started")
        return self._route_and_send(None, cost_seconds, body, replay=False)

    def drain(self, timeout: float | None = None) -> None:
        """Block until every submitted tuple's result has been merged.

        Flushes every partial send buffer on entry and on each wake: the
        idle rule alone would deliver the trailing runs one round trip
        at a time, and the caller has just said no more tuples are
        coming to fill them.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            # Outside the region lock: flushing performs socket sends.
            self._flush_outboxes("drain")
            with self._cv:
                if self._fatal is not None:
                    raise self._fatal
                if self._results >= self._next_seq:
                    return
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise RegionStalledError(
                        f"drain timed out with {self._results} of "
                        f"{self._next_seq} results after {timeout:g}s"
                    )
                # Woken by every absorbed result and every failure.
                self._cv.wait(remaining)

    def close(self) -> list[tuple[int, str]]:
        """Graceful shutdown: EOS to every live worker, then escalate.

        Returns the ``(slot, signal)`` escalations that were required;
        an empty list means every worker drained and exited on its own.
        """
        with self._cv:
            if self._closing:
                return list(self._escalated)
            self._closing = True
            self._cv.notify_all()
        # Ship any buffered partial batches before EOS so the drain
        # request never overtakes data on the same stream.
        self._flush_outboxes("drain")
        for slot in self.slots:
            if slot.state == UP:
                self._send_frame(slot.index, framing.encode_eos())
        self._escalated = self.supervisor.shutdown()
        with self._lock:
            socks = [sock for sock in self._socks if sock is not None]
            self._socks[:] = [None] * self.n_workers
        for sock in socks:
            self._hang_up(sock)
        if self._receiver is not None:
            # The hung-up wake wire stops the receiver, which closes
            # every worker socket it still holds; the listener it polls
            # is closed only after.
            self._wake[1].close()
            self._receiver.join(timeout=5.0)
            self._wake[0].close()
        self._listener_sock.close()
        return list(self._escalated)

    def run(
        self,
        costs: Sequence[float],
        *,
        bodies: Sequence[bytes] | None = None,
        timeout: float | None = None,
    ) -> ProcessRunStats:
        """Convenience: start if needed, submit all, drain, close."""
        if not self._started:
            self.start()
        try:
            for i, cost in enumerate(costs):
                self.submit(cost, b"" if bodies is None else bodies[i])
            self.drain(timeout=timeout)
        finally:
            self.close()
        return self.stats()

    def stats(self) -> ProcessRunStats:
        ledger = self.supervisor.ledger
        with self._lock:
            flushes = sum(self._data_flushes)
            flushed = sum(self._data_tuples_flushed)
            return ProcessRunStats(
                tuples=self._next_seq,
                results=self._results,
                duplicates_dropped=self._duplicates,
                replayed=self._replayed,
                restarts=self.supervisor.restarts,
                quarantined=self.supervisor.quarantined,
                episodes=len(ledger.episodes),
                time_to_quarantine=ledger.time_to_quarantine(),
                time_to_reconverge=ledger.time_to_reconverge(),
                wall_seconds=self.clock(),
                per_worker_results=[s.results for s in self.slots],
                blocked_seconds=[
                    c.lifetime_seconds for c in self.block_counters
                ],
                escalated=list(self._escalated),
                wire_frames_sent=sum(self._wire_frames_out),
                wire_bytes_sent=sum(self._wire_bytes_out),
                wire_frames_received=self._wire_frames_in,
                data_flushes=flushes,
                mean_batch_occupancy=(
                    flushed / flushes if flushes else 0.0
                ),
                flushes_by_reason={
                    reason: self._flushes(reason)
                    for reason in FLUSH_REASONS
                },
            )

    def _flushes(self, reason: str) -> int:
        """Data flushes released by ``reason``, over all workers."""
        return sum(cells[reason] for cells in self._flush_reasons)

    # --------------------------------------------------------------- control

    def send_control(self, index: int, multiplier: float) -> bool:
        """Set worker ``index``'s service-time multiplier, for good: later
        incarnations are released with it, the serving one gets a CONTROL
        frame (a starting one on admission). Whether a frame went out."""
        check_positive("multiplier", multiplier)
        slot = self.slots[index]
        with self._lock:
            slot.multiplier = multiplier
            if slot.state == STARTING:
                self._control_owed.add(index)
        return self._send_multiplier(index)

    def _send_multiplier(self, index: int) -> bool:
        """Send slot ``index``'s multiplier as read under its send lock,
        so of two racing sends the later one carries the latest value."""
        slot = self.slots[index]
        with self._send_locks[index]:
            frame = framing.encode_control(slot.multiplier)
            sent = self._write_frame(index, frame, 0, None)
        # This send may have made the receiver's idle flush stand down
        # (it never waits for the send lock) with no ack left to retry.
        self._flush_if_idle(slot, slot.incarnation)
        return sent

    @property
    def results(self) -> int:
        with self._lock:
            return self._results

    @property
    def emitted(self) -> int:
        """Tuples emitted by the ordered merger (gap-free prefix)."""
        with self._lock:
            return self._next_expected

    @property
    def held(self) -> int:
        """Results the ordered merger holds back for a predecessor."""
        return len(self._held)

    def attach_observability(self, hub) -> None:
        """Register region + supervisor instruments on ``hub``.

        Construct the hub with :meth:`clock` so span timestamps, metric
        snapshots, and the supervisor's ttq/ttr episodes all share the
        region wall clock.
        """
        self._obs = hub
        self.supervisor.attach_observability(hub)
        registry = hub.registry
        for name, read, text in (
            ("process_region_results_total", lambda: self._results,
             "Unique results merged"),
            ("process_region_replayed_total", lambda: self._replayed,
             "Tuples replayed after worker deaths"),
            ("process_region_duplicates_total", lambda: self._duplicates,
             "Redundant results dropped by dedup"),
            ("process_region_inflight",
             lambda: sum(len(s.unacked) for s in self.slots),
             "Tuples awaiting results across all workers"),
            ("process_region_wire_frames_sent_total",
             lambda: sum(self._wire_frames_out),
             "Wire frames written to worker sockets"),
            ("process_region_wire_bytes_sent_total",
             lambda: sum(self._wire_bytes_out),
             "Wire bytes written to worker sockets"),
            ("process_region_wire_frames_received_total",
             lambda: self._wire_frames_in,
             "Wire frames read from worker sockets"),
            ("process_region_data_flushes_total",
             lambda: sum(self._data_flushes),
             "DATA/DATA_BATCH flushes (one frame each)"),
        ):
            registry.gauge_fn(name, read, help=text)
        self._blocking_hist = registry.histogram(
            "process_region_block_seconds",
            help="Splitter blocking episode durations",
        )
        for reason in FLUSH_REASONS:
            registry.gauge_fn(
                "process_region_flushes_total",
                lambda reason=reason: self._flushes(reason),
                help="DATA/DATA_BATCH flushes by what released them",
                reason=reason,
            )
        self._occupancy_hist = registry.histogram(
            "process_region_batch_occupancy",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
            help="Tuples carried per flushed data frame",
        )

    # ---------------------------------------------- supervisor callbacks

    def on_slot_down(self, slot: WorkerSlot, reason: str) -> None:
        """Fail over: detach the socket, replay the dead slot's window.

        The slot's outbox is discarded outright — every buffered tuple
        is registered in ``unacked``, so the replay loop below re-routes
        (and re-batches) it; keeping the stale outbox would double-send
        on the slot's next incarnation.
        """
        with self._cv:
            sock = self._socks[slot.index]
            self._socks[slot.index] = None
            entries = sorted(
                (seq, cost, body)
                for seq, (cost, body) in slot.unacked.items()
            )
            slot.unacked.clear()
            slot.outbox = []
            for seq, _, _ in entries:
                self._owner.pop(seq, None)
            self._replayed += len(entries)
            self._cv.notify_all()
        if sock is not None:
            self._hang_up(sock)
        if not self._closing:
            self._replay(entries)

    def on_slot_up(self, slot: WorkerSlot) -> None:
        """A (re)connected worker is serving: replay the parked tuples.

        Called on the receiver, which sends nothing: the replay runs on
        a thread of its own.
        """
        with self._cv:
            parked, self._parked = self._parked, []
            self._cv.notify_all()
        if parked:
            self._fail_over(self._replay, sorted(parked))

    def _replay(self, entries: list[tuple[int, float, bytes]]) -> None:
        """Re-route tuples a dead worker held, then flush their runs.

        Replays re-batch through the survivors' outboxes; a trailing
        partial run must not wait out a round trip of unrelated traffic
        while the merger is stalled on exactly these tuples.
        """
        for seq, cost, body in entries:
            self._route_and_send(seq, cost, body, replay=True)
        self._flush_outboxes("failover")

    def on_slot_quarantined(self, slot: WorkerSlot) -> None:
        """The circuit breaker removed a slot: re-solve the weights."""
        with self._cv:
            if self.balancer is not None:
                if slot.index not in self.balancer.quarantined:
                    self.balancer.quarantine(slot.index)
                self._set_route_weights(self.balancer.weights)
            else:
                # Renormalize speed-proportional weights over survivors.
                live = [
                    s for s in self.slots if s.state != QUARANTINED
                ]
                if live:
                    inv = {s.index: 1.0 / s.multiplier for s in live}
                    total = sum(inv.values())
                    self._set_route_weights([
                        inv.get(j, 0.0) / total
                        for j in range(self.n_workers)
                    ])
            if all(s.state == QUARANTINED for s in self.slots):
                self._fatal = RegionStalledError(
                    "every worker slot exhausted its restart budget; "
                    "the region cannot make progress"
                )
            self._cv.notify_all()

    # -------------------------------------------------------------- routing

    def _set_route_weights(self, weights: Sequence[float]) -> None:
        """Install routing weights, floored so no serving slot starves."""
        self._route_weights = [max(float(w), 1e-9) for w in weights]

    def _pick_locked(self) -> tuple[WorkerSlot | None, int | None]:
        """Smooth weighted round-robin over serving slots.

        Returns ``(slot, None)`` on success. When the weighted choice's
        retransmit window is full, returns ``(None, index)`` without
        mutating scheduler state — the caller blocks on that slot (the
        paper's blocking signal) and retries the identical choice.
        Returns ``(None, None)`` when no slot is serving at all.

        One pass: every slot's next score lands in the spare list, which
        becomes the live one only when the pick succeeds.
        """
        wrr = self._wrr
        scores = self._wrr_next
        weights = self._route_weights
        socks = self._socks
        total = 0.0
        best = None
        best_score = 0.0
        for i, s in enumerate(self.slots):
            score = wrr[i]
            if s.state == UP and socks[i] is not None:
                w = weights[i]
                total += w
                score += w
                if best is None or score > best_score:
                    best, best_score = s, score
            scores[i] = score
        if best is None:
            return None, None
        if len(best.unacked) >= self.window:
            return None, best.index
        scores[best.index] = best_score - total
        self._wrr, self._wrr_next = scores, wrr
        return best, None

    def _route_and_send(
        self, seq: int | None, cost: float, body: bytes, *, replay: bool
    ) -> int:
        """Route one tuple into its worker's run; flush when it is due."""
        seq, order = self._route_one(seq, cost, body, replay=replay)
        if order is not None:
            self._dispatch_entries(*order)
        return seq

    def _route_one(
        self, seq: int | None, cost: float, body: bytes, *, replay: bool
    ) -> tuple[int, _FlushOrder | None]:
        """Pick a worker and buffer one tuple, blocking on backpressure.

        ``seq=None`` issues the next sequence number under the same lock
        acquisition that routes it. Returns the tuple's seq and, when
        the chosen slot's run is due — it reached ``batch_size``
        (always, at B=1) or nothing else of that slot's is on the wire —
        a flush order for the caller to send outside the lock; ``None``
        when the tuple is parked or left buffered behind a frame in
        flight, whose ack will release it. Before the caller ever blocks
        waiting for window space, every non-empty outbox is flushed — a
        buffered tuple cannot be acked, so waiting on it without
        flushing would deadlock.

        Replays never block: a full window is tolerated (transiently up
        to 2x bounded) and a dead region parks the tuple for the next
        slot-up instead of wedging a supervisor callback thread.
        """
        block_started: float | None = None
        block_slot: int | None = None
        # Only a splitter that actually blocks needs a deadline (or the
        # clock read behind it).
        stall_deadline: float | None = None
        while True:
            # The bare RLock ``_cv`` wraps: ``_cv.wait`` below works.
            with self._lock:
                if self._fatal is not None:
                    raise self._fatal
                if self._closing and not replay:
                    raise RuntimeError("region is closing")
                if seq is None:
                    seq = self._next_seq
                    self._next_seq += 1
                if self.balancer is not None:
                    self._maybe_rebalance_locked()
                slot, blocked_on = self._pick_locked()
                if slot is None and replay:
                    if blocked_on is not None:
                        # Over-commit the window rather than block a
                        # failover path.
                        slot = self.slots[blocked_on]
                    else:
                        self._parked.append((seq, cost, body))
                        return seq, None
                if slot is not None:
                    if block_started is not None:
                        self._charge_block(
                            block_slot, time.monotonic() - block_started
                        )
                    slot.unacked[seq] = (cost, body)
                    self._owner[seq] = slot.index
                    run = slot.outbox
                    run.append((seq, cost, body))
                    if len(run) >= self.batch_size:
                        reason = "full"
                    elif len(slot.unacked) <= len(run):
                        # Everything this slot owes is in ``run``: its
                        # wire is idle, so holding the tuple back would
                        # buy nothing but latency.
                        reason = "idle"
                    else:
                        return seq, None
                    slot.outbox = []
                    return seq, (slot.index, slot.incarnation, run, reason)
                now = time.monotonic()
                if blocked_on is not None:
                    if block_started is None or block_slot != blocked_on:
                        if block_started is not None:
                            self._charge_block(
                                block_slot, now - block_started
                            )
                        block_started = now
                        block_slot = blocked_on
                elif block_started is not None:
                    # An outage (no serving slot) is downtime, not
                    # backpressure: close the blocking episode.
                    self._charge_block(block_slot, now - block_started)
                    block_started = None
                if stall_deadline is None:
                    stall_deadline = now + SEND_STALL_TIMEOUT
                elif now > stall_deadline:
                    raise RegionStalledError(
                        f"no worker accepted seq {seq} within "
                        f"{SEND_STALL_TIMEOUT:g}s "
                        f"(blocked_on={blocked_on})"
                    )
                to_flush = self._pop_outboxes_locked("backpressure")
                if not to_flush:
                    # Every way out — an ack shrinking a window, a slot
                    # coming up, going down or being quarantined, close,
                    # fatal — notifies ``_cv``; the only timeout is the
                    # stall deadline itself.
                    self._cv.wait(stall_deadline - now)
                    continue
            # Socket I/O strictly outside the region lock: ship every
            # pending run so acks can free the window, then retry the
            # same routing choice.
            for order in to_flush:
                self._dispatch_entries(*order)

    # ------------------------------------------------------------- flushing

    def _pop_outboxes_locked(self, reason: str) -> list[_FlushOrder]:
        """Take every non-empty outbox (lock held); sends happen later."""
        orders = []
        for slot in self.slots:
            if slot.outbox:
                entries, slot.outbox = slot.outbox, []
                orders.append(
                    (slot.index, slot.incarnation, entries, reason)
                )
        return orders

    def _flush_outboxes(self, reason: str) -> None:
        """Flush every buffered partial run (no region lock held)."""
        with self._lock:
            orders = self._pop_outboxes_locked(reason)
        for order in orders:
            self._dispatch_entries(*order)

    def _flush_if_idle(self, slot: WorkerSlot, incarnation: int) -> None:
        """The ack half of the idle rule: release the run behind an ack.

        Runs on the receiver, the one thread a worker blocked writing
        results is waiting on. So it never waits for the send lock (its
        holder is putting a frame on this wire, whose own ack re-runs
        this check); it re-tests the wire under the region lock; and it
        writes only to a worker that owes nothing, so is not stuck
        writing results. Its one possible wait is a frame to a stopped
        worker that does not fit the free kernel buffer, which heartbeat
        detection ends. A send it cannot complete fails over on a
        thread of its own.

        In flight means unacked and no longer in the outbox — sent, or
        popped and about to be. The test is ``<=`` rather than ``==``:
        an outbox entry whose result already arrived by another road (a
        dying incarnation's last frame racing the replay) is in the
        outbox but not in ``unacked``, and must not disable the rule.
        """
        send_lock = self._send_locks[slot.index]
        if not send_lock.acquire(blocking=False):
            return
        try:
            with self._lock:
                entries = slot.outbox
                if (
                    not entries
                    or len(slot.unacked) > len(entries)
                    or incarnation != slot.incarnation
                ):
                    return
                slot.outbox = []
            sent = self._write_frame(
                slot.index, self._encode_run(entries), len(entries), "idle"
            )
        finally:
            send_lock.release()
        if not sent:
            self._fail_over(
                self._send_failed, slot.index, incarnation, entries
            )

    def _dispatch_entries(
        self,
        index: int,
        incarnation: int,
        entries: list[tuple[int, float, bytes]],
        reason: str,
    ) -> None:
        """One flush: one frame, one send lock, one measured write."""
        frame = self._encode_run(entries)
        if not self._send_frame(index, frame, len(entries), reason):
            self._send_failed(index, incarnation, entries)

    def _send_failed(
        self,
        index: int,
        incarnation: int,
        entries: list[tuple[int, float, bytes]],
    ) -> None:
        """A failed send is a death; re-route what its failover missed.

        The failover replays everything it finds in ``unacked``. Entries
        it did *not* see (we registered after a concurrent death was
        handled) are reclaimed here and re-routed — as replays, so a
        closing or dead region can park them instead of blocking.
        """
        self.supervisor.declare_dead(
            index, "send failed", incarnation=incarnation
        )
        stranded = []
        with self._cv:
            for seq, cost, body in entries:
                if self._owner.get(seq) == index:
                    self._owner.pop(seq)
                    self.slots[index].unacked.pop(seq, None)
                    stranded.append((seq, cost, body))
            if stranded:
                self._cv.notify_all()
        for seq, cost, body in stranded:
            self._route_and_send(seq, cost, body, replay=True)

    def _encode_run(self, entries: list[tuple[int, float, bytes]]) -> bytes:
        """Encode one run as a single frame."""
        if self.batch_size == 1 and len(entries) == 1:
            # Byte-identical to the unbatched protocol: golden tests at
            # B=1 pin this wire format.
            return framing.encode_data(*entries[0])
        return framing.encode_data_batch(entries)

    def _charge_block(self, slot_index: int, duration: float) -> None:
        """Close one blocking episode, window-full or send-full (lock held)."""
        self.block_counters[slot_index].add(duration)
        if self._obs is not None:
            end = self.clock()
            self._obs.tracer.record(
                "blocking", end - duration, end, channel=slot_index
            )
            if self._blocking_hist is not None:
                self._blocking_hist.observe(duration)

    def _maybe_rebalance_locked(self) -> None:
        """Feed the blocking counters to the balancer once per interval."""
        now = self.clock()
        if now - self._last_balance < self.balancer_interval:
            return
        self._last_balance = now
        weights = self.balancer.update(
            now, [c.read() for c in self.block_counters]
        )
        if weights is not None:
            self._set_route_weights(weights)

    # ------------------------------------------------------------ transport

    def _send_frame(
        self,
        index: int,
        frame: bytes,
        tuples: int = 0,
        reason: str | None = None,
    ) -> bool:
        """Ship one frame; ``tuples > 0`` marks it as a data flush."""
        with self._send_locks[index]:
            return self._write_frame(index, frame, tuples, reason)

    def _write_frame(
        self, index: int, frame: bytes, tuples: int, reason: str | None
    ) -> bool:
        """The one place a byte leaves for a worker (send lock held).

        Time parked on a full kernel buffer is charged like a full
        window; the region lock, under which the balancer reads the
        counter, is taken only when there is something to charge.
        """
        sock = self._socks[index]
        if sock is None:
            return False
        sent, blocked = send_measured(sock, frame, SEND_STALL_TIMEOUT)
        if blocked:
            with self._lock:
                self._charge_block(index, blocked)
        if not sent:
            return False
        # Wire accounting under the send lock: per-worker cells, so
        # concurrent flushes to different workers never contend.
        self._wire_frames_out[index] += 1
        self._wire_bytes_out[index] += len(frame)
        if tuples:
            self._data_flushes[index] += 1
            self._data_tuples_flushed[index] += tuples
            self._flush_reasons[index][reason] += 1
            if self._occupancy_hist is not None:
                self._occupancy_hist.observe(tuples)
        return True

    def _admit(
        self, conn: socket.socket, hello: framing.Message
    ) -> tuple[WorkerSlot, int] | None:
        """Attach a new wire by its first message; ``None`` refuses it.

        Only a HELLO the supervisor accepts attaches; anything else
        (another message type, an unknown worker, a HELLO it refuses, a
        region closing) leaves every slot as it was.
        """
        if hello.type != framing.MSG_HELLO:
            return None
        try:
            worker_id, incarnation = hello.hello()
        except struct.error:
            return None
        if not 0 <= worker_id < self.n_workers:
            return None
        with self._lock:
            # One hold: nobody sees the slot UP without its socket.
            if self._closing or not self.supervisor.on_connected(
                worker_id, incarnation
            ):
                return None
            self._socks[worker_id] = conn
            owed = worker_id in self._control_owed
            self._control_owed.discard(worker_id)
        if owed:
            self._fail_over(self._send_multiplier, worker_id)
        return self.slots[worker_id], incarnation

    def _hang_up(self, sock: socket.socket) -> None:
        """End a worker connection. A running receiver alone closes what
        it polls (a descriptor closed under its poll could come back as
        the next connection's); anyone else shuts down, which it sees."""
        try:
            if self._receiver is None:
                sock.close()
            else:
                sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already ended

    def _fail_over(self, target: Callable, *args, **kwargs) -> None:
        """Run a death path, a replay or an owed CONTROL off the
        receiver: its sends may wait on a worker blocked writing results
        only the receiver reads."""
        threading.Thread(
            target=target, args=args, kwargs=kwargs,
            name="repro-region-failover",
            daemon=True,
        ).start()

    def _receive_loop(self) -> None:
        """The one receiver: the listener and every wire under one ``poll``.

        A readable listener gets one ``accept``: a new wire, with no
        slot until its first message attaches it (:meth:`_admit`). A
        readable wire gets one ``recv``, fed to its assembler and
        handled here. A wire that ends — EOF, a torn frame, an error, a
        refused first message — is unregistered and closed here; an
        attached one's failover runs off this thread. EOF on the wake
        wire is :meth:`close` saying stop.
        """
        wake = self._wake[0]
        listener = self._listener_sock
        listener.setblocking(False)
        poller = select.poll()
        poller.register(wake, select.POLLIN)
        poller.register(listener, select.POLLIN)
        # fd -> (slot, conn, assembler, incarnation); the slot is None
        # until the wire's HELLO.
        wires: dict[int, tuple] = {}
        accepting = listener.fileno()
        while True:
            for fd, _events in poller.poll():
                wire = wires.get(fd)
                if wire is None and fd == accepting:
                    try:
                        conn, _ = listener.accept()
                    except OSError:
                        continue  # the peer gave up before the accept
                    conn.setblocking(True)
                    try:
                        conn.setsockopt(
                            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                        )
                    except OSError:  # pragma: no cover - reset already
                        conn.close()
                        continue
                    wires[conn.fileno()] = (
                        None, conn, framing.MessageAssembler(), -1
                    )
                    poller.register(conn, select.POLLIN)
                    continue
                if wire is None:  # the wake wire: stop
                    for _, conn, _, _ in wires.values():
                        conn.close()
                    return
                slot, conn, assembler, incarnation = wire
                torn = None
                try:
                    chunk = conn.recv(65536)
                    if chunk:
                        messages = assembler.feed(chunk)
                        self._wire_frames_in += len(messages)
                        if slot is None and messages:
                            admitted = self._admit(conn, messages.pop(0))
                            if admitted is None:
                                messages = None  # refused: the wire ends
                            else:
                                slot, incarnation = admitted
                                wires[fd] = (
                                    slot, conn, assembler, incarnation
                                )
                        if messages is not None:
                            for message in messages:
                                self._handle_message(
                                    slot, incarnation, message
                                )
                            continue
                    else:
                        assembler.eof()  # raises if the peer died mid-frame
                except framing.TruncatedStreamError as exc:
                    torn = str(exc)
                except OSError:
                    pass
                except Exception as exc:  # noqa: BLE001 - the sink raised
                    # The merge stopped half way: nothing more can be
                    # emitted in order, and every waiter says so.
                    with self._lock:
                        self._fatal = exc
                        self._cv.notify_all()
                    continue
                poller.unregister(fd)
                del wires[fd]
                if slot is None:  # never attached: nothing to fail over
                    conn.close()
                    continue
                with self._lock:
                    if self._socks[slot.index] is conn:
                        self._socks[slot.index] = None
                conn.close()
                if not self._closing and slot.incarnation == incarnation:
                    self._fail_over(
                        self.supervisor.declare_dead, slot.index,
                        torn or "connection lost", incarnation=incarnation,
                    )

    def _handle_message(
        self, slot: WorkerSlot, incarnation: int, message: framing.Message
    ) -> None:
        kind = message.type
        if kind == framing.MSG_RESULT_BATCH:
            # One cumulative ack run. A replayed batch overlapping
            # already-acked seqs dedupes entry by entry — first result
            # wins, the rest count as duplicates.
            entries = message.result_batch()
        elif kind == framing.MSG_RESULT:
            entries = (message.result(),)
        elif kind == framing.MSG_HEARTBEAT:
            _processed, beat_incarnation = message.heartbeat()
            self.supervisor.heartbeat(slot.index, beat_incarnation)
            return
        elif kind == framing.MSG_BYE:
            self.supervisor.heartbeat(slot.index, incarnation)
            return
        else:
            # HELLO/DATA/CONTROL/EOS are parent->worker or handled at
            # admit.
            return
        owners = self._owner
        slots = self.slots
        pending = self._held
        sink = self._sink
        # The whole run in one pass under one lock acquisition: dedup,
        # unacked, merge; then one wakeup and one liveness refresh.
        with self._lock:
            expected = self._next_expected
            credited = 0
            for seq, _service, body in entries:
                owner = owners.pop(seq, None)
                if owner is None:
                    continue  # first result won
                slots[owner].unacked.pop(seq, None)
                credited += 1
                if seq != expected:
                    pending[seq] = body
                    continue
                sink(seq, body)
                expected += 1
                while expected in pending:
                    sink(expected, pending.pop(expected))
                    expected += 1
            self._next_expected = expected
            slot.results += credited
            self._results += credited
            self._duplicates += len(entries) - credited
            self._cv.notify_all()
            # The supervisor's lock is this (reentrant) one: refreshing
            # liveness here saves the second acquisition per frame.
            self.supervisor.heartbeat(slot.index, incarnation)
            run = slot.outbox
            idle = run and len(slot.unacked) <= len(run)
        if idle:
            # The ack that emptied the wire releases the run behind it.
            self._flush_if_idle(slot, incarnation)
