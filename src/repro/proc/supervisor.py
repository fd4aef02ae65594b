"""The supervisor: it owns the worker processes, nothing else does.

Lifecycle per slot::

    release -> STARTING -> (HELLO over TCP) -> UP
        UP -> DOWN on: dead socket | missed heartbeats | nonzero exit
        DOWN -> STARTING once the failover is done (the old connection
                detached, its unacked tuples collected): at once for a
                slot that connected since its last failure, else at
                ``restart_at``, after capped jittered exponential
                backoff. The release takes the region's spare (booted,
                its wire open, parked on its stdin) if it is alive, else
                launches an interpreter; it hands that process the
                slot's identity line, and the HELLO follows on the wire
                the process opened at boot. A launch that fails leaves
                the slot DOWN, retried after the crash-loop backoff
        DOWN -> QUARANTINED when the restart budget for the window is
                spent (the circuit breaker: a crash-looping worker must
                not be restarted forever while it drags the region's
                tail latency with it); nothing is released

    spare: launched by the monitor once the region has lost a worker
           and every live slot is UP, taken by the next release,
           launched again after each take

A restart's interpreter is started ahead of the restart where it can
be: the spare boots and connects while the region serves, and the
release that takes it only writes one line to its stdin and closes it.
The launch (``Popen`` of ``python -m repro.proc.worker --host H --port
P``, the listener's address, fixed for the region's life) always runs
outside the region lock; the one receiver holds a launched process's
wire unattached until its HELLO. The incarnation begins at the
release: the incarnation bump, the restart budget, ``spawned_at`` (and
with it ``SPAWN_GRACE``), the ``STARTING`` state and the ``restart``
span all date from it. :meth:`Supervisor.start` releases every slot the
same way, each with a fresh launch. The backoff only throttles a slot
failing again before its HELLO: a serving worker's replacement is
released as soon as its failover returns. The monitor thread is the
only releaser and the only owner of the spare; it sleeps until its next
tick or the earliest due release, and a death wakes it. Releasing no
earlier than the failover's return is what keeps a new incarnation's
HELLO from arriving while the region still holds its predecessor's
socket and window.

Detection is three-pronged and any prong fires the same path:
``Popen.poll`` catches exits, the heartbeat deadline catches frozen
processes (``SIGSTOP``) and wedged loops, and the receiver's socket EOF
catches kills between heartbeats. All timestamps come from the region's
shared wall clock. The recovery episodes live in a
:class:`~repro.faults.recovery.RecoveryLedger`, the same bookkeeper the
simulator's coordinator holds, so ttq/ttr numbers and the episode spans
(``detection``/``quarantine``/``reconvergence``) mean the same on both
backends. A slot's episode closes and settles at once when its
replacement connects: service restored is reconvergence here. The
``restart`` span is the supervisor's own.

The supervisor never touches routing or buffers: on every transition it
calls back into its listener (the
:class:`~repro.proc.region.ProcessRegion`), which re-solves weights and
replays unacknowledged tuples. The split keeps the process-management
state machine testable without a dataplane attached.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.faults.recovery import ChannelRecovery, RecoveryLedger
from repro.util.validation import check_positive

#: Slot states.
STARTING = "starting"
UP = "up"
DOWN = "down"
QUARANTINED = "quarantined"

#: A spawned process must connect + HELLO within this many seconds.
SPAWN_GRACE = 10.0
#: Graceful-drain deadline at shutdown before escalating to SIGTERM.
DRAIN_TIMEOUT = 5.0
#: Post-SIGTERM grace before SIGKILL.
TERM_GRACE = 1.0
#: Sliding window for the restart budget, in seconds.
RESTART_WINDOW = 30.0


@dataclass(slots=True, frozen=True)
class SupervisorConfig:
    """Tunables for liveness detection and supervised restart."""

    #: Seconds between worker heartbeats on the data channel.
    heartbeat_interval: float = 0.1
    #: Silence (no heartbeat, no result) that declares a worker dead.
    heartbeat_timeout: float = 1.0
    #: Monitor thread tick.
    monitor_interval: float = 0.05
    #: Backoff before the release after a second consecutive failure
    #: without a HELLO; doubles per further one. A slot's first failure
    #: since it last connected waits for no backoff: a serving worker's
    #: replacement is released as soon as its failover is done.
    backoff_start: float = 0.05
    #: Backoff cap.
    backoff_max: float = 2.0
    #: Fraction of each backoff randomized away (full-jitter style).
    backoff_jitter: float = 0.5
    #: Restarts allowed within :data:`RESTART_WINDOW` before the circuit
    #: breaker quarantines the slot permanently.
    restart_budget: int = 5
    #: Worker service mode: ``"sleep"`` (cheap) or ``"spin"`` (burn CPU).
    worker_mode: str = "sleep"
    #: Seed for the backoff jitter (reproducible restart timing).
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("heartbeat_interval", self.heartbeat_interval)
        check_positive("heartbeat_timeout", self.heartbeat_timeout)
        check_positive("monitor_interval", self.monitor_interval)
        check_positive("backoff_start", self.backoff_start)
        check_positive("backoff_max", self.backoff_max)
        check_positive("restart_budget", self.restart_budget)
        if self.heartbeat_timeout <= self.heartbeat_interval:
            # Silence that short passes between two healthy beats.
            raise ValueError(
                f"heartbeat_timeout ({self.heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval})"
            )
        if self.backoff_max < self.backoff_start:
            # Every backoff would be capped below its configured start.
            raise ValueError(
                f"backoff_max ({self.backoff_max}) must be at least "
                f"backoff_start ({self.backoff_start})"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        if self.worker_mode not in ("sleep", "spin"):
            raise ValueError(f"unknown worker_mode {self.worker_mode!r}")


@dataclass(slots=True)
class WorkerSlot:
    """One worker position in the region, across all its incarnations.

    Everything but the index and the multiplier is state the supervisor
    and the region keep, not a setting.
    """

    index: int
    #: Service-time multiplier (heterogeneous capacity), passed to spawns.
    multiplier: float = 1.0
    state: str = field(init=False, default=DOWN)
    #: The current incarnation's process, set at its release.
    process: subprocess.Popen | None = field(init=False, default=None)
    #: Bumps on every release; stale connections/heartbeats are rejected.
    incarnation: int = field(init=False, default=-1)
    #: Region-clock time of the last heartbeat or result.
    last_seen: float = field(init=False, default=0.0)
    spawned_at: float = field(init=False, default=0.0)
    #: When a DOWN slot is due for release, once its failover is done.
    restart_at: float = field(init=False, default=0.0)
    #: Releases after the first (i.e. supervised restarts).
    restarts: int = field(init=False, default=0)
    #: Consecutive failures since the last healthy connect (backoff arg).
    consecutive_failures: int = field(init=False, default=0)
    #: Region-clock times of recent restarts (budget window).
    restart_times: deque = field(init=False, default_factory=deque)
    #: Unacknowledged in-flight tuples: seq -> (cost_seconds, body).
    #: Owned and mutated by the region under its lock; lives here so a
    #: slot's retransmit state travels with its lifecycle.
    unacked: dict = field(init=False, default_factory=dict)
    #: Routed-but-unflushed tuples awaiting the next batched wire flush:
    #: ``(seq, cost_seconds, body)`` in routing order. Every entry is
    #: already registered in ``unacked`` (the retransmit contract covers
    #: buffered tuples), so a death simply discards the outbox — the
    #: replay path re-batches from ``unacked``. Region-lock discipline
    #: matches ``unacked``.
    outbox: list = field(init=False, default_factory=list)
    #: Results credited to this slot (across incarnations).
    results: int = field(init=False, default=0)

    @property
    def pid(self) -> int | None:
        return None if self.process is None else self.process.pid

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class Supervisor:
    """Spawns, watches, restarts, and quarantines the worker processes."""

    def __init__(
        self,
        slots: list[WorkerSlot],
        *,
        port: int,
        listener,
        lock: threading.RLock,
        clock: Callable[[], float],
        config: SupervisorConfig | None = None,
        host: str = "127.0.0.1",
    ) -> None:
        if not slots:
            raise ValueError("need at least one worker slot")
        self.slots = slots
        self.port = port
        self.host = host
        #: The region: gets on_slot_down / on_slot_up / on_slot_quarantined.
        self.listener = listener
        self.lock = lock
        self.clock = clock
        self.config = config or SupervisorConfig()
        self._rng = random.Random(self.config.seed)
        #: Death episodes and their ttq anchors; touched under the lock.
        self.ledger = RecoveryLedger()
        self._monitor: threading.Thread | None = None
        self._stop = threading.Event()
        #: Set by a finished failover (and by shutdown): wakes the monitor.
        self._kick = threading.Event()
        self._obs = None
        #: Slots whose failover is in flight (outside the lock): none of
        #: them is released before it returns.
        self._failing: set[int] = set()
        #: One booted interpreter parked ahead of the next release; only
        #: the monitor (and shutdown, after it) touches it.
        self._spare: subprocess.Popen | None = None
        self._spawn_env = self._build_env()

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Release every slot; start the monitor thread."""
        if self._monitor is not None:
            raise RuntimeError("supervisor already started")
        for slot in self.slots:
            self._release(slot)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-supervisor", daemon=True
        )
        self._monitor.start()

    def shutdown(self) -> list[tuple[int, str]]:
        """Stop monitoring and bring every process down.

        Assumes the region already sent EOS (graceful drain); waits
        ``DRAIN_TIMEOUT`` for clean exits, then escalates SIGTERM ->
        (``TERM_GRACE``) -> SIGKILL. The spare gets EOF on its stdin
        instead and exits 0. Returns ``(slot index, how)`` for every
        process that needed escalation; the spare, which belongs to no
        slot, reports as -1.
        """
        self._stop.set()
        self._kick.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        # A launch finishing after this point sees ``_stop`` and
        # dismisses its own process.
        with self.lock:
            spare, self._spare = self._spare, None
        escalated: list[tuple[int, str]] = []
        deadline = time.monotonic() + DRAIN_TIMEOUT
        procs = [
            (s.index, s.process) for s in self.slots if s.process is not None
        ]
        # Only UP slots received EOS and will exit on their own; a
        # replacement still STARTING (or a slot already DOWN) has
        # nothing to drain, so waiting the drain window on it would
        # stall every close that races a pending restart.
        drainable = [
            process for index, process in procs
            if self.slots[index].state == UP
        ]
        if spare is not None:
            spare.stdin.close()
            procs.append((-1, spare))
            drainable.append(spare)
        while time.monotonic() < deadline:
            if all(process.poll() is not None for process in drainable):
                break
            time.sleep(0.01)
        for index, process in procs:
            if process.poll() is None:
                escalated.append((index, "sigterm"))
                self._signal(process, "SIGCONT")  # a stopped process
                self._signal(process, "SIGTERM")  # cannot handle SIGTERM
        term_deadline = time.monotonic() + TERM_GRACE
        while time.monotonic() < term_deadline:
            if all(process.poll() is not None for _, process in procs):
                break
            time.sleep(0.01)
        for index, process in procs:
            if process.poll() is None:
                escalated.append((index, "sigkill"))
                process.kill()
        for _, process in procs:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
        return escalated

    # -------------------------------------------------------------- actions

    def note_fault(self, index: int) -> None:
        """Record an injected fault now: the ttq anchor for ``index``."""
        with self.lock:
            self.ledger.note_fault(index, self.clock())

    def declare_dead(
        self, index: int, reason: str, *, incarnation: int | None = None
    ) -> bool:
        """Fail slot ``index`` over: kill remains, schedule the restart.

        The restart is due after the listener's failover returns, and
        not before ``restart_at``. Idempotent per incarnation — the
        three detection prongs and the splitter's send-failure path all
        funnel here, and only the first caller acts. Returns whether
        this call performed the failover.
        """
        slot = self.slots[index]
        quarantined = False
        with self.lock:
            if incarnation is not None and incarnation != slot.incarnation:
                return False
            if slot.state in (DOWN, QUARANTINED):
                return False
            now = self.clock()
            self.ledger.open(index, now, reason=reason)
            # The process may be SIGSTOPped, half-dead, or already gone;
            # SIGKILL is the one terminator that covers all three.
            if slot.process is not None and slot.process.poll() is None:
                slot.process.kill()
            window_start = now - RESTART_WINDOW
            while slot.restart_times and slot.restart_times[0] < window_start:
                slot.restart_times.popleft()
            if len(slot.restart_times) >= self.config.restart_budget:
                slot.state = QUARANTINED
                quarantined = True
            else:
                slot.state = DOWN
                self._back_off(slot, now)
                self._failing.add(index)
            if self._obs is not None:
                self._obs.event(
                    "fault", kind="worker_dead", channel=index, detail=reason
                )
        # Without the lock: replay sends may block.
        try:
            self.listener.on_slot_down(slot, reason)
        finally:
            with self.lock:
                self._failing.discard(index)
            self._kick.set()
        if quarantined:
            self.listener.on_slot_quarantined(slot)
        return True

    def on_connected(self, index: int, incarnation: int) -> bool:
        """A worker's HELLO arrived; accept or reject the connection.

        Accepts only the current incarnation of a STARTING slot: not a
        zombie from before a kill, nor a slot that is quarantined, down
        or already serving. On acceptance the slot turns UP, the open
        episode closes and settles (capacity is back; the balancer, if
        any, keeps refining weights), and the region reintegrates the
        slot.
        """
        slot = self.slots[index]
        with self.lock:
            if incarnation != slot.incarnation or slot.state != STARTING:
                return False
            now = self.clock()
            slot.state = UP
            slot.last_seen = now
            slot.consecutive_failures = 0
            self.ledger.close(index, now, settled=True)
            if self._obs is not None and slot.incarnation > 0:
                self._obs.tracer.record(
                    "restart", slot.spawned_at, now,
                    channel=index, incarnation=slot.incarnation,
                )
        self.listener.on_slot_up(slot)
        return True

    def heartbeat(self, index: int, incarnation: int) -> None:
        """Refresh liveness (heartbeats and results both count)."""
        slot = self.slots[index]
        with self.lock:
            if incarnation == slot.incarnation:
                slot.last_seen = self.clock()

    def kill(self, index: int, sig: int) -> bool:
        """Deliver a raw signal to the slot's live process (fault driver)."""
        slot = self.slots[index]
        with self.lock:
            process = slot.process
        if process is None or process.poll() is not None:
            return False
        try:
            os.kill(process.pid, sig)
        except (OSError, ProcessLookupError):  # pragma: no cover - race
            return False
        return True

    # -------------------------------------------------------------- metrics

    @property
    def restarts(self) -> int:
        """Supervised restarts performed (spawns after the first)."""
        return sum(slot.restarts for slot in self.slots)

    @property
    def episodes(self) -> list[ChannelRecovery]:
        """Death episodes so far, in detection order."""
        return self.ledger.episodes

    @property
    def quarantined(self) -> list[int]:
        """Slots the circuit breaker took out of rotation."""
        return [s.index for s in self.slots if s.state == QUARANTINED]

    def attach_observability(self, hub) -> None:
        """Register supervision instruments on ``hub``; trace episodes."""
        self._obs = hub
        self.ledger.tracer = hub.tracer
        registry = hub.registry
        registry.gauge_fn(
            "supervisor_restarts_total",
            lambda: self.restarts,
            help="Supervised worker restarts",
        )
        registry.gauge_fn(
            "supervisor_quarantined_slots",
            lambda: len(self.quarantined),
            help="Slots removed by the restart-budget circuit breaker",
        )
        registry.gauge_fn(
            "supervisor_death_episodes_total",
            lambda: len(self.episodes),
            help="Worker death episodes detected",
        )

    # ------------------------------------------------------------- internal

    def _build_env(self) -> dict[str, str]:
        """Child env: inherit, ensuring the repro package is importable."""
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__
        )))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        if src_dir not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_dir + (os.pathsep + existing if existing else "")
            )
        return env

    def _back_off(self, slot: WorkerSlot, now: float) -> None:
        """Count one more failure before a HELLO; schedule the release.

        Lock held. A first failure since the slot last connected waits
        for nothing; each further one is a crash loop, throttled.
        """
        slot.consecutive_failures += 1
        backoff = 0.0
        if slot.consecutive_failures > 1:
            backoff = min(
                self.config.backoff_start
                * (2.0 ** (slot.consecutive_failures - 2)),
                self.config.backoff_max,
            )
            backoff -= (
                backoff * self.config.backoff_jitter * self._rng.random()
            )
        slot.restart_at = now + backoff

    def _launch(self) -> subprocess.Popen:
        """Start an interpreter parked on its stdin, without the lock
        (``Popen`` forks and execs). It boots, imports, builds its parser
        and opens its wire to the listener, whose address is fixed for
        the region's life; then it waits for :meth:`_spawn` to release
        it."""
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.proc.worker",
                "--host", self.host, "--port", str(self.port),
            ],
            env=self._spawn_env,
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            bufsize=0,
        )

    def _release(self, slot: WorkerSlot) -> None:
        """Start DOWN ``slot``'s next incarnation: on the spare if it is
        alive, else on a fresh launch.

        The one place a slot gets its interpreter; runs without the
        lock. A launch that fails leaves the slot DOWN, due again after
        the crash-loop backoff. A process the slot no longer wants (the
        region closed meanwhile) is dismissed.
        """
        with self.lock:
            process, self._spare = self._spare, None
        if process is not None and process.poll() is not None:
            self._dismiss(process)  # found dead: reap it
            process = None
        if process is None:
            try:
                process = self._launch()
            except OSError:
                with self.lock:
                    self._back_off(slot, self.clock())
                return
        with self.lock:
            if slot.state == DOWN and not self._stop.is_set():
                self._spawn(slot, process)
                return
        self._dismiss(process)

    def _dismiss(self, process: subprocess.Popen) -> None:
        """Reap a parked interpreter: EOF before a line, it exits 0."""
        process.stdin.close()
        process.wait()

    def _argv(self, slot: WorkerSlot) -> list[str]:
        """The release line's options: ``slot``'s current incarnation."""
        return [
            "--worker-id", str(slot.index),
            "--incarnation", str(slot.incarnation),
            "--multiplier", repr(slot.multiplier),
            "--heartbeat-interval", repr(self.config.heartbeat_interval),
            "--mode", self.config.worker_mode,
        ]

    def _spawn(self, slot: WorkerSlot, process: subprocess.Popen) -> None:
        """Hand parked ``process`` its line as ``slot``'s next incarnation.

        Lock held. The one pipe write is a line far below the pipe
        buffer, so it never blocks; a process that died since it was
        checked fails the write, and the startup-exit check declares it
        dead on the next tick.
        """
        slot.incarnation += 1
        if slot.incarnation > 0:
            slot.restarts += 1
            slot.restart_times.append(self.clock())
        try:
            process.stdin.write(" ".join(self._argv(slot)).encode() + b"\n")
        except BrokenPipeError:
            pass
        finally:
            process.stdin.close()
        slot.process = process
        slot.state = STARTING
        slot.spawned_at = self.clock()
        if self._obs is not None:
            self._obs.event(
                "fault",
                kind="worker_spawn",
                channel=slot.index,
                detail=f"incarnation={slot.incarnation}",
            )

    def _monitor_loop(self) -> None:
        while True:
            with self.lock:
                timeout = self._wait_s()
            self._kick.wait(timeout)
            # A kick landing after this clear is seen by the next wait;
            # one before it made its change visible to the pass below.
            self._kick.clear()
            if self._stop.is_set():
                return
            self._tick()

    def _wait_s(self) -> float:
        """Seconds the monitor sleeps: to its next tick or the earliest
        due release, whichever comes first (lock held)."""
        now = self.clock()
        due = min(
            (
                slot.restart_at for slot in self.slots
                if slot.state == DOWN and slot.index not in self._failing
            ),
            default=math.inf,
        )
        return max(0.0, min(self.config.monitor_interval, due - now))

    def _tick(self) -> None:
        """One monitor pass: detect deaths, release due restarts, and
        park a spare once a region that has lost a worker is serving
        on every live slot."""
        dead: list[tuple[int, str, int]] = []
        due: list[WorkerSlot] = []
        with self.lock:
            now = self.clock()
            for slot in self.slots:
                if slot.state == DOWN:
                    if (
                        now >= slot.restart_at
                        and slot.index not in self._failing
                    ):
                        due.append(slot)
                    continue
                if slot.state == QUARANTINED:
                    continue
                up = slot.state == UP
                process = slot.process
                exit_code = None if process is None else process.poll()
                silent = now - slot.last_seen
                if exit_code is not None:
                    reason = (
                        f"process exited with code {exit_code}" if up
                        else f"exited during startup with code {exit_code}"
                    )
                elif up and silent > self.config.heartbeat_timeout:
                    reason = f"missed heartbeats for {silent:.2f}s"
                elif not up and now - slot.spawned_at > SPAWN_GRACE:
                    reason = "never connected within spawn grace"
                else:
                    continue
                dead.append((slot.index, reason, slot.incarnation))
        for slot in due:
            self._release(slot)
        for index, reason, incarnation in dead:
            self.declare_dead(index, reason, incarnation=incarnation)
        with self.lock:
            live = [s.state for s in self.slots if s.state != QUARANTINED]
            # Not before the first death: its boot would take CPU from a
            # region that may never lose a worker.
            wanted = (
                self._spare is None
                and bool(self.ledger.episodes)
                and bool(live)
                and all(state == UP for state in live)
            )
        if not wanted:
            return
        try:
            spare = self._launch()
        except OSError:
            return  # no spare: the next release launches its own
        with self.lock:
            if not self._stop.is_set():
                self._spare, spare = spare, None
        if spare is not None:
            self._dismiss(spare)

    def _signal(self, process: subprocess.Popen, name: str) -> None:
        import signal as _signal

        try:
            os.kill(process.pid, getattr(_signal, name))
        except (OSError, ProcessLookupError):  # pragma: no cover - race
            pass
