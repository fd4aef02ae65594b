"""The supervisor: it owns the worker processes, nothing else does.

Lifecycle per slot::

    spawn -> STARTING -> (HELLO over TCP) -> UP
        UP -> DOWN on: dead socket | missed heartbeats | nonzero exit
        DOWN -> STARTING after capped jittered exponential backoff
        DOWN -> QUARANTINED when the restart budget for the window is
                spent (the circuit breaker: a crash-looping worker must
                not be restarted forever while it drags the region's
                tail latency with it)

Detection is three-pronged and any prong fires the same path:
``Popen.poll`` catches exits, the heartbeat deadline catches frozen
processes (``SIGSTOP``) and wedged loops, and the receiver's socket EOF
catches kills between heartbeats. All timestamps come from the region's
shared wall clock, so the recovery episodes
(:class:`~repro.faults.recovery.ChannelRecovery` — the same record the
simulator's coordinator keeps) yield directly comparable ttq/ttr
numbers, and the obs spans (``detection``/``quarantine``/``restart``)
are derived from the identical timestamps.

The supervisor never touches routing or buffers: on every transition it
calls back into its listener (the
:class:`~repro.proc.region.ProcessRegion`), which re-solves weights and
replays unacknowledged tuples. The split keeps the process-management
state machine testable without a dataplane attached.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.faults.recovery import ChannelRecovery
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


@dataclass(slots=True, frozen=True)
class SupervisorConfig:
    """Tunables for liveness detection and supervised restart."""

    #: Seconds between worker heartbeats on the data channel.
    heartbeat_interval: float = 0.1
    #: Silence (no heartbeat, no result) that declares a worker dead.
    heartbeat_timeout: float = 1.0
    #: Monitor thread tick.
    monitor_interval: float = 0.05
    #: First restart backoff; doubles per consecutive failure.
    backoff_start: float = 0.05
    #: Backoff cap.
    backoff_max: float = 2.0
    #: Fraction of each backoff randomized away (full-jitter style).
    backoff_jitter: float = 0.5
    #: Restarts allowed within ``restart_window`` before the circuit
    #: breaker quarantines the slot permanently.
    restart_budget: int = 5
    #: Sliding window for the restart budget, in seconds.
    restart_window: float = 30.0
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
        check_positive("restart_window", self.restart_window)
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        if self.worker_mode not in ("sleep", "spin"):
            raise ValueError(f"unknown worker_mode {self.worker_mode!r}")


@dataclass(slots=True)
class WorkerSlot:
    """One worker position in the region, across all its incarnations."""

    index: int
    #: Service-time multiplier (heterogeneous capacity), passed to spawns.
    multiplier: float = 1.0
    #: Extra argv for spawns (test harness: ``--exit-after`` etc.).
    extra_args: list[str] = field(default_factory=list)
    state: str = DOWN
    process: subprocess.Popen | None = None
    #: Bumps on every spawn; stale connections/heartbeats are rejected.
    incarnation: int = -1
    #: Region-clock time of the last heartbeat or result.
    last_seen: float = 0.0
    spawned_at: float = 0.0
    #: When a DOWN slot is due for its next spawn attempt.
    restart_at: float = 0.0
    #: Spawn attempts after the first (i.e. supervised restarts).
    restarts: int = 0
    #: Consecutive failures since the last healthy connect (backoff arg).
    consecutive_failures: int = 0
    #: Region-clock times of recent restarts (budget window).
    restart_times: deque = field(default_factory=deque)
    #: Unacknowledged in-flight tuples: seq -> (cost_seconds, body).
    #: Owned and mutated by the region under its lock; lives here so a
    #: slot's retransmit state travels with its lifecycle.
    unacked: dict = field(default_factory=dict)
    #: Routed-but-unflushed tuples awaiting the next batched wire flush:
    #: ``(seq, cost_seconds, body)`` in routing order. Every entry is
    #: already registered in ``unacked`` (the retransmit contract covers
    #: buffered tuples), so a death simply discards the outbox — the
    #: replay path re-batches from ``unacked``. Region-lock discipline
    #: matches ``unacked``.
    outbox: list = field(default_factory=list)
    #: Results credited to this slot (across incarnations).
    results: int = 0

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
        #: Completed and in-progress death episodes, in detection order.
        self.episodes: list[ChannelRecovery] = []
        self._open_episodes: dict[int, ChannelRecovery] = {}
        #: Injected-fault timestamps awaiting detection (ttq anchors).
        self._pending_faults: dict[int, float] = {}
        self._monitor: threading.Thread | None = None
        self._stop = threading.Event()
        self._obs = None
        self._quarantine_spans: dict[int, int] = {}
        self._spawn_env = self._build_env()

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Spawn every slot and start the monitor thread."""
        if self._monitor is not None:
            raise RuntimeError("supervisor already started")
        with self.lock:
            for slot in self.slots:
                self._spawn(slot)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-supervisor", daemon=True
        )
        self._monitor.start()

    def shutdown(self) -> list[tuple[int, str]]:
        """Stop monitoring and bring every process down.

        Assumes the region already sent EOS (graceful drain); waits
        ``DRAIN_TIMEOUT`` for clean exits, then escalates SIGTERM ->
        (``TERM_GRACE``) -> SIGKILL. Returns ``(slot index, how)`` for
        every process that needed escalation.
        """
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        escalated: list[tuple[int, str]] = []
        deadline = time.monotonic() + DRAIN_TIMEOUT
        procs = [s for s in self.slots if s.process is not None]
        # Only UP slots received EOS and will exit on their own; a
        # replacement still STARTING (or a slot already DOWN) has
        # nothing to drain, so waiting the drain window on it would
        # stall every close that races a pending restart.
        drainable = [s for s in procs if s.state == UP]
        while time.monotonic() < deadline:
            if all(s.process.poll() is not None for s in drainable):
                break
            time.sleep(0.01)
        for slot in procs:
            if slot.process.poll() is None:
                escalated.append((slot.index, "sigterm"))
                self._signal(slot, "SIGCONT")  # a stopped process cannot
                self._signal(slot, "SIGTERM")  # handle SIGTERM
        term_deadline = time.monotonic() + TERM_GRACE
        while time.monotonic() < term_deadline:
            if all(s.process.poll() is not None for s in procs):
                break
            time.sleep(0.01)
        for slot in procs:
            if slot.process.poll() is None:
                escalated.append((slot.index, "sigkill"))
                slot.process.kill()
        for slot in procs:
            try:
                slot.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
        return escalated

    # -------------------------------------------------------------- actions

    def note_fault(self, index: int, at: float | None = None) -> None:
        """Record an injected fault's time: the ttq anchor for ``index``."""
        with self.lock:
            self._pending_faults[index] = (
                self.clock() if at is None else at
            )

    def declare_dead(
        self, index: int, reason: str, *, incarnation: int | None = None
    ) -> bool:
        """Fail slot ``index`` over: kill remains, schedule the restart.

        Idempotent per incarnation — the three detection prongs and the
        splitter's send-failure path all funnel here, and only the first
        caller acts. Returns whether this call performed the failover.
        """
        slot = self.slots[index]
        quarantined = False
        with self.lock:
            if incarnation is not None and incarnation != slot.incarnation:
                return False
            if slot.state in (DOWN, QUARANTINED):
                return False
            now = self.clock()
            episode = ChannelRecovery(
                channel=index,
                quarantined_at=now,
                fault_at=self._pending_faults.pop(index, None),
            )
            self.episodes.append(episode)
            self._open_episodes[index] = episode
            # The process may be SIGSTOPped, half-dead, or already gone;
            # SIGKILL is the one terminator that covers all three.
            if slot.process is not None and slot.process.poll() is None:
                slot.process.kill()
            window_start = now - self.config.restart_window
            while slot.restart_times and slot.restart_times[0] < window_start:
                slot.restart_times.popleft()
            if len(slot.restart_times) >= self.config.restart_budget:
                slot.state = QUARANTINED
                quarantined = True
            else:
                slot.state = DOWN
                backoff = min(
                    self.config.backoff_start
                    * (2.0 ** slot.consecutive_failures),
                    self.config.backoff_max,
                )
                backoff -= (
                    backoff * self.config.backoff_jitter * self._rng.random()
                )
                slot.restart_at = now + backoff
                slot.consecutive_failures += 1
            if self._obs is not None:
                tracer = self._obs.tracer
                if episode.fault_at is not None:
                    tracer.record(
                        "detection", episode.fault_at, now,
                        channel=index, reason=reason,
                    )
                self._quarantine_spans[index] = tracer.start(
                    "quarantine", now, channel=index, reason=reason,
                )
                self._obs.event(
                    "fault", kind="worker_dead", channel=index, detail=reason
                )
        # Callbacks run without the lock: replay sends may block.
        self.listener.on_slot_down(slot, reason)
        if quarantined:
            self.listener.on_slot_quarantined(slot)
        return True

    def on_connected(self, index: int, incarnation: int) -> bool:
        """A worker's HELLO arrived; accept or reject the connection.

        Rejects stale incarnations (a zombie from before a kill) and
        quarantined slots. On acceptance the slot turns UP, the open
        episode closes, and the region reintegrates the slot.
        """
        slot = self.slots[index]
        with self.lock:
            if incarnation != slot.incarnation or slot.state == QUARANTINED:
                return False
            now = self.clock()
            slot.state = UP
            slot.last_seen = now
            slot.consecutive_failures = 0
            episode = self._open_episodes.pop(index, None)
            if episode is not None:
                episode.reintegrated_at = now
                # Service restored == the region is re-converged from
                # this slot's perspective; the balancer (if any) keeps
                # refining weights but capacity is back.
                episode.reconverged_at = now
            if self._obs is not None:
                span_id = self._quarantine_spans.pop(index, None)
                if span_id is not None:
                    self._obs.tracer.finish(span_id, now)
                if slot.incarnation > 0:
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
    def quarantined(self) -> list[int]:
        """Slots the circuit breaker took out of rotation."""
        return [s.index for s in self.slots if s.state == QUARANTINED]

    def attach_observability(self, hub) -> None:
        """Register supervision instruments on ``hub``."""
        self._obs = hub
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

    def _spawn(self, slot: WorkerSlot) -> None:
        """Start a fresh incarnation of ``slot`` (lock held)."""
        slot.incarnation += 1
        if slot.incarnation > 0:
            slot.restarts += 1
            slot.restart_times.append(self.clock())
        cmd = [
            sys.executable, "-m", "repro.proc.worker",
            "--host", self.host,
            "--port", str(self.port),
            "--worker-id", str(slot.index),
            "--incarnation", str(slot.incarnation),
            "--multiplier", repr(slot.multiplier),
            "--heartbeat-interval", repr(self.config.heartbeat_interval),
            "--mode", self.config.worker_mode,
            *slot.extra_args,
        ]
        slot.process = subprocess.Popen(
            cmd,
            env=self._spawn_env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
        )
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
        config = self.config
        while not self._stop.wait(config.monitor_interval):
            dead: list[tuple[int, str, int]] = []
            respawn: list[WorkerSlot] = []
            with self.lock:
                now = self.clock()
                for slot in self.slots:
                    if slot.state == UP:
                        exit_code = (
                            slot.process.poll()
                            if slot.process is not None
                            else None
                        )
                        if exit_code is not None:
                            dead.append((
                                slot.index,
                                f"process exited with code {exit_code}",
                                slot.incarnation,
                            ))
                        elif now - slot.last_seen > config.heartbeat_timeout:
                            dead.append((
                                slot.index,
                                f"missed heartbeats for "
                                f"{now - slot.last_seen:.2f}s",
                                slot.incarnation,
                            ))
                    elif slot.state == STARTING:
                        exit_code = (
                            slot.process.poll()
                            if slot.process is not None
                            else None
                        )
                        if exit_code is not None:
                            dead.append((
                                slot.index,
                                f"exited during startup with code {exit_code}",
                                slot.incarnation,
                            ))
                        elif now - slot.spawned_at > SPAWN_GRACE:
                            dead.append((
                                slot.index,
                                "never connected within spawn grace",
                                slot.incarnation,
                            ))
                    elif slot.state == DOWN and now >= slot.restart_at:
                        respawn.append(slot)
                for slot in respawn:
                    self._spawn(slot)
            for index, reason, incarnation in dead:
                self.declare_dead(index, reason, incarnation=incarnation)

    def _signal(self, slot: WorkerSlot, name: str) -> None:
        import signal as _signal

        try:
            os.kill(slot.process.pid, getattr(_signal, name))
        except (OSError, ProcessLookupError):  # pragma: no cover - race
            pass
