"""Real fault injection: declarative schedules fired as real signals.

The simulator arms a :class:`~repro.faults.schedule.FaultSchedule` as
clock callbacks against a model injector. Here the *same schedule* is
armed against live worker processes. Both read the one action list
:meth:`~repro.faults.schedule.FaultSchedule.actions` makes of it, and
:class:`RealFaultDriver` names its methods as the injector does
(``crash``, ``stall``, ``unstall``, ``slowdown``, ``end_slowdown``):

* :class:`~repro.faults.schedule.CrashEvent` -> ``SIGKILL``. The
  supervisor's own policy (capped jittered backoff, restart budget)
  governs the restart, so ``restart_after`` is ignored — real
  supervision does not take restart timing hints from the failure.
* :class:`~repro.faults.schedule.StallEvent` -> ``SIGSTOP`` now,
  ``SIGCONT`` after ``duration``. A stopped process keeps its socket
  open but stops heartbeating, which is exactly the wedged-connection
  failure the sim models; the supervisor detects the silence, SIGKILLs
  the frozen incarnation, and restarts — so the late ``SIGCONT`` lands
  on a corpse, harmlessly.
* :class:`~repro.faults.schedule.SlowdownEvent` -> a CONTROL frame
  setting the service-time multiplier. The process tree is one host, so
  the host-wide slowdown applies to every live worker (and re-applies
  to restarts that land during the burst).
* :class:`~repro.faults.schedule.CountCrashEvent` -> ``SIGKILL`` once
  the ordered merger has emitted ``emitted`` tuples, polled off the
  region's real progress counter.
* :class:`~repro.faults.schedule.OverloadBurstEvent` is demand-side and
  has no process-backend equivalent: arming one raises.

Every fault is announced to the supervisor via ``note_fault`` *before*
the signal fires, so the recovery episodes' time-to-quarantine measures
true injection-to-detection latency on the shared region clock.
"""

from __future__ import annotations

import signal
import threading
from functools import partial

from repro.faults.schedule import FaultSchedule
from repro.util.validation import check_positive


class RealFaultDriver:
    """Fires an armed :class:`FaultSchedule` against a live region."""

    def __init__(self, region, *, poll_interval: float = 0.005) -> None:
        check_positive("poll_interval", poll_interval)
        self.region = region
        self.supervisor = region.supervisor
        self.poll_interval = poll_interval
        #: Pending timed actions: ``(due_time, description, thunk)``.
        self._timed: list[tuple[float, str, callable]] = []
        #: Pending progress-triggered crashes: ``(emitted, worker)``.
        self._counted: list[tuple[int, int]] = []
        #: Everything that actually fired: ``(region time, description)``.
        self.fired: list[tuple[float, str]] = []
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # ---------------------------------------------------------------- arming

    def arm(self, schedule: FaultSchedule) -> "RealFaultDriver":
        """Queue ``schedule``'s actions, each for the method it names."""
        schedule.validate(self.region.n_workers)
        if schedule.bursts:
            raise ValueError(
                "overload bursts drive the offered arrival rate; the "
                "process backend has no rated source to burst"
            )
        for time, action, args in schedule.actions():
            self._timed.append((
                time,
                f"{action}({', '.join(map(repr, args))})",
                partial(getattr(self, action), *args),
            ))
        for event in schedule.count_crashes:
            self._counted.append((event.emitted, event.worker))
        self._timed.sort(key=lambda t: t[0])
        self._counted.sort()
        return self

    # ---------------------------------------------------------------- actions

    def crash(self, worker: int, restart_after: float | None = None) -> None:
        """``SIGKILL`` the worker; the supervisor times the restart."""
        self._kill(worker, signal.SIGKILL)

    def stall(self, worker: int) -> None:
        """``SIGSTOP`` the worker: its socket stays open, it goes silent."""
        self._kill(worker, signal.SIGSTOP)

    def unstall(self, worker: int) -> None:
        """``SIGCONT`` the worker (a corpse by now, if it was detected)."""
        self.supervisor.kill(worker, signal.SIGCONT)

    def slowdown(self, host: str, multiplier: float) -> None:
        """Set every live worker's service-time multiplier: one host."""
        for slot in self.region.slots:
            self.region.send_control(slot.index, multiplier)

    def end_slowdown(self, host: str, multiplier: float) -> None:
        """Reset every live worker's service-time multiplier to 1."""
        self.slowdown(host, 1.0)

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "RealFaultDriver":
        if self._thread is not None:
            raise RuntimeError("fault driver already started")
        self._thread = threading.Thread(
            target=self._loop, name="repro-fault-driver", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def exhausted(self) -> bool:
        """Whether every armed action has fired."""
        return not self._timed and not self._counted

    # -------------------------------------------------------------- internal

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            now = self.region.clock()
            while self._timed and self._timed[0][0] <= now:
                _, description, thunk = self._timed.pop(0)
                thunk()
                self.fired.append((now, description))
            if self._counted:
                emitted = self.region.emitted
                while self._counted and self._counted[0][0] <= emitted:
                    _, worker = self._counted.pop(0)
                    self.crash(worker)
                    self.fired.append((
                        now, f"crash({worker}) at emitted={emitted}"
                    ))
            if self.exhausted:
                return

    def _kill(self, worker: int, sig: int) -> None:
        """Announce then deliver a lethal/freezing signal."""
        self.supervisor.note_fault(worker)
        self.supervisor.kill(worker, sig)
