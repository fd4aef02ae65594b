"""Real fault injection: declarative schedules fired as real signals.

The simulator arms a :class:`~repro.faults.schedule.FaultSchedule` as
clock callbacks against a model injector. Here the *same schedule* is
armed against live worker processes. Both read the one action list
:meth:`~repro.faults.schedule.FaultSchedule.actions` makes of it, and
:class:`RealFaultDriver` names its methods as the injector does
(``crash``, ``stall``, ``unstall``), plus ``set_load`` for a
:class:`~repro.workloads.external_load.LoadSchedule`'s changes:

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
* :class:`~repro.workloads.external_load.LoadEvent` -> ``set_load``,
  the worker's service multiplier from then on, restarts included.
* Count-triggered crashes and load changes fire once the ordered
  merger has emitted their count, in
  :func:`~repro.faults.schedule.progress_actions`' order.
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

from repro.faults.schedule import FaultSchedule, progress_actions
from repro.util.validation import check_positive
from repro.workloads.external_load import LoadSchedule


class RealFaultDriver:
    """Fires an armed :class:`FaultSchedule` against a live region."""

    def __init__(self, region, *, poll_interval: float = 0.005) -> None:
        check_positive("poll_interval", poll_interval)
        self.region = region
        self.supervisor = region.supervisor
        self.poll_interval = poll_interval
        #: Pending timed actions: ``(due_time, description, thunk)``.
        self._timed: list[tuple[float, str, callable]] = []
        #: Pending progress-triggered actions: ``(emitted, description,
        #: thunk)``, ascending by count.
        self._counted: list[tuple[int, str, callable]] = []
        #: Everything that actually fired: ``(region time, description)``.
        self.fired: list[tuple[float, str]] = []
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # ---------------------------------------------------------------- arming

    def arm(
        self, schedule: FaultSchedule, load: LoadSchedule | None = None
    ) -> "RealFaultDriver":
        """Queue ``schedule``'s and ``load``'s (service multipliers)
        actions, each for the method it names."""
        load = load or LoadSchedule.none()
        schedule.validate(self.region.n_workers)
        load.validate(self.region.n_workers)
        if schedule.bursts:
            raise ValueError(
                "overload bursts drive the offered arrival rate; the "
                "process backend has no rated source to burst"
            )
        # Load changes first, as the simulator arms them.
        for time, action, args in load.actions() + schedule.actions():
            self._timed.append((time, *self._action(action, args)))
        for emitted, action, args in progress_actions(schedule, load):
            self._counted.append((emitted, *self._action(action, args)))
        self._timed.sort(key=lambda t: t[0])
        self._counted.sort(key=lambda t: t[0])
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

    def set_load(self, worker: int, multiplier: float) -> None:
        """Set the worker's service-time multiplier, for every later
        incarnation too."""
        self.region.send_control(worker, multiplier)

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
                    _, description, thunk = self._counted.pop(0)
                    thunk()
                    self.fired.append((
                        now, f"{description} at emitted={emitted}"
                    ))
            if self.exhausted:
                return

    def _action(self, action: str, args: tuple) -> tuple[str, callable]:
        """``(description, thunk)`` of one ``(action, args)`` entry."""
        return (
            f"{action}({', '.join(map(repr, args))})",
            partial(getattr(self, action), *args),
        )

    def _kill(self, worker: int, sig: int) -> None:
        """Announce then deliver a lethal/freezing signal."""
        self.supervisor.note_fault(worker)
        self.supervisor.kill(worker, sig)
