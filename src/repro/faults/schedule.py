"""Fault schedules: when and how the region breaks.

A :class:`FaultSchedule` is to failures what
:class:`~repro.workloads.external_load.LoadSchedule` is to external load:
a declarative list of timed (and progress-triggered) events that
:meth:`FaultSchedule.arm` schedules on a simulator against a
:class:`~repro.faults.injector.FaultInjector`, and the process backend's
fault driver fires against live workers; both read the one list
:meth:`FaultSchedule.actions` makes of it. Keeping schedules
declarative keeps fault experiments reproducible: the same schedule on
the same config produces the same run, bit for bit.

Supported faults:

* :class:`CrashEvent` — a PE process dies (optionally restarting after a
  delay). The run in service is revoked and redelivered; the transport
  stalls the way a dead peer's TCP connection does.
* :class:`StallEvent` — the connection wedges (optionally recovering
  after a duration: a *flap*). The worker is fine; nothing moves.
* :class:`CountCrashEvent` — a crash triggered by merger progress rather
  than wall time, mirroring the paper's "an eighth through the
  experiment" style of trigger.
* :class:`OverloadBurstEvent` — the *demand-side* fault: the offered
  arrival rate multiplies by ``factor`` for ``duration`` seconds.
  Requires an open-loop :class:`~repro.streams.sources.RatedSource`
  (``ExperimentConfig.arrival_rate``); together with
  ``RegionParams(overload_protection=True)`` this exercises the
  overload-management layer the way crashes exercise recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.sim.engine import Simulator
    from repro.workloads.external_load import LoadSchedule


@dataclass(slots=True, frozen=True)
class CrashEvent:
    """At ``time``, crash ``worker``; restart it ``restart_after`` later."""

    time: float
    worker: int
    restart_after: float | None = None

    def __post_init__(self) -> None:
        check_non_negative("time", self.time)
        if self.worker < 0:
            raise ValueError(f"worker must be non-negative, got {self.worker}")
        if self.restart_after is not None:
            check_positive("restart_after", self.restart_after)


@dataclass(slots=True, frozen=True)
class StallEvent:
    """At ``time``, stall ``worker``'s connection for ``duration`` seconds.

    ``duration=None`` stalls forever (the connection never recovers on its
    own — only a quarantine + restart path brings the channel back).
    """

    time: float
    worker: int
    duration: float | None = None

    def __post_init__(self) -> None:
        check_non_negative("time", self.time)
        if self.worker < 0:
            raise ValueError(f"worker must be non-negative, got {self.worker}")
        if self.duration is not None:
            check_positive("duration", self.duration)


@dataclass(slots=True, frozen=True)
class CountCrashEvent:
    """Crash ``worker`` once the merger has emitted ``emitted`` tuples."""

    emitted: int
    worker: int
    restart_after: float | None = None

    def __post_init__(self) -> None:
        check_positive("emitted", self.emitted)
        if self.worker < 0:
            raise ValueError(f"worker must be non-negative, got {self.worker}")
        if self.restart_after is not None:
            check_positive("restart_after", self.restart_after)


@dataclass(slots=True, frozen=True)
class OverloadBurstEvent:
    """At ``time``, multiply the offered rate by ``factor`` for ``duration``.

    ``duration=None`` makes the burst permanent (a sustained-overload
    step). ``factor`` below 1 models a demand drop.
    """

    time: float
    factor: float
    duration: float | None = None

    def __post_init__(self) -> None:
        check_non_negative("time", self.time)
        check_positive("factor", self.factor)
        if self.duration is not None:
            check_positive("duration", self.duration)


@dataclass(slots=True)
class FaultSchedule:
    """Declarative timed + progress-triggered faults for one run."""

    crashes: list[CrashEvent] = field(default_factory=list)
    stalls: list[StallEvent] = field(default_factory=list)
    count_crashes: list[CountCrashEvent] = field(default_factory=list)
    bursts: list[OverloadBurstEvent] = field(default_factory=list)

    @classmethod
    def none(cls) -> "FaultSchedule":
        """No faults at any time (the default for every experiment)."""
        return cls()

    @classmethod
    def crash(
        cls, worker: int, at: float, *, restart_after: float | None = None
    ) -> "FaultSchedule":
        """One PE crash, optionally followed by a restart."""
        return cls(crashes=[CrashEvent(at, worker, restart_after)])

    @classmethod
    def crash_after_emitted(
        cls, worker: int, emitted: int, *, restart_after: float | None = None
    ) -> "FaultSchedule":
        """Crash triggered by run progress instead of wall time."""
        return cls(count_crashes=[CountCrashEvent(emitted, worker, restart_after)])

    @classmethod
    def overload_burst(
        cls, at: float, factor: float, *, duration: float | None = None
    ) -> "FaultSchedule":
        """One offered-rate burst (``duration=None`` = sustained step)."""
        return cls(bursts=[OverloadBurstEvent(at, factor, duration)])

    def empty(self) -> bool:
        """Whether the schedule contains no fault at all."""
        return not (
            self.crashes
            or self.stalls
            or self.count_crashes
            or self.bursts
        )

    def max_worker(self) -> int:
        """Highest worker index any event references (-1 when none do)."""
        indices = [e.worker for e in self.crashes]
        indices += [e.worker for e in self.stalls]
        indices += [e.worker for e in self.count_crashes]
        return max(indices, default=-1)

    def validate(self, n_workers: int) -> None:
        """Raise if any event targets a worker the region does not have."""
        worst = self.max_worker()
        if worst >= n_workers:
            raise ValueError(
                f"fault schedule targets worker {worst} but the region has "
                f"{n_workers} workers"
            )

    def actions(self) -> list[tuple[float, str, tuple]]:
        """Every timed fault as ``(time, action, args)``, in arming order.

        ``action`` names a method of the fault injector (and of the
        process backend's fault driver); ``args`` are its arguments.
        The order is crashes, then stalls with their unstalls, then
        bursts with their ends, so same-time events keep their sequence.
        Progress-triggered crashes (:attr:`count_crashes`) are not timed
        and are not listed (see :func:`progress_actions`).
        """
        actions = [
            (e.time, "crash", (e.worker, e.restart_after))
            for e in self.crashes
        ]
        # Each of these ends with its ``end`` action after ``duration``.
        for events, start, end, args_of in (
            (self.stalls, "stall", "unstall", lambda e: (e.worker,)),
            (
                self.bursts, "overload_burst", "end_overload_burst",
                lambda e: (e.factor,),
            ),
        ):
            for event in events:
                args = args_of(event)
                actions.append((event.time, start, args))
                if event.duration is not None:
                    actions.append((event.time + event.duration, end, args))
        return actions

    def arm(self, sim: "Simulator", injector: "FaultInjector") -> None:
        """Schedule every timed event on ``sim`` against ``injector``.

        Progress-triggered events (:attr:`count_crashes`) cannot be armed
        on the clock; the experiment runner fires them from its merger
        progress hook (:func:`progress_actions`).
        """
        self.validate(injector.n_channels)
        for time, action, args in self.actions():
            sim.call_at(time, partial(getattr(injector, action), *args))


def progress_actions(
    faults: FaultSchedule, load: "LoadSchedule"
) -> list[tuple[int, str, tuple]]:
    """Every progress-triggered event as ``(emitted, action, args)``.

    Load changes (``set_load``) and crashes (``crash``) in one list,
    ascending by the merger's emitted count; at equal counts the load
    changes come first. Both backends fire an entry once the ordered
    merger has emitted its count.
    """
    actions = [
        (e.emitted, "set_load", (e.worker, e.multiplier))
        for e in load.count_events
    ]
    actions += [
        (e.emitted, "crash", (e.worker, e.restart_after))
        for e in faults.count_crashes
    ]
    return sorted(actions, key=itemgetter(0))
