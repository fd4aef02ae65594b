"""External-load schedules for worker PEs.

The paper simulates exogenous load by multiplying selected PEs' per-tuple
cost: "one PE has a simulated external load causing it to take 100x longer
to process tuples. An eighth through the experiment, we remove the
simulated external load." A :class:`LoadSchedule` captures the initial
multipliers plus any timed or progress-triggered changes: the one way a
worker's speed changes mid-run, on either backend (``set_load`` actions).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING

from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.streams.pe import WorkerPE


@dataclass(slots=True, frozen=True)
class LoadEvent:
    """At ``time``, set ``worker``'s cost multiplier to ``multiplier``."""

    time: float
    worker: int
    multiplier: float

    def __post_init__(self) -> None:
        check_non_negative("time", self.time)
        check_positive("multiplier", self.multiplier)
        if self.worker < 0:
            raise ValueError(f"worker must be non-negative, got {self.worker}")


@dataclass(slots=True, frozen=True)
class CountLoadEvent:
    """When the merger has emitted ``emitted`` tuples, set ``worker``'s
    multiplier to ``multiplier``.

    The paper removes load "an eighth through the experiment" — an eighth
    of each run's own progress, not of wall time (that is what lets it
    report that RR "took at least 10x as long to reach this throughput":
    a slow policy spends 10x longer in its loaded first eighth). Progress
    triggers express exactly that.
    """

    emitted: int
    worker: int
    multiplier: float

    def __post_init__(self) -> None:
        check_positive("emitted", self.emitted)
        check_positive("multiplier", self.multiplier)
        if self.worker < 0:
            raise ValueError(f"worker must be non-negative, got {self.worker}")


@dataclass(slots=True)
class LoadSchedule:
    """Initial per-worker load multipliers plus timed or progress changes."""

    initial: dict[int, float] = field(default_factory=dict)
    events: list[LoadEvent] = field(default_factory=list)
    count_events: list[CountLoadEvent] = field(default_factory=list)

    @classmethod
    def none(cls) -> "LoadSchedule":
        """No external load at any time."""
        return cls()

    @classmethod
    def static_load(cls, workers: list[int], multiplier: float) -> "LoadSchedule":
        """Fixed load on ``workers`` for the whole run (Figs. 9/10 left)."""
        check_positive("multiplier", multiplier)
        return cls(initial={w: multiplier for w in workers})

    @classmethod
    def removed_at(
        cls, workers: list[int], multiplier: float, removal_time: float
    ) -> "LoadSchedule":
        """Load on ``workers`` that disappears at ``removal_time``.

        The paper's dynamic experiments remove the load "an eighth through
        the experiment".
        """
        check_positive("multiplier", multiplier)
        check_non_negative("removal_time", removal_time)
        return cls(
            initial={w: multiplier for w in workers},
            events=[LoadEvent(removal_time, w, 1.0) for w in workers],
        )

    @classmethod
    def removed_after_emitted(
        cls, workers: list[int], multiplier: float, emitted: int
    ) -> "LoadSchedule":
        """Load on ``workers`` removed once ``emitted`` tuples are merged.

        This is the dynamic-sweep setup (Figs. 9/10/13): with a finite
        budget of N tuples, pass ``emitted = N // 8`` for the paper's
        "an eighth through the experiment".
        """
        check_positive("multiplier", multiplier)
        return cls(
            initial={w: multiplier for w in workers},
            count_events=[CountLoadEvent(emitted, w, 1.0) for w in workers],
        )

    @classmethod
    def half_loaded(cls, n_workers: int, multiplier: float) -> "LoadSchedule":
        """Load on the first half of the PEs (the Figs. 9/10/13 setup)."""
        return cls.static_load(list(range(n_workers // 2)), multiplier)

    @classmethod
    def half_loaded_until_emitted(
        cls, n_workers: int, multiplier: float, emitted: int
    ) -> "LoadSchedule":
        """Half the PEs loaded until ``emitted`` tuples have been merged."""
        return cls.removed_after_emitted(
            list(range(n_workers // 2)), multiplier, emitted
        )

    def validate(self, n_workers: int) -> None:
        """Raise if any multiplier targets a worker the region lacks."""
        changes = self.events + self.count_events
        worst = max([*self.initial, *(e.worker for e in changes)], default=-1)
        if worst >= n_workers:
            raise ValueError(
                f"schedule loads worker {worst} but region has {n_workers}"
            )

    def initial_multipliers(self, n_workers: int) -> list[float]:
        """Per-worker multipliers in force at time zero."""
        self.validate(n_workers)
        return [self.initial.get(j, 1.0) for j in range(n_workers)]

    def scaled(self, factors: Sequence[float]) -> "LoadSchedule":
        """This schedule with worker ``j``'s every multiplier times
        ``factors[j]`` (and an initial multiplier for every worker)."""
        initial = self.initial_multipliers(len(factors))

        def scale(e):
            return replace(e, multiplier=factors[e.worker] * e.multiplier)

        return LoadSchedule(
            initial={j: factors[j] * m for j, m in enumerate(initial)},
            events=[scale(e) for e in self.events],
            count_events=[scale(e) for e in self.count_events],
        )

    def multiplier_at(self, worker: int, time: float) -> float:
        """The multiplier in force for ``worker`` at ``time``."""
        value = self.initial.get(worker, 1.0)
        best_time = -1.0
        for event in self.events:
            if event.worker == worker and best_time < event.time <= time:
                value = event.multiplier
                best_time = event.time
        return value

    def change_times(self) -> list[float]:
        """Distinct times at which any multiplier changes, ascending."""
        return sorted({e.time for e in self.events})

    def actions(self) -> list[tuple[float, str, tuple]]:
        """Every timed change as ``(time, "set_load", (worker, multiplier))``:
        it sets the multiplier outright, never compounding. Count-triggered
        ones are in :func:`~repro.faults.schedule.progress_actions`."""
        return [
            (e.time, "set_load", (e.worker, e.multiplier))
            for e in self.events
        ]

    def arm(self, sim: "Simulator", workers: list["WorkerPE"]) -> None:
        """Schedule every timed change on ``sim`` against ``workers``."""
        self.validate(len(workers))
        for time, _, (worker, multiplier) in self.actions():
            sim.call_at(
                time, partial(workers[worker].set_load_multiplier, multiplier)
            )
