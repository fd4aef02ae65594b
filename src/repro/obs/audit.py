"""Decision audit log: one structured record per control round.

The balancer is deterministic, and its only inputs are
``update(now, counters)``, ``quarantine(channel)`` and
``reintegrate(channel)``. Each record therefore carries the round's
*input* — the cumulative counter vector as given, or the channel — with
the exit the round took (``outcome``) and the weights it left applied
(``new_weights``). Everything the balancer derived on the way (rates,
fitted functions, the clustering, the minimax proposal) is recomputed
by feeding the records back through a fresh balancer:
:func:`repro.core.balancer.replay`.

Records are plain slots dataclasses so they serialize to JSON directly
(``as_dict``) and survive the fork-based sweep pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Every legal value of ``ControlRoundRecord.outcome``.
OUTCOMES = (
    "primed",               # estimator still warming up; no rates yet
    "adopted",              # minimax proposal accepted and applied
    "no-change",            # minimax proposal identical to current
    "rejected-hysteresis",  # proposal inside the hysteresis band
    "hold-degenerate",      # counters failed sanity checks (safe mode)
    "hold-nonfinite-rates", # sampled rates were not finite (safe mode)
    "hold-saturated",       # every channel saturated (safe mode)
    "hold-recovering",      # safe-mode recovery streak not yet met
    "hold-oscillation",     # A->B->A flip limit tripped (safe mode)
    "all-quarantined",      # no live channel to balance
)

#: Every legal value of ``ControlRoundRecord.trigger``.
TRIGGERS = ("periodic", "quarantine", "reintegrate")


@dataclass(slots=True)
class ControlRoundRecord:
    """One control round of the balancer: its input, exit and result."""

    round: int
    time: float
    trigger: str
    outcome: str
    #: The cumulative blocking counters ``update`` received, as given
    #: (non-finite values included); empty on quarantine/reintegrate.
    counters: list[float] = field(default_factory=list)
    #: The channel ``quarantine``/``reintegrate`` acted on; -1 on
    #: periodic rounds.
    channel: int = -1
    #: The applied weights after the round.
    new_weights: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "round": self.round,
            "time": self.time,
            "trigger": self.trigger,
            "outcome": self.outcome,
            "counters": list(self.counters),
            "channel": self.channel,
            "new_weights": list(self.new_weights),
        }


class DecisionAuditLog:
    """Append-only log of :class:`ControlRoundRecord`."""

    def __init__(self) -> None:
        self.records: list[ControlRoundRecord] = []

    def append(self, record: ControlRoundRecord) -> None:
        if record.trigger not in TRIGGERS:
            raise ValueError(f"unknown trigger: {record.trigger!r}")
        if record.outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome: {record.outcome!r}")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def last(self) -> ControlRoundRecord | None:
        return self.records[-1] if self.records else None

    def as_dicts(self) -> list[dict]:
        return [r.as_dict() for r in self.records]
