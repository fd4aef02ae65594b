"""Decision audit log: one structured record per control round.

The balancer already *makes* every decision this log captures — which
exit its ``update()`` took, what the sampled blocking rates were, what
the solver proposed, and what weights were actually applied. The audit
log makes that decision chain inspectable after the fact: every record
answers "why did round N move weight (or refuse to)?" without a
debugger.

Records are plain slots dataclasses so they serialize to JSON directly
(``as_dict``) and survive the fork-based sweep pool. ``old_weights``
and ``new_weights`` are the balancer's *applied* weights immediately
before and after the round — not the solver candidate, which is kept
separately in ``candidate`` so hysteresis rejections and churn-limited
adoptions stay visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Every legal value of ``ControlRoundRecord.outcome``.
OUTCOMES = (
    "primed",               # estimator still warming up; no rates yet
    "adopted",              # candidate accepted and applied
    "no-change",            # candidate accepted but identical to current
    "rejected-hysteresis",  # candidate inside the hysteresis band
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
    """One control round of the balancer, end to end."""

    round: int
    time: float
    trigger: str
    outcome: str
    #: Sampled per-channel blocking rates (empty while priming).
    blocking_rates: list[float] = field(default_factory=list)
    #: Post-regression rate-function value at the current weight.
    function_values: list[float] = field(default_factory=list)
    #: Rate predicted at the adopted weight, per channel.
    predicted_rates: list[float] = field(default_factory=list)
    #: Channels whose model received exploration decay this round.
    decayed_channels: list[int] = field(default_factory=list)
    solver: str = ""
    #: Minimax solver invocations attributable to this round.
    solver_calls: int = 0
    #: Model fits attributable to this round.
    model_fits: int = 0
    clusters: list[list[int]] = field(default_factory=list)
    quarantined: list[int] = field(default_factory=list)
    old_weights: list[float] = field(default_factory=list)
    #: The solver's proposal (kept even when rejected).
    candidate: list[float] = field(default_factory=list)
    new_weights: list[float] = field(default_factory=list)
    #: True when safe-mode churn limiting clipped the adoption.
    churn_limited: bool = False

    def as_dict(self) -> dict:
        return {
            "round": self.round,
            "time": self.time,
            "trigger": self.trigger,
            "outcome": self.outcome,
            "blocking_rates": list(self.blocking_rates),
            "function_values": list(self.function_values),
            "predicted_rates": list(self.predicted_rates),
            "decayed_channels": list(self.decayed_channels),
            "solver": self.solver,
            "solver_calls": self.solver_calls,
            "model_fits": self.model_fits,
            "clusters": [list(c) for c in self.clusters],
            "quarantined": list(self.quarantined),
            "old_weights": list(self.old_weights),
            "candidate": list(self.candidate),
            "new_weights": list(self.new_weights),
            "churn_limited": self.churn_limited,
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
