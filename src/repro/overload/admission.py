"""Admission control: shed load *before* sequence assignment.

The one place load can be shed without touching ordered-merge semantics
is at the source, before a tuple receives its sequence number: the
admitted stream is then gap-free and totally ordered, so the splitter,
the retransmit buffers, and the merger are all oblivious to shedding.
(Shedding after sequence assignment would punch permanent holes in the
sequence that the merger could only survive via ``mark_lost`` — turning
every shed into a fault.)

Policies decide per arriving tuple, given the arrival index, the current
source backlog, and the detector's shed ``pressure``:

* :class:`DropTailShedding` — admit while the backlog is below a hard
  cap; the classic bounded-queue tail drop. Ignores pressure, so it
  sheds nothing until the queue is already long (worst latency for
  admitted tuples, zero shed below the cap).
* :class:`ProbabilisticShedding` — admit with probability
  ``1 - pressure`` (seeded RNG, deterministic runs). Self-regulating:
  the backlog settles where the admitted rate equals capacity.
* :class:`PriorityShedding` — admit iff the tuple's priority (a caller
  function of the arrival index, default a hashed uniform) is at least
  ``pressure``: under pressure *p* exactly the top ``1-p`` priority band
  survives, so shedding is deterministic per tuple and spread across the
  stream.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.overload.detector import OverloadConfig, OverloadDetector


@runtime_checkable
class SheddingPolicy(Protocol):
    """Per-tuple admit/shed decision."""

    def admit(self, index: int, backlog: int, pressure: float) -> bool:
        """Whether arrival number ``index`` is admitted.

        ``backlog`` is the source queue length *before* this arrival;
        ``pressure`` is the detector's shed pressure in ``[0, 1]``.
        """


class DropTailShedding:
    """Admit while the backlog is below ``queue_limit``; drop the tail."""

    def __init__(self, queue_limit: int) -> None:
        check_positive("queue_limit", queue_limit)
        self.queue_limit = int(queue_limit)

    def admit(self, index: int, backlog: int, pressure: float) -> bool:
        return backlog < self.queue_limit


class ProbabilisticShedding:
    """Admit with probability ``1 - pressure`` (seeded, deterministic)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def admit(self, index: int, backlog: int, pressure: float) -> bool:
        if pressure <= 0.0:
            return True
        if pressure >= 1.0:
            return False
        return self._rng.random() >= pressure


class PriorityShedding:
    """Admit the high-priority band; shed the low one first.

    ``priority_fn`` maps an arrival index to a priority in ``[0, 1]``;
    under pressure *p* only tuples with priority ≥ *p* are admitted. The
    default assigns a hashed pseudo-uniform priority (Knuth
    multiplicative hash), which spreads shedding evenly across the
    stream while staying deterministic.
    """

    def __init__(
        self, priority_fn: Callable[[int], float] | None = None
    ) -> None:
        self.priority_fn = priority_fn or _hashed_priority

    def admit(self, index: int, backlog: int, pressure: float) -> bool:
        if pressure <= 0.0:
            return True
        return self.priority_fn(index) >= pressure


def _hashed_priority(index: int) -> float:
    return ((index * 2654435761) & 0xFFFFFFFF) / 2.0**32


class AdmissionController:
    """Applies a shedding policy at the source and keeps the tallies."""

    def __init__(
        self,
        policy: SheddingPolicy,
        detector: "OverloadDetector | None" = None,
    ) -> None:
        self.policy = policy
        self.detector = detector
        #: Tuples the source offered (arrivals).
        self.offered = 0
        #: Tuples shed before sequence assignment.
        self.shed = 0

    def offer(self, index: int, backlog: int) -> bool:
        """Decide arrival ``index`` with the current ``backlog``."""
        self.offered += 1
        pressure = (
            self.detector.pressure(backlog)
            if self.detector is not None
            else 0.0
        )
        if self.policy.admit(index, backlog, pressure):
            return True
        self.shed += 1
        return False

    def shed_ratio(self) -> float:
        """Fraction of offered tuples shed so far."""
        if self.offered == 0:
            return 0.0
        return self.shed / self.offered


def build_shedding_policy(config: "OverloadConfig") -> SheddingPolicy | None:
    """The policy named by ``config.shedding`` (``None`` for ``"none"``)."""
    kind = config.shedding
    if kind == "none":
        return None
    if kind == "drop-tail":
        return DropTailShedding(config.queue_limit)
    if kind == "probabilistic":
        return ProbabilisticShedding(seed=config.seed)
    if kind == "priority":
        return PriorityShedding()
    raise ValueError(f"unknown shedding policy {kind!r}")
