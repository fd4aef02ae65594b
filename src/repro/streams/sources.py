"""Tuple sources feeding the splitter.

The paper's experiments run a saturating source: the splitter always has
the next tuple ready, so region throughput is gated by the workers (or, at
high parallelism, by the splitter's own send cost). A
:class:`FiniteSource` bounds the run to a fixed tuple count — the paper's
"total execution time" metric is the time to drain such a source through
the region. :class:`InfiniteSource` supports open-ended runs that stop at a
time horizon instead.

:class:`RatedSource` is the odd one out: an *open-loop* source with its
own arrival process, so offered load is decoupled from the region's
service rate and can exceed it — the overload regime the other sources
cannot express (a pull-based source always runs exactly at capacity).
It is also where admission control attaches: arrivals are offered to a
shedding policy *before* sequence assignment, so the admitted stream
stays gap-free and ordered-merge semantics are untouched.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.streams.tuples import StreamTuple, TupleBlock, _column
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.overload.admission import AdmissionController
    from repro.sim.engine import Simulator

CostModel = Callable[[int], float]
"""Maps a tuple's sequence number to its base cost in integer multiplies."""


def constant_cost(multiplies: float) -> CostModel:
    """Cost model where every tuple costs the same (the paper's workload).

    The returned model carries a ``uniform_cost`` marker attribute so the
    block-native dataplane can build scalar-cost
    :class:`~repro.streams.tuples.TupleBlock` columns without evaluating
    the model once per tuple.
    """
    check_positive("multiplies", multiplies)

    def model(_seq: int) -> float:
        return multiplies

    model.uniform_cost = float(multiplies)
    return model


class TupleSource(ABC):
    """Produces the totally ordered tuple stream entering the splitter."""

    def __init__(self, cost_model: CostModel) -> None:
        self._cost_model = cost_model
        self._next_seq = 0
        # Constant-cost models carry the marker; cache it so the block
        # pull does not pay a getattr per dispatch cycle.
        self._uniform_cost = getattr(cost_model, "uniform_cost", None)

    @property
    def produced(self) -> int:
        """Tuples handed out so far."""
        return self._next_seq

    @abstractmethod
    def exhausted(self) -> bool:
        """Whether no further tuples will be produced."""

    def idle(self) -> bool:
        """Temporarily empty but not exhausted (more tuples will arrive).

        Pull-based sources are never idle: they either have the next
        tuple or are exhausted. Open-loop sources (:class:`RatedSource`)
        return ``True`` between arrivals; the splitter then parks and is
        woken by the source's availability callback instead of finishing.
        """
        return False

    def next_tuple(self) -> StreamTuple | None:
        """The next tuple in sequence order, or ``None`` when exhausted."""
        if self.exhausted():
            return None
        tup = StreamTuple(
            seq=self._next_seq,
            cost_multiplies=self._cost_model(self._next_seq),
        )
        self._next_seq += 1
        return tup

    def _block_limit(self, max_n: int) -> int:
        """Tuples available for an immediate block pull (subclass hook)."""
        return 0 if self.exhausted() else max_n

    def next_block(self, max_n: int) -> "TupleBlock | None":
        """Up to ``max_n`` next tuples as one contiguous column block.

        The block-native splitter's bulk pull: sequence numbers never
        materialize (they are the block's implicit range) and a
        constant-cost model (``uniform_cost`` marker) yields a scalar-cost
        block with no per-tuple work at all. Returns ``None`` when the
        source is exhausted or idle.
        """
        if max_n <= 0:
            raise ValueError(f"max_n must be positive, got {max_n}")
        n = self._block_limit(max_n)
        if n <= 0:
            return None
        start = self._next_seq
        uniform = self._uniform_cost
        if uniform is not None:
            block = TupleBlock.uniform(start, n, uniform)
        else:
            model = self._cost_model
            block = TupleBlock.from_costs(
                start, [model(seq) for seq in range(start, start + n)]
            )
        self._next_seq = start + n
        return block


class FiniteSource(TupleSource):
    """Exactly ``total`` tuples; used for execution-time experiments."""

    def __init__(self, total: int, cost_model: CostModel) -> None:
        super().__init__(cost_model)
        check_positive("total", total)
        self.total = int(total)

    def exhausted(self) -> bool:
        return self._next_seq >= self.total

    def _block_limit(self, max_n: int) -> int:
        return min(max_n, self.total - self._next_seq)


class InfiniteSource(TupleSource):
    """Unbounded stream; the run is stopped by a time horizon instead."""

    def exhausted(self) -> bool:
        return False


class RatedSource(TupleSource):
    """Open-loop arrivals at ``rate`` tuples/second, with admission control.

    Arrivals are scheduled on the simulator (deterministic inter-arrival
    ``1/rate``; :meth:`set_rate`/:meth:`scale_rate` change the pace from
    the next arrival on, which is how overload-burst faults are
    injected). Each arrival is offered to the attached
    :class:`~repro.overload.admission.AdmissionController` (if any)
    *before* it enters the backlog — shed tuples never receive a
    sequence number. Admitted arrivals queue with their arrival
    timestamp; :meth:`next_tuple` stamps that timestamp as the tuple's
    ``born_at``, so end-to-end latency includes the time spent waiting
    in the input queue (exactly the latency that grows without bound in
    the unprotected overload regime).

    The source must be :meth:`arm`-ed on a simulator before the region
    starts; ``on_available`` (typically
    :meth:`~repro.streams.splitter.Splitter.notify_available`) wakes a
    consumer that went idle between arrivals.
    """

    def __init__(
        self,
        rate: float,
        cost_model: CostModel,
        *,
        total: int | None = None,
    ) -> None:
        super().__init__(cost_model)
        check_positive("rate", rate)
        if total is not None:
            check_positive("total", total)
        self._rate = float(rate)
        #: Stop generating after this many arrivals (``None`` = open-ended).
        self.total = int(total) if total is not None else None
        #: Admission controller consulted per arrival (``None`` admits all).
        self.admission: "AdmissionController | None" = None
        #: Arrivals so far (admitted + shed).
        self.arrivals = 0
        #: Arrivals shed by admission control.
        self.tuples_shed = 0
        #: Peak backlog (admitted arrivals not yet pulled) — the memory
        #: bound the overload acceptance criteria assert on.
        self.max_backlog = 0
        self._queue: deque[float] = deque()
        self._sim: "Simulator | None" = None
        self._on_available: Callable[[], None] | None = None
        self._arrive_cb = self._arrive

    @property
    def rate(self) -> float:
        """Current offered rate in tuples/second."""
        return self._rate

    def set_rate(self, rate: float) -> None:
        """Change the offered rate from the next arrival on."""
        check_positive("rate", rate)
        self._rate = float(rate)

    def scale_rate(self, factor: float) -> None:
        """Multiply the offered rate (overload bursts scale, then unscale)."""
        check_positive("factor", factor)
        self.set_rate(self._rate * factor)

    def backlog(self) -> int:
        """Admitted arrivals waiting to be pulled by the splitter."""
        return len(self._queue)

    def arm(
        self,
        sim: "Simulator",
        on_available: Callable[[], None] | None = None,
    ) -> None:
        """Start the arrival process on ``sim``."""
        if self._sim is not None:
            raise RuntimeError("rated source already armed")
        self._sim = sim
        self._on_available = on_available
        sim.schedule_after(1.0 / self._rate, self._arrive_cb)

    def exhausted(self) -> bool:
        return (
            self.total is not None
            and self.arrivals >= self.total
            and not self._queue
        )

    def idle(self) -> bool:
        return not self._queue and not self.exhausted()

    def next_tuple(self) -> StreamTuple | None:
        if not self._queue:
            return None
        born = self._queue.popleft()
        tup = StreamTuple(
            seq=self._next_seq,
            cost_multiplies=self._cost_model(self._next_seq),
            born_at=born,
        )
        self._next_seq += 1
        return tup

    def _block_limit(self, max_n: int) -> int:
        return min(max_n, len(self._queue))

    def next_block(self, max_n: int) -> TupleBlock | None:
        """Drain up to ``max_n`` backlogged arrivals as one block.

        Arrival timestamps become the block's ``borns`` column, so the
        merger's latency accounting still starts at queue entry.
        """
        block = super().next_block(max_n)
        if block is not None:
            popleft = self._queue.popleft
            block.borns = _column([popleft() for _ in range(block.count)])
        return block

    def _arrive(self) -> None:
        sim = self._sim
        assert sim is not None
        self.arrivals += 1
        if self.admission is None or self.admission.offer(
            self.arrivals - 1, len(self._queue)
        ):
            self._queue.append(sim.now)
            if len(self._queue) > self.max_backlog:
                self.max_backlog = len(self._queue)
            if self._on_available is not None:
                self._on_available()
        else:
            self.tuples_shed += 1
        if self.total is None or self.arrivals < self.total:
            sim.schedule_after(1.0 / self._rate, self._arrive_cb)
