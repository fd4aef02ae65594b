"""Operators: the logical units of computation (paper Section 2).

SPL applications "are expressed in terms of *operators* and *streams*,
where the operators express a computation, and different operators are
connected by streams". An operator consumes a tuple from an input stream,
performs some computation (modelled as a cost in integer multiplies), and
potentially emits a result tuple downstream.

These classes are *logical* descriptions; :mod:`repro.streams.application`
compiles a graph of them into processing elements running on the
simulator, with real bounded streams and end-to-end backpressure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from typing import Any

from repro.streams.tuples import StreamTuple
from repro.util.validation import check_non_negative, check_positive


class Operator(ABC):
    """A logical operator: per-tuple cost plus an optional transform."""

    def __init__(self, name: str, cost_multiplies: float) -> None:
        if not name:
            raise ValueError("operators need a name")
        check_non_negative("cost_multiplies", cost_multiplies)
        self.name = name
        self.cost_multiplies = float(cost_multiplies)

    @abstractmethod
    def apply(self, tup: StreamTuple) -> StreamTuple | None:
        """Process one tuple; return the result tuple or ``None`` to drop.

        Implementations must be stateless for operators placed inside a
        data-parallel region (the paper's requirement: "stateless PEs are
        pure functions").
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r}, cost={self.cost_multiplies:g})"


class PassThrough(Operator):
    """Forwards tuples unchanged; pure per-tuple cost.

    The paper's evaluation workload is exactly this: "the base cost of
    processing a tuple is N integer multiplies".
    """

    def apply(self, tup: StreamTuple) -> StreamTuple:
        return tup


class Functor(Operator):
    """Transforms the payload with a user function (SPL's ``Functor``)."""

    def __init__(
        self,
        name: str,
        cost_multiplies: float,
        transform: Callable[[Any], Any],
    ) -> None:
        super().__init__(name, cost_multiplies)
        self.transform = transform

    def apply(self, tup: StreamTuple) -> StreamTuple:
        return StreamTuple(
            seq=tup.seq,
            cost_multiplies=tup.cost_multiplies,
            payload=self.transform(tup.payload),
        )


class Filter(Operator):
    """Drops tuples failing a predicate (SPL's ``Filter``).

    Filters may not appear inside an *ordered* parallel region: the merger
    would wait forever for dropped sequence numbers.
    """

    def __init__(
        self,
        name: str,
        cost_multiplies: float,
        predicate: Callable[[Any], bool],
    ) -> None:
        super().__init__(name, cost_multiplies)
        self.predicate = predicate

    def apply(self, tup: StreamTuple) -> StreamTuple | None:
        return tup if self.predicate(tup.payload) else None


class SourceOp(Operator):
    """Produces the stream: ``make_payload(seq)`` at ``cost`` per tuple.

    ``total`` bounds production (``None`` = unbounded, stopped by the
    simulation horizon). The per-tuple production cost is what gates the
    whole application when downstream capacity is ample — the sigma of
    the experiment configurations.
    """

    def __init__(
        self,
        name: str,
        cost_multiplies: float,
        *,
        tuple_cost: float,
        total: int | None = None,
        make_payload: Callable[[int], Any] | None = None,
    ) -> None:
        super().__init__(name, cost_multiplies)
        check_positive("tuple_cost", tuple_cost)
        if total is not None:
            check_positive("total", total)
        self.tuple_cost = float(tuple_cost)
        self.total = total
        self.make_payload = make_payload or (lambda seq: None)
        self._next_seq = 0

    @property
    def produced(self) -> int:
        """Tuples produced so far."""
        return self._next_seq

    def next_tuple(self) -> StreamTuple | None:
        """Produce the next tuple, or ``None`` when exhausted."""
        if self.total is not None and self._next_seq >= self.total:
            return None
        tup = StreamTuple(
            seq=self._next_seq,
            cost_multiplies=self.tuple_cost,
            payload=self.make_payload(self._next_seq),
        )
        self._next_seq += 1
        return tup

    def apply(self, tup: StreamTuple) -> StreamTuple:  # pragma: no cover
        raise RuntimeError("sources do not process tuples")


class SinkOp(Operator):
    """Consumes tuples at a per-tuple cost; counts and optionally calls out."""

    def __init__(
        self,
        name: str,
        cost_multiplies: float = 0.0,
        *,
        on_tuple: Callable[[StreamTuple], None] | None = None,
    ) -> None:
        super().__init__(name, cost_multiplies)
        self.on_tuple = on_tuple
        self.consumed = 0

    def apply(self, tup: StreamTuple) -> None:
        self.consumed += 1
        if self.on_tuple is not None:
            self.on_tuple(tup)
        return None
