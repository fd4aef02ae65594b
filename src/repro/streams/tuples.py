"""Stream tuples and the array-native tuple block.

Tuples are the structured data items flowing through the region. For the
paper's experiments the only property that matters is the *processing cost*,
expressed in integer multiplies (their workload is "a base cost of 1,000
integer multiplies per tuple", etc.). The sequence number is assigned by the
splitter's source and is what the ordered merger restores.

:class:`StreamTuple` is the per-tuple representation used by the
``batch_size=1`` dataplane (byte-identical to the pre-batching engine) and
by every per-tuple API. The batched dataplane (``batch_size > 1``) instead
moves :class:`TupleBlock` objects — contiguous *columns* of tuples. A block
never stores N Python objects: sequence numbers are an implicit
``range(start, start + count)``, and cost/birth-time are either a shared
scalar (the common constant-cost workload) or a contiguous ``array('d')``
column. Splitting, routing, transferring and merging a run of B tuples is
then O(blocks), not O(B).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Sequence


def _column(values: "Sequence[float]") -> array:
    """A contiguous float64 column."""
    return values if isinstance(values, array) else array("d", values)


@dataclass(slots=True)
class StreamTuple:
    """One data item in the stream.

    ``seq``
        Global sequence number in arrival order at the splitter. The merger
        must emit tuples in exactly this order (sequential semantics).
    ``cost_multiplies``
        Base processing cost in integer multiplies. The worker's *actual*
        service time also depends on its host speed and any external load
        multiplier in force.
    ``payload``
        Opaque application data; unused by the runtime.
    ``born_at``
        Simulated time the tuple entered the region (stamped by the
        splitter on its first send attempt); lets the merger compute
        end-to-end region latency. ``None`` until stamped.
    """

    seq: int
    cost_multiplies: float
    payload: Any = field(default=None)
    born_at: float | None = field(default=None)

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValueError(f"seq must be non-negative, got {self.seq}")
        if self.cost_multiplies <= 0:
            raise ValueError(
                f"cost_multiplies must be positive, got {self.cost_multiplies}"
            )


class TupleBlock:
    """A contiguous run of tuples stored as columns, not objects.

    ``seq`` values are implicit: the block covers exactly
    ``range(start, start + count)``. Cost is either the shared scalar
    ``cost`` (constant-cost workloads — the paper's) or the per-tuple
    column ``costs``; birth time is either the shared scalar ``born`` or
    the per-tuple column ``borns`` (open-loop sources stamp arrival
    times), or both ``None`` while unstamped. Exactly one of each pair is
    set once populated.

    Blocks are cheap to split at any tuple boundary (column slices), so
    partial bulk sends, buffer-capacity cuts, and apportionment all
    operate on whole blocks.
    """

    __slots__ = ("start", "count", "cost", "costs", "born", "borns")

    def __init__(
        self,
        start: int,
        count: int,
        *,
        cost: float | None = None,
        costs=None,
        born: float | None = None,
        borns=None,
    ) -> None:
        self.start = start
        self.count = count
        self.cost = cost
        self.costs = costs
        self.born = born
        self.borns = borns

    @classmethod
    def uniform(
        cls, start: int, count: int, cost: float, born: float | None = None
    ) -> "TupleBlock":
        """A block whose tuples all share one cost (the common case).

        Built with ``__new__`` like :meth:`split`: one block is created
        per dispatch cycle, so keyword argument binding is measurable.
        """
        block = cls.__new__(cls)
        block.start = start
        block.count = count
        block.cost = cost
        block.costs = None
        block.born = born
        block.borns = None
        return block

    @classmethod
    def from_costs(
        cls, start: int, costs: "Sequence[float]", borns=None
    ) -> "TupleBlock":
        """A block with a per-tuple cost column (and optional born column)."""
        return cls(
            start,
            len(costs),
            costs=_column(costs),
            borns=None if borns is None else _column(borns),
        )

    @property
    def end(self) -> int:
        """One past the last sequence number in the block."""
        return self.start + self.count

    def __len__(self) -> int:
        return self.count

    def cut(self, offset: int, count: int) -> "TupleBlock":
        """The ``count`` tuples from ``offset`` on, as one new block.

        Built with ``__new__`` rather than the keyword constructor: cuts
        happen on the dispatch/transport hot path (chunk carving, partial
        acks, buffer boundaries), where argument binding is measurable.
        """
        cls = TupleBlock
        part = cls.__new__(cls)
        part.start = self.start + offset
        part.count = count
        part.cost = self.cost
        part.born = self.born
        costs = self.costs
        part.costs = None if costs is None else costs[offset : offset + count]
        borns = self.borns
        part.borns = None if borns is None else borns[offset : offset + count]
        return part

    def split(self, k: int) -> "tuple[TupleBlock, TupleBlock]":
        """Split into ``(first k tuples, remainder)``; columns are sliced."""
        return self.cut(0, k), self.cut(k, self.count - k)

    def born_at(self, i: int) -> float | None:
        """Birth stamp of the block's ``i``-th tuple (``None`` unstamped)."""
        if self.borns is not None:
            return self.borns[i]
        return self.born

    def materialize(self) -> "list[StreamTuple]":
        """Expand into per-tuple objects (slow paths and emit hooks only)."""
        start = self.start
        costs = self.costs
        borns = self.borns
        cost = self.cost
        born = self.born
        out = []
        for i in range(self.count):
            tup = StreamTuple.__new__(StreamTuple)
            tup.seq = start + i
            tup.cost_multiplies = cost if costs is None else costs[i]
            tup.payload = None
            tup.born_at = born if borns is None else borns[i]
            out.append(tup)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TupleBlock([{self.start}, {self.end}), "
            f"cost={self.cost if self.cost is not None else 'column'})"
        )
