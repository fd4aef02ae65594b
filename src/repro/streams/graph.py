"""Dataflow graphs of operators and streams (paper Section 2, Figure 1).

A :class:`StreamGraph` is the logical application: operators as nodes,
streams as directed edges. The three forms of parallelism the paper
describes all have direct expression:

* **pipeline parallelism** — a chain ``a >> b >> c``: different operators
  process different tuples concurrently;
* **task parallelism** — one upstream connected to several downstreams:
  each receives *the same* tuples ("they receive the same tuples, yet
  perform different operations");
* **data parallelism** — :meth:`StreamGraph.parallelize` marks an
  operator for replication; compilation inserts a splitter and (ordered)
  merger around ``width`` replicas, exactly the region the paper's load
  balancer controls.

Graphs are validated (acyclic, sources/sinks at the right ends, stateless
constraints for ordered regions) and compiled onto the simulator by
:mod:`repro.streams.application`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.streams.operators import Filter, Operator, SinkOp, SourceOp
from repro.util.validation import check_positive


class GraphError(ValueError):
    """The graph violates a structural rule."""


@dataclass(slots=True)
class ParallelAnnotation:
    """Replication request for one operator (a data-parallel region)."""

    width: int
    ordered: bool = True

    def __post_init__(self) -> None:
        check_positive("width", self.width)


@dataclass(slots=True)
class StreamGraph:
    """Operators plus streams; build with :meth:`add` and :meth:`connect`."""

    operators: list[Operator] = field(default_factory=list)
    #: Directed edges as (upstream index, downstream index).
    edges: list[tuple[int, int]] = field(default_factory=list)
    #: Parallel-region annotations by operator index.
    parallel: dict[int, ParallelAnnotation] = field(default_factory=dict)

    # ---------------------------------------------------------------- build

    def add(self, operator: Operator) -> int:
        """Add an operator; returns its node id."""
        if any(op.name == operator.name for op in self.operators):
            raise GraphError(f"duplicate operator name {operator.name!r}")
        self.operators.append(operator)
        return len(self.operators) - 1

    def connect(self, upstream: int, downstream: int) -> None:
        """Add a stream from ``upstream`` to ``downstream``."""
        for node in (upstream, downstream):
            if not 0 <= node < len(self.operators):
                raise GraphError(f"unknown operator id {node}")
        if upstream == downstream:
            raise GraphError("an operator cannot stream to itself")
        if (upstream, downstream) in self.edges:
            raise GraphError(
                f"duplicate stream {upstream} -> {downstream}"
            )
        self.edges.append((upstream, downstream))

    def chain(self, *nodes: int) -> None:
        """Connect ``nodes`` into a pipeline."""
        for a, b in zip(nodes, nodes[1:]):
            self.connect(a, b)

    def parallelize(
        self, node: int, width: int, *, ordered: bool = True
    ) -> None:
        """Mark ``node`` as a data-parallel region of ``width`` replicas."""
        if not 0 <= node < len(self.operators):
            raise GraphError(f"unknown operator id {node}")
        operator = self.operators[node]
        if isinstance(operator, (SourceOp, SinkOp)):
            raise GraphError("sources and sinks cannot be parallelized")
        if ordered and isinstance(operator, Filter):
            raise GraphError(
                "a Filter inside an ordered region would starve the merger; "
                "use ordered=False"
            )
        self.parallel[node] = ParallelAnnotation(width=width, ordered=ordered)

    # ------------------------------------------------------------- queries

    def upstream_of(self, node: int) -> list[int]:
        """Nodes streaming into ``node``."""
        return [a for a, b in self.edges if b == node]

    def downstream_of(self, node: int) -> list[int]:
        """Nodes ``node`` streams to."""
        return [b for a, b in self.edges if a == node]

    def sources(self) -> list[int]:
        """Nodes with no inputs (must all be :class:`SourceOp`)."""
        targets = {b for _a, b in self.edges}
        return [i for i in range(len(self.operators)) if i not in targets]

    def sinks(self) -> list[int]:
        """Nodes with no outputs (must all be :class:`SinkOp`)."""
        origins = {a for a, _b in self.edges}
        return [i for i in range(len(self.operators)) if i not in origins]

    def topological_order(self) -> list[int]:
        """Nodes in dependency order; raises on cycles."""
        indegree = [0] * len(self.operators)
        for _a, b in self.edges:
            indegree[b] += 1
        ready = [i for i, d in enumerate(indegree) if d == 0]
        order: list[int] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for child in self.downstream_of(node):
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(self.operators):
            raise GraphError("the graph contains a cycle")
        return order

    # ----------------------------------------------------------- validation

    def validate(self) -> None:
        """Check every structural rule; raises :class:`GraphError`."""
        if not self.operators:
            raise GraphError("empty graph")
        self.topological_order()
        for node in self.sources():
            if not isinstance(self.operators[node], SourceOp):
                raise GraphError(
                    f"operator {self.operators[node].name!r} has no inputs "
                    "but is not a SourceOp"
                )
        for node in self.sinks():
            if not isinstance(self.operators[node], SinkOp):
                raise GraphError(
                    f"operator {self.operators[node].name!r} has no outputs "
                    "but is not a SinkOp"
                )
        if not self.sources():
            raise GraphError("the graph needs at least one source")
        if not self.sinks():
            raise GraphError("the graph needs at least one sink")
        for node in self.parallel:
            # The paper's splitter has one input: it re-stamps
            # region-local sequence numbers on that stream (the order an
            # ordered region preserves) and is the single thread that
            # blocks on it, ordered or not.
            if len(self.upstream_of(node)) != 1:
                raise GraphError(
                    f"parallel region {self.operators[node].name!r} "
                    "must have exactly one input stream"
                )
