"""Compile a :class:`~repro.streams.graph.StreamGraph` onto the simulator.

This is the runtime of paper Section 2: every operator becomes a
processing element (PE) with its own thread of control; every stream
becomes a bounded, flow-controlled connection; operators marked parallel
expand into *the* data-parallel region of the paper — a
:class:`~repro.streams.region.ParallelRegion`, the same splitter, worker
PEs and merger every experiment runs. Backpressure propagates end to end,
regions included: a PE blocked sending downstream stops consuming
upstream, exactly the mechanism the paper's blocking-rate metric taps.

Topology of a compiled parallel region (compare the paper's Figure 1):

                ┌──────────────── ParallelRegion ────────────────┐
    upstream ─► RegionInput ─► Splitter ══► WorkerPE × width ══► merger
                                  ▲                                │ on_emit
                                  └─ FlowControlGate ◄─ backlog ─ RegionExitPE ─► downstream

:class:`RegionInput` re-stamps *region-local* sequence numbers on entry
(wrapping the original tuple), the merger restores that arrival order
(ordered regions), and :class:`RegionExitPE` applies the operator and
unwraps — sequential semantics without constraining the rest of the
graph. A region has exactly one input stream. Attach the paper's
controller to any region with :meth:`Application.enable_load_balancing`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.balancer import BalancerConfig, LoadBalancer
from repro.core.policies import RoundRobinPolicy, WeightedPolicy
from repro.net.connection import SimulatedConnection
from repro.overload.flow import FlowControlGate
from repro.streams.graph import StreamGraph
from repro.streams.hosts import Host, Placement
from repro.streams.operators import Operator, SinkOp, SourceOp
from repro.streams.region import ParallelRegion, RegionParams
from repro.streams.tuples import StreamTuple
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.blocking import BlockingCounter
    from repro.sim.engine import Simulator
    from repro.streams.pe import WorkerPE

#: Multiplies a region's splitter spends sending one tuple.
SPLITTER_SEND_COST = 125.0


class _EmittingPE:
    """Shared machinery: emit a tuple to every output, blocking as needed."""

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.outputs: list[SimulatedConnection] = []
        self._emit_tuple: StreamTuple | None = None
        self._emit_index = 0
        #: Seconds spent blocked sending downstream.
        self.blocked_seconds = 0.0
        self._block_start: float | None = None

    def _begin_emit(self, tup: StreamTuple) -> bool:
        """Start sending ``tup`` to all outputs; True if done synchronously."""
        self._emit_tuple = tup
        self._emit_index = 0
        return self._continue_emit()

    def _continue_emit(self) -> bool:
        assert self._emit_tuple is not None
        while self._emit_index < len(self.outputs):
            conn = self.outputs[self._emit_index]
            if conn.send_nowait(self._emit_tuple):
                self._emit_index += 1
                continue
            self._block_start = self.sim.now
            conn.wait_for_send_space(self._on_send_space)
            return False
        self._emit_tuple = None
        return True

    def _on_send_space(self) -> None:
        assert self._block_start is not None
        blocked = self.sim.now - self._block_start
        self.blocked_seconds += blocked
        self.outputs[self._emit_index].blocking.add(blocked)
        self._block_start = None
        if self._continue_emit():
            self._after_emit()

    def _after_emit(self) -> None:
        """Hook: emission finished after having blocked."""
        raise NotImplementedError


class SourcePE(_EmittingPE):
    """Drives a :class:`SourceOp`: produce, emit, repeat."""

    def __init__(
        self, sim: "Simulator", source: SourceOp, host: Host
    ) -> None:
        super().__init__(sim, source.name)
        self.source = source
        self.host = host
        host.place(self)
        self.finished = False
        # One tuple is in production at a time: park it on self and
        # schedule a prebound callback instead of a closure per tuple.
        self._producing: StreamTuple | None = None
        self._emit_cb = self._emit

    def start(self, at: float = 0.0) -> None:
        """Begin producing at simulated time ``at``."""
        self.sim.call_at(at, self._produce)

    def _produce(self) -> None:
        tup = self.source.next_tuple()
        if tup is None:
            self.finished = True
            return
        cost = max(self.source.cost_multiplies, 1e-9)
        self._producing = tup
        self.sim.schedule_after(
            cost / self.host.per_pe_speed(), self._emit_cb
        )

    def _emit(self) -> None:
        tup = self._producing
        self._producing = None
        if self._begin_emit(tup):
            self._produce()

    def _after_emit(self) -> None:
        self._produce()


class OperatorPE(_EmittingPE):
    """One operator outside any parallel region."""

    def __init__(
        self, sim: "Simulator", operator: Operator, host: Host
    ) -> None:
        super().__init__(sim, operator.name)
        self.operator = operator
        self.host = host
        host.place(self)
        self.inputs: list[SimulatedConnection] = []
        self._busy = False
        self._next_input = 0
        self._load_multiplier = 1.0
        self.processed = 0
        self.dropped = 0
        # One tuple in service at a time (_busy guards): park it on self
        # and schedule one prebound callback instead of a closure per tuple.
        self._in_service: StreamTuple | None = None
        self._finish_cb = self._finish

    def set_load_multiplier(self, multiplier: float) -> None:
        """External load on this PE (paper's simulated load)."""
        check_positive("multiplier", multiplier)
        self._load_multiplier = multiplier

    def add_input(self, conn: SimulatedConnection) -> None:
        """Attach an upstream stream; deliveries wake this PE."""
        conn.on_deliver = self._maybe_start
        self.inputs.append(conn)

    def _maybe_start(self) -> None:
        # Sending downstream can synchronously cascade into fresh
        # deliveries on our inputs (buffer pumps run in one call chain),
        # so this entry point must be idempotent: never start a second
        # service while one is running or an emission is parked.
        if self._busy or self._emit_tuple is not None:
            return
        for offset in range(len(self.inputs)):
            idx = (self._next_input + offset) % len(self.inputs)
            if self.inputs[idx].recv_available() > 0:
                self._next_input = idx + 1
                # Claim the PE *before* taking: take() pumps buffers and
                # can synchronously re-enter this method.
                self._busy = True
                self._in_service = self.inputs[idx].take()
                cost = self.operator.cost_multiplies * self._load_multiplier
                self.sim.schedule_after(
                    max(cost, 1e-9) / self.host.per_pe_speed(),
                    self._finish_cb,
                )
                return

    def _finish(self) -> None:
        tup = self._in_service
        self._in_service = None
        self._busy = False
        self.processed += 1
        result = self.operator.apply(tup)
        if result is None:
            self.dropped += 1
        elif not self._begin_emit(result):
            return  # parked on a full stream; _after_emit resumes
        self._maybe_start()

    def _after_emit(self) -> None:
        self._maybe_start()


class SinkPE(OperatorPE):
    """Terminal consumer: applies the sink at its cost; no outputs."""

    def __init__(self, sim: "Simulator", sink: SinkOp, host: Host) -> None:
        super().__init__(sim, sink, host)
        self.sink = sink

    def _finish(self) -> None:
        # A consumed tuple is not a drop, so not OperatorPE._finish.
        tup = self._in_service
        self._in_service = None
        self._busy = False
        self.processed += 1
        self.sink.apply(tup)
        self._maybe_start()


class RegionInput:
    """Region entry: the splitter's pull source over the upstream stream.

    Re-stamps *region-local* sequence numbers on entry, wrapping the
    original tuple at the operator's cost (what a replica charges for it).
    Never exhausted: between deliveries it reports :meth:`idle`, so the
    splitter parks and the next delivery wakes it through
    :meth:`~repro.streams.splitter.Splitter.notify_available`.
    """

    def __init__(self, operator: Operator, host: Host) -> None:
        self.cost = max(operator.cost_multiplies, 1e-9)
        self.host = host
        host.place(self)
        #: The region's one upstream stream (the graph validates there is
        #: exactly one); wired by :meth:`Application._compile`.
        self.input: SimulatedConnection | None = None
        self._local_seq = 0

    def next_tuple(self) -> StreamTuple | None:
        if self.input.recv_available() == 0:
            return None
        wrapped = StreamTuple(
            seq=self._local_seq,
            cost_multiplies=self.cost,
            payload=self.input.take(),
        )
        self._local_seq += 1
        return wrapped

    def idle(self) -> bool:
        return True


class RegionExitPE(_EmittingPE):
    """Region exit: apply the operator, unwrap, forward downstream.

    Hung on the region merger's ``on_emit``, so it sees wrapped tuples in
    the order the region releases them (splitter arrival order if
    ordered). Replicas are stateless pure functions (Section 2), so the
    operator is applied here, once the replica has paid its cost; ``None``
    (a :class:`~repro.streams.operators.Filter` in an unordered region) is
    a drop. While downstream is full the tuples wait in :attr:`backlog`,
    whose length feeds :attr:`gate`: the region's splitter stops pulling
    at ``buffer_capacity``, the upstream stream fills, and its sender
    blocks — backpressure crosses the region.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        operator: Operator,
        host: Host,
        capacity: int,
    ) -> None:
        super().__init__(sim, name)
        self.operator = operator
        host.place(self)
        self.gate = FlowControlGate(high=capacity, low=capacity // 2)
        self.backlog: deque[StreamTuple] = deque()
        #: Peak backlog left parked by one delivery (diagnostic).
        self.max_backlog = 0
        self.dropped = 0

    def accept(self, wrapped: StreamTuple) -> None:
        """Take one tuple the merger released."""
        self.backlog.append(wrapped)
        self._after_emit()
        if len(self.backlog) > self.max_backlog:
            self.max_backlog = len(self.backlog)

    def _after_emit(self) -> None:
        """Send what is parked until downstream fills; report what is left."""
        backlog = self.backlog
        while backlog and self._emit_tuple is None:
            result = self.operator.apply(backlog.popleft().payload)
            if result is None:
                self.dropped += 1
            else:
                self._begin_emit(result)
        self.gate.update(len(backlog))


@dataclass(slots=True)
class ParallelRegionHandle:
    """Access to one compiled parallel region."""

    name: str
    region: ParallelRegion
    entry: RegionInput
    exit: RegionExitPE

    @property
    def replicas(self) -> list[WorkerPE]:
        """The operator's replicas, in connection order."""
        return self.region.workers

    @property
    def blocking_counters(self) -> "list[BlockingCounter]":
        """Per-replica-connection cumulative blocking counters."""
        return self.region.blocking_counters

    def set_weights(self, weights: list[int]) -> None:
        """Apply new allocation weights to the region's splitter."""
        policy = self.region.splitter.policy
        if not isinstance(policy, WeightedPolicy):
            raise RuntimeError(
                f"region {self.name!r} does not use a weighted policy"
            )
        policy.set_weights(weights)


@dataclass(slots=True)
class _CompiledNode:
    pe: object
    #: For parallel nodes, the handle; None otherwise.
    region: ParallelRegionHandle | None = None


@dataclass(slots=True)
class Application:
    """A compiled, runnable streaming application."""

    sim: "Simulator"
    graph: StreamGraph
    default_host: Host
    placement: dict[str, Host] = field(default_factory=dict)
    buffer_capacity: int = 32
    _nodes: list[_CompiledNode] = field(default_factory=list)
    _balancer_cancels: list = field(default_factory=list)
    _all_conns: list[SimulatedConnection] = field(default_factory=list)
    regions: dict[str, ParallelRegionHandle] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.graph.validate()
        self._compile()

    # ------------------------------------------------------------- compile

    def _host_for(self, name: str) -> Host:
        return self.placement.get(name, self.default_host)

    def _new_conn(self) -> SimulatedConnection:
        conn = SimulatedConnection(
            len(self._all_conns),
            send_capacity=self.buffer_capacity,
            recv_capacity=self.buffer_capacity,
        )
        self._all_conns.append(conn)
        return conn

    def _compile(self) -> None:
        order = self.graph.topological_order()
        compiled: dict[int, _CompiledNode] = {}

        for node in order:
            operator = self.graph.operators[node]
            host = self._host_for(operator.name)
            if isinstance(operator, SourceOp):
                compiled[node] = _CompiledNode(SourcePE(self.sim, operator, host))
            elif isinstance(operator, SinkOp):
                compiled[node] = _CompiledNode(SinkPE(self.sim, operator, host))
            elif node in self.graph.parallel:
                compiled[node] = self._compile_region(node, operator)
            else:
                compiled[node] = _CompiledNode(
                    OperatorPE(self.sim, operator, host)
                )

        # Every PE is placed, so host shares are final: price each region
        # splitter's per-tuple send on the host it runs on.
        for handle in self.regions.values():
            speed = handle.entry.host.per_pe_speed()
            overhead = SPLITTER_SEND_COST / speed
            handle.region.params.send_overhead = overhead
            handle.region.splitter.send_overhead = overhead

        # Wire the streams.
        for upstream, downstream in self.graph.edges:
            conn = self._new_conn()
            handle = compiled[downstream].region
            if handle is None:
                compiled[downstream].pe.add_input(conn)
            else:
                # The splitter pulls; a delivery only has to wake it.
                handle.entry.input = conn
                conn.on_deliver = handle.region.splitter.notify_available
            handle = compiled[upstream].region
            sender = compiled[upstream].pe if handle is None else handle.exit
            sender.outputs.append(conn)

        self._nodes = [compiled[i] for i in range(len(self.graph.operators))]

    def _compile_region(self, node: int, operator: Operator) -> _CompiledNode:
        annotation = self.graph.parallel[node]
        name = operator.name
        host = self._host_for(name)
        entry = RegionInput(operator, self._host_for(f"{name}.split"))
        exit_pe = RegionExitPE(
            self.sim,
            f"{name}.merge",
            operator,
            self._host_for(f"{name}.merge"),
            self.buffer_capacity,
        )
        region = ParallelRegion(
            self.sim,
            entry,
            RoundRobinPolicy(annotation.width),
            Placement(
                [
                    self.placement.get(f"{name}[{i}]", host)
                    for i in range(annotation.width)
                ]
            ),
            params=RegionParams(
                send_capacity=self.buffer_capacity,
                recv_capacity=self.buffer_capacity,
            ),
            ordered=annotation.ordered,
        )
        region.merger.on_emit = exit_pe.accept
        region.splitter.attach_flow_gate(exit_pe.gate)
        handle = ParallelRegionHandle(name, region, entry, exit_pe)
        self.regions[name] = handle
        return _CompiledNode(pe=handle, region=handle)

    # --------------------------------------------------------------- run

    def enable_load_balancing(
        self,
        region_name: str,
        config: BalancerConfig | None = None,
        *,
        interval: float = 1.0,
    ) -> LoadBalancer:
        """Attach the paper's controller to a parallel region."""
        handle = self.regions[region_name]
        balancer = LoadBalancer(len(handle.replicas), config)
        handle.region.splitter.policy = WeightedPolicy(balancer.weights)

        def control() -> None:
            counters = [c.read() for c in handle.blocking_counters]
            weights = balancer.update(self.sim.now, counters)
            if weights is not None:
                handle.set_weights(weights)

        self._balancer_cancels.append(self.sim.call_every(interval, control))
        return balancer

    def start(self, at: float = 0.0) -> None:
        """Start every source and every region's splitter."""
        for node in self._nodes:
            if isinstance(node.pe, SourcePE):
                node.pe.start(at)
        for handle in self.regions.values():
            handle.region.start(at)

    def run_until(self, end_time: float) -> None:
        """Advance the simulation."""
        self.sim.run_until(end_time)

    def operator_pe(self, name: str):
        """Look up a compiled PE (replicas via ``name[i]``)."""
        for node in self._nodes:
            handle = node.region
            if handle is None:
                if node.pe.name == name:
                    return node.pe
            elif handle.name == name:
                return handle
            else:
                for i, replica in enumerate(handle.replicas):
                    if name == f"{handle.name}[{i}]":
                        return replica
        raise KeyError(f"no PE named {name!r}")
