"""Assembly of a complete ordered data-parallel region.

``ParallelRegion`` wires source -> splitter -> N connections -> N worker
PEs -> ordered merger inside one simulator, with the placement mapping
workers to hosts. This is the object every experiment and example builds;
the load-balancing controller attaches to it via the blocking counters and
the routing policy's weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.net.connection import SimulatedConnection
from repro.streams.merger import OrderedMerger, UnorderedMerger
from repro.streams.pe import WorkerPE
from repro.streams.splitter import RegionStalledError, RoutingPolicy, Splitter
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.blocking import BlockingCounter
    from repro.sim.engine import Simulator
    from repro.streams.hosts import Placement
    from repro.streams.sources import TupleSource


@dataclass(slots=True)
class RegionParams:
    """Dataplane parameters shared by every connection in the region.

    The defaults model the paper's setup: two OS socket buffers per
    connection (sized in tuples) with immediate transfers between them
    (InfiniBand's wire latency is negligible), and a splitter whose
    per-tuple send cost is small relative to worker service times, so
    workers are the bottleneck until parallelism is high.
    """

    send_capacity: int = 32
    recv_capacity: int = 32
    #: Enable the failure-recovery machinery: the splitter tracks in-flight
    #: blocks for replay, workers ack each service run and schedule
    #: cancellable completions so a crash can revoke the run in service.
    #: Fault tolerance runs the block path at every ``batch_size``
    #: (B = 1 included, where it schedules the per-tuple path's events).
    #: Off by default — the plain hot path is byte-identical to a region
    #: without fault support.
    fault_tolerant: bool = False
    #: Allow the overload-management layer (:mod:`repro.overload`) to
    #: attach: admission control at the source, merger->splitter flow
    #: control, and the overload detector. Off by default — with it off
    #: no hook is installed and golden traces are byte-identical to a
    #: region without overload support.
    overload_protection: bool = False
    send_overhead: float = 1e-5
    #: Relative service-time noise per worker (0 = deterministic; see
    #: :class:`~repro.streams.pe.WorkerPE`). Seeded by ``seed``.
    service_jitter: float = 0.0
    seed: int = 0
    #: Batched dataplane: the splitter pulls and apportions up to this
    #: many tuples per dispatch cycle, workers service runs with one
    #: completion event, and the merger bulk-accepts each run. 1 (the
    #: default) is the per-tuple path unless ``fault_tolerant`` is set —
    #: the per-tuple path serves only plain B = 1 regions, and golden
    #: traces are byte-identical to a region without batching support.
    #: Larger values amortize the per-tuple constant factor at the cost
    #: of coarser micro-timing (see EXPERIMENTS.md, "Batching").
    batch_size: int = 1
    #: Attach the observability subsystem (:mod:`repro.obs`): metrics
    #: registry, decision audit log, span tracing, and exporters. Off by
    #: default — no recorder is installed, every instrumentation check
    #: short-circuits on ``None``, and golden traces are byte-identical
    #: to a region without observability support.
    observability: bool = False
    #: Execution backend. ``"sim"`` (the default) is the discrete-event
    #: simulator — the workhorse for every experiment, byte-identical to
    #: the seed. ``"process"`` runs the region as real OS processes over
    #: real sockets (:mod:`repro.proc`): the supervisor spawns one worker
    #: process per slot, faults become real signals, and all timing is
    #: wall-clock. The experiment runner dispatches on this field.
    backend: str = "sim"

    def __post_init__(self) -> None:
        if self.backend not in ("sim", "process"):
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"choose 'sim' or 'process'"
            )
        check_positive("send_capacity", self.send_capacity)
        check_positive("recv_capacity", self.recv_capacity)
        check_positive("send_overhead", self.send_overhead)
        check_positive("batch_size", self.batch_size)
        if not 0.0 <= self.service_jitter <= 1.0:
            raise ValueError(
                f"service_jitter must be in [0, 1], got {self.service_jitter}"
            )


class ParallelRegion:
    """A splitter, N connections/workers, and an ordered merger."""

    def __init__(
        self,
        sim: "Simulator",
        source: "TupleSource",
        policy: RoutingPolicy,
        placement: "Placement",
        *,
        params: RegionParams | None = None,
        load_multipliers: list[float] | None = None,
        ordered: bool = True,
    ) -> None:
        n_workers = len(placement)
        if n_workers == 0:
            raise ValueError("placement must contain at least one worker")
        if load_multipliers is not None and len(load_multipliers) != n_workers:
            raise ValueError(
                f"load_multipliers has {len(load_multipliers)} entries "
                f"for {n_workers} workers"
            )
        self.sim = sim
        self.params = params or RegionParams()
        #: Whether sequential semantics are enforced at the back of the
        #: region (the paper's default; ``False`` models parallel sinks /
        #: the production annotation that drops ordering).
        self.ordered = ordered
        self.merger = OrderedMerger(sim) if ordered else UnorderedMerger(sim)
        # The one decision between the two paths: the splitter and the
        # workers follow their connections' mode.
        block_mode = self.params.batch_size > 1 or self.params.fault_tolerant
        self.connections = [
            SimulatedConnection(
                i,
                send_capacity=self.params.send_capacity,
                recv_capacity=self.params.recv_capacity,
                block_mode=block_mode,
            )
            for i in range(n_workers)
        ]
        self.workers = [
            WorkerPE(
                sim,
                i,
                self.connections[i],
                placement[i],
                self.merger,
                load_multiplier=(
                    load_multipliers[i] if load_multipliers is not None else 1.0
                ),
                service_jitter=self.params.service_jitter,
                seed=self.params.seed,
                fault_tolerant=self.params.fault_tolerant,
                batch_size=self.params.batch_size,
            )
            for i in range(n_workers)
        ]
        self.splitter = Splitter(
            sim,
            source,
            self.connections,
            policy,
            send_overhead=self.params.send_overhead,
            fault_tolerant=self.params.fault_tolerant,
            batch_size=self.params.batch_size,
        )
        if self.params.fault_tolerant:
            # Each completed service run is acknowledged once.
            for worker in self.workers:
                worker.on_processed_run = self.splitter.acknowledge_runs

    @property
    def n_workers(self) -> int:
        """Width of the parallel region."""
        return len(self.workers)

    @property
    def blocking_counters(self) -> list["BlockingCounter"]:
        """Per-connection cumulative blocking counters, in worker order."""
        return [conn.blocking for conn in self.connections]

    def attach_observability(self, hub) -> None:
        """Wire the observability hub through the whole dataplane.

        Registers splitter/merger/worker/connection instruments and arms
        span recording. Idempotent per hub (re-registration returns the
        existing instruments); never called unless
        ``RegionParams(observability=True)`` opted the run in.
        """
        self.splitter.attach_observability(hub)
        self.merger.attach_observability(hub)
        registry = hub.registry
        for j, conn in enumerate(self.connections):
            registry.gauge_fn(
                "connection_blocking_seconds_total",
                (lambda c: lambda: c.blocking.lifetime_seconds)(conn),
                help="Lifetime splitter blocking charged to the connection",
                connection=str(j),
            )
            registry.gauge_fn(
                "connection_blocking_episodes_total",
                (lambda c: lambda: c.blocking.lifetime_episodes)(conn),
                help="Lifetime blocking episodes on the connection",
                connection=str(j),
            )
        for worker in self.workers:
            label = str(worker.pe_id)
            registry.gauge_fn(
                "worker_tuples_processed_total",
                (lambda w: lambda: w.tuples_processed)(worker),
                help="Tuples fully processed by the PE",
                worker=label,
            )
            registry.gauge_fn(
                "worker_busy_seconds_total",
                (lambda w: lambda: w.busy_seconds)(worker),
                help="Seconds the PE spent servicing tuples",
                worker=label,
            )
            registry.gauge_fn(
                "worker_alive",
                (lambda w: lambda: 1.0 if w.alive else 0.0)(worker),
                help="Whether the PE process is up",
                worker=label,
            )

    def start(self, at: float = 0.0) -> None:
        """Begin streaming at simulated time ``at``."""
        self.splitter.start(at)

    # ------------------------------------------------------------- recovery

    def fail_channel(
        self, channel: int, *, replay: bool = True, allow_stall: bool = False
    ) -> list[int]:
        """Kill channel ``channel`` end to end and recover its tuples.

        Halts the worker (revoking any run in service — it is still in
        the retransmit buffer), drops the connection's buffered tuples,
        and queues every unacknowledged tuple for replay to the surviving
        channels. With ``replay=False`` (the *skip* gap policy) nothing is
        replayed and the sequence numbers are returned.

        Failing the last live channel raises
        :class:`~repro.streams.splitter.RegionStalledError` before any
        state changes, unless ``allow_stall=True`` promises a later
        :meth:`restore_channel` (the recovery layer's case).

        Returns the sequence numbers that will **not** be replayed; the
        caller must route them to :meth:`OrderedMerger.mark_lost` (after
        its gap timeout) so the merger does not wait forever.
        """
        if not self.params.fault_tolerant:
            raise RuntimeError(
                "fail_channel requires RegionParams(fault_tolerant=True)"
            )
        splitter = self.splitter
        if (
            not allow_stall
            and splitter.live[channel]
            and sum(splitter.live) <= 1
        ):
            # Check before halting the worker: the splitter's own guard
            # would fire only after this method has mutated the channel.
            raise RegionStalledError(
                f"failing channel {channel} leaves no live channel: the "
                "region is stalled. Restore another channel first, or "
                "pass allow_stall=True if a recovery layer will restore "
                "one later."
            )
        self.workers[channel].halt()
        self.connections[channel].fail()
        _, lost = splitter.fail_channel(
            channel, replay=replay, allow_stall=allow_stall
        )
        return lost

    def restore_channel(self, channel: int) -> None:
        """Bring a failed channel back: fresh transport, worker resumed."""
        self.connections[channel].reset()
        self.workers[channel].resume()
        self.splitter.restore_channel(channel)

    def total_capacity(self) -> float:
        """Aggregate worker service capacity in tuples/sec for unit cost.

        Useful for sizing experiments; actual tuple rates divide this by
        the tuple cost in multiplies and each worker's load multiplier.
        """
        return sum(w.host.per_pe_speed() / w.load_multiplier for w in self.workers)
