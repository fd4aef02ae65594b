"""Execute one experiment configuration under one policy.

``run_experiment(config, policy)`` builds a fresh simulator + region,
arms the external-load schedule, attaches the chosen policy —

* ``"rr"``          — round-robin, no balancing (the paper's ``RR``);
* ``"reroute"``     — transport-level re-routing (the Section 4.4 baseline);
* ``"lb-static"``   — the model without exploration decay;
* ``"lb-adaptive"`` — the full model (10% decay);
* ``"oracle"``      — ``Oracle*`` capacity-proportional weights, switched
  exactly at load-change times

— then samples everything once per ``config.sample_interval`` (the paper
samples each second) and returns a :class:`RunResult` with the scalar
metrics and time series the paper's figures plot.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

from repro.core.balancer import LoadBalancer, even_split
from repro.core.blocking_rate import BlockingRateEstimator
from repro.core.policies import (
    OraclePolicy,
    ReroutingPolicy,
    RoundRobinPolicy,
    WeightedPolicy,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.oracle import (
    oracle_schedule,
    proportional_weights,
    worker_capacities,
)
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RecoveryCoordinator, RecoveryLedger
from repro.faults.schedule import progress_actions
from repro.obs.console import ConsoleReporter
from repro.obs.export import write_exports
from repro.obs.hub import ObservabilityHub, ObsReport
from repro.overload.manager import OverloadManager
from repro.sim.engine import Simulator
from repro.streams.region import ParallelRegion
from repro.streams.sources import (
    FiniteSource,
    InfiniteSource,
    RatedSource,
    constant_cost,
)
from repro.util.perf import COUNTERS
from repro.util.timeseries import TimeSeries

POLICIES = ("rr", "reroute", "lb-static", "lb-adaptive", "oracle", "fixed")


@dataclass(slots=True)
class RunResult:
    """Everything measured in one run."""

    name: str
    policy: str
    n_workers: int
    #: Simulated time at which the finite tuple budget drained (None when
    #: the run had no budget or hit the horizon first).
    execution_time: float | None
    #: Whether a finite budget drained before the horizon.
    completed: bool
    #: Tuples emitted by the merger.
    emitted: int
    #: Simulated time when the run stopped.
    sim_time: float
    #: Region throughput per sampling interval (tuples/sec).
    throughput_series: TimeSeries
    #: Mean end-to-end region latency of tuples emitted per interval (s).
    latency_series: TimeSeries
    #: Allocation weight per connection over time (units of 1/resolution).
    weight_series: list[TimeSeries]
    #: Smoothed blocking rate per connection over time (sec blocked / sec).
    rate_series: list[TimeSeries]
    #: Clustering decisions over time: (time, clusters) snapshots.
    cluster_snapshots: list[tuple[float, list[list[int]]]]
    #: Tuples the splitter sent to a connection other than the routed one.
    rerouted: int
    #: Total tuples the splitter pushed into connections.
    total_sent: int
    #: Number of splitter blocking episodes.
    block_events: int
    #: Final allocation weights.
    final_weights: list[int] = field(default_factory=list)
    #: Failover episodes the recovery layer opened (0 without faults).
    quarantines: int = 0
    #: Fault-to-failover latency of the first episode (None without one).
    time_to_quarantine: float | None = None
    #: Failover-to-stable-weights latency of the first settled episode.
    time_to_reconverge: float | None = None
    #: Unacknowledged tuples resent to survivors at failovers.
    tuples_replayed: int = 0
    #: Sequence numbers skipped over instead of replayed (skip gap policy).
    tuples_lost: int = 0
    #: Simulator events fired during the run (performance diagnostic).
    events_processed: int = 0
    #: Wall-clock seconds the run took (performance diagnostic; excluded
    #: from any result digest — it varies run to run).
    wall_seconds: float = 0.0
    #: Open-loop arrivals offered to the region (0 without arrival_rate).
    tuples_offered: int = 0
    #: Arrivals shed by admission control before sequence assignment.
    tuples_shed: int = 0
    #: Peak source backlog — the input-queue memory bound.
    max_input_queue: int = 0
    #: Peak merger reordering-buffer occupancy.
    max_merger_pending: int = 0
    #: Flow-control pause episodes (merger -> splitter backpressure).
    flow_pauses: int = 0
    #: Simulated seconds the splitter spent paused by flow control.
    flow_paused_seconds: float = 0.0
    #: Overload-detector trips (healthy -> overloaded transitions).
    overload_trips: int = 0
    #: Simulated seconds the detector declared the region overloaded.
    overload_seconds: float = 0.0
    #: Control rounds the balancer's safe mode held the last-good weights.
    safe_mode_rounds: int = 0
    #: Times the balancer's safe mode tripped on oscillating adoptions.
    oscillation_trips: int = 0
    #: Source backlog over time (None unless the run tracked overload).
    queue_series: TimeSeries | None = None
    #: Merger pending occupancy over time (None unless tracked).
    pending_series: TimeSeries | None = None
    #: p99 end-to-end latency of tuples emitted per interval (None unless
    #: overload protection enabled the per-emit latency samples).
    p99_latency_series: TimeSeries | None = None
    #: Splitter dispatch cycles (0 unless the batched fast path ran).
    batches_dispatched: int = 0
    #: Mean realized tuples per dispatch batch (0.0 unless batched).
    batch_occupancy: float = 0.0
    #: Per-tuple events the batched dataplane avoided scheduling.
    events_coalesced: int = 0
    #: Supervised worker-process restarts (0 on the simulator backend,
    #: where crashed channels are revived by the recovery coordinator
    #: rather than respawned by a supervisor).
    worker_restarts: int = 0
    #: Frozen observability report (None unless the run was observed
    #: via ``RegionParams(observability=True)``).
    obs: ObsReport | None = None

    def shed_ratio(self) -> float:
        """Fraction of offered tuples shed before sequence assignment."""
        if self.tuples_offered == 0:
            return 0.0
        return self.tuples_shed / self.tuples_offered

    def final_throughput(self) -> float:
        """Mean throughput over the trailing tenth of the run.

        The paper's "final throughput ... indicative of the performance
        the configuration would achieve if it ran longer".
        """
        if not self.throughput_series:
            return 0.0
        return self.throughput_series.final_mean()

    def reroute_fraction(self) -> float:
        """Fraction of tuples re-routed (Section 4.4's headline numbers)."""
        return self.rerouted / self.total_sent if self.total_sent else 0.0

    def final_latency(self) -> float:
        """Mean region latency over the trailing tenth of the run."""
        if not self.latency_series:
            return 0.0
        return self.latency_series.final_mean()

    def mean_weight(self, connection: int, start: float, end: float) -> float:
        """Average allocation weight of ``connection`` over a time window."""
        window = self.weight_series[connection].window(start, end)
        return window.mean()

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        lines = [
            f"run {self.name!r} policy={self.policy} workers={self.n_workers}",
            f"  emitted={self.emitted} tuples in {self.sim_time:.1f}s "
            f"(completed={self.completed})",
        ]
        if self.execution_time is not None:
            lines.append(f"  execution_time={self.execution_time:.2f}s")
        lines.append(
            f"  final_throughput={self.final_throughput():.1f} tuples/s, "
            f"block_events={self.block_events}, "
            f"rerouted={self.reroute_fraction():.2%}"
        )
        if self.final_weights:
            lines.append(f"  final_weights={self.final_weights}")
        if self.quarantines:
            ttq = (
                f"{self.time_to_quarantine:.2f}s"
                if self.time_to_quarantine is not None
                else "n/a"
            )
            ttr = (
                f"{self.time_to_reconverge:.2f}s"
                if self.time_to_reconverge is not None
                else "n/a"
            )
            lines.append(
                f"  quarantines={self.quarantines} "
                f"(detect={ttq}, reconverge={ttr}), "
                f"replayed={self.tuples_replayed}, lost={self.tuples_lost}"
            )
        if self.worker_restarts:
            lines.append(
                f"  worker_restarts={self.worker_restarts}"
            )
        if self.tuples_offered:
            lines.append(
                f"  offered={self.tuples_offered}, "
                f"shed={self.tuples_shed} ({self.shed_ratio():.1%}), "
                f"max_queue={self.max_input_queue}, "
                f"max_pending={self.max_merger_pending}, "
                f"flow_pauses={self.flow_pauses}, "
                f"overloaded={self.overload_seconds:.1f}s"
            )
        return "\n".join(lines)


def run_experiment(
    config: ExperimentConfig,
    policy: str,
    *,
    record_series: bool = True,
    counter_reset_interval: float | None = None,
    fixed_weights: list[int] | None = None,
) -> RunResult:
    """Run ``config`` under ``policy`` and return the measurements.

    ``policy="fixed"`` applies ``fixed_weights`` for the whole run with no
    controller — the Figure 5 static-split experiments.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    if (policy == "fixed") != (fixed_weights is not None):
        raise ValueError("fixed_weights is required iff policy='fixed'")

    if config.region.backend == "process":
        # Real worker processes over real sockets (repro.proc). Imported
        # lazily so simulator runs never touch the process machinery.
        from repro.experiments.process_backend import run_process_experiment

        return run_process_experiment(
            config,
            policy,
            record_series=record_series,
            fixed_weights=fixed_weights,
        )

    sim = Simulator()
    placement = config.build_placement()
    cost_model = constant_cost(config.tuple_cost)
    rated_source: RatedSource | None = None
    if config.arrival_rate is not None:
        rated_source = RatedSource(
            config.arrival_rate, cost_model, total=config.total_tuples
        )
        source = rated_source
    elif config.total_tuples is not None:
        source = FiniteSource(config.total_tuples, cost_model)
    else:
        source = InfiniteSource(cost_model)

    n = config.n_workers
    resolution = config.balancer.resolution
    balancer: LoadBalancer | None = None
    oracle: OraclePolicy | None = None

    if policy == "rr":
        routing = RoundRobinPolicy(n)
    elif policy == "fixed":
        assert fixed_weights is not None
        routing = WeightedPolicy(fixed_weights)
    elif policy == "reroute":
        routing = ReroutingPolicy(n)
    elif policy == "oracle":
        oracle = OraclePolicy(oracle_schedule(config, resolution))
        routing = oracle
    else:
        balancer_config = config.balancer
        if policy == "lb-static" and balancer_config.decay != 0.0:
            balancer_config = dataclasses.replace(balancer_config, decay=0.0)
        balancer = LoadBalancer(n, balancer_config)
        routing = WeightedPolicy(balancer.weights)

    region = ParallelRegion(
        sim,
        source,
        routing,
        placement,
        params=config.region,
        load_multipliers=config.load_schedule.initial_multipliers(n),
        ordered=config.ordered,
    )
    config.load_schedule.arm(sim, region.workers)

    # Fault injection + recovery: only built when faults are scheduled, so
    # fault-free runs execute exactly the seed's code path (golden traces).
    injector: FaultInjector | None = None
    recovery: RecoveryCoordinator | None = None
    if not config.fault_schedule.empty():
        injector = FaultInjector(sim, region)
        recovery = RecoveryCoordinator(
            sim,
            region,
            balancer=balancer,
            routing=routing if balancer is not None else None,
            injector=injector,
            config=config.recovery,
        )
        recovery.start()
        config.fault_schedule.arm(sim, injector)

    # Overload management: only built when protection is on, so plain
    # runs execute exactly the seed's code path (golden traces). The
    # rated source itself is armed either way — an open-loop arrival
    # process is a workload choice, not a protection feature.
    overload_mgr: OverloadManager | None = None
    if config.region.overload_protection:
        overload_mgr = OverloadManager(
            sim, region, source=rated_source, config=config.overload
        )
        overload_mgr.start()
        region.merger.latency_samples = []
    if rated_source is not None:
        rated_source.arm(
            sim, on_available=region.splitter.notify_available
        )

    # Observability: only built when the region opted in, so default
    # runs install no recorder anywhere (golden traces byte-identical).
    hub: ObservabilityHub | None = None
    if config.region.observability:
        hub = ObservabilityHub(lambda: sim.now, config.obs)
        sim.attach_observability(hub)
        region.attach_observability(hub)
        # Legacy process-global model counters, routed through the
        # registry (they tally every balancer in the process).
        hub.registry.gauge_fn(
            "model_solver_calls_total",
            lambda: COUNTERS.solver_calls,
            help="Minimax RAP solver invocations (process-global)",
        )
        hub.registry.gauge_fn(
            "model_fits_total",
            lambda: COUNTERS.fits,
            help="Monotone-regression fits (process-global)",
        )
        hub.registry.gauge_fn(
            "model_table_builds_total",
            lambda: COUNTERS.table_builds,
            help="Full rate-function table materializations "
            "(process-global)",
        )
        if balancer is not None:
            balancer.attach_audit(hub.audit, lambda: sim.now)
            hub.link_round_source(lambda: balancer.rounds)
        if injector is not None:
            injector.attach_observability(hub)
        if recovery is not None:
            recovery.attach_observability(hub)
        if overload_mgr is not None:
            overload_mgr.attach_observability(hub)
        if config.obs.console_interval > 0:
            reporter = ConsoleReporter(hub)
            sim.call_every(config.obs.console_interval, reporter.tick)

    if oracle is not None:
        for when, weights in oracle.changes_after(0.0):
            sim.call_at(
                when, lambda ws=weights: oracle.set_weights(ws)
            )

    # Progress-triggered load changes (the dynamic sweeps' "an eighth
    # through the experiment" removals) and crashes, in one list. Oracle*
    # recomputes its capacity-proportional weights at each load change —
    # the paper's "it will change the allocation weights earlier than is
    # optimal", since queued backlog still reflects the old load. The hook
    # fires what ``merger.emitted`` has reached and returns the next
    # count it waits for, so the merger calls it at those counts only.
    progress = progress_actions(config.fault_schedule, config.load_schedule)
    if progress:
        multipliers = config.load_schedule.initial_multipliers(n)

        def set_load(worker: int, multiplier: float) -> None:
            multipliers[worker] = multiplier
            region.workers[worker].set_load_multiplier(multiplier)
            if oracle is not None:
                capacities = worker_capacities(
                    config, 0.0, multipliers=multipliers
                )
                oracle.set_weights(
                    proportional_weights(capacities, resolution)
                )

        def on_progress() -> float:
            while progress and region.merger.emitted >= progress[0][0]:
                _, action, args = progress.pop(0)
                if action == "set_load":
                    set_load(*args)
                else:
                    worker, restart_after = args
                    injector.crash(worker, restart_after=restart_after)
            return progress[0][0] if progress else math.inf

        # Nothing is emitted yet, so this first call only reads thresholds.
        region.merger.on_emitted(on_progress(), on_progress)

    # Recording infrastructure. Every policy gets a blocking-rate view so
    # in-depth figures can be drawn for baselines too; LB policies reuse
    # the balancer's own (identically configured) estimator.
    observer = (
        None
        if balancer is not None
        else BlockingRateEstimator(n)
    )
    throughput_series = TimeSeries("throughput")
    latency_series = TimeSeries("latency")
    weight_series = [TimeSeries(f"weight[{j}]") for j in range(n)]
    rate_series = [TimeSeries(f"blocking_rate[{j}]") for j in range(n)]
    cluster_snapshots: list[tuple[float, list[list[int]]]] = []
    track_overload = rated_source is not None or overload_mgr is not None
    queue_series = TimeSeries("input_queue") if track_overload else None
    pending_series = TimeSeries("merger_pending") if track_overload else None
    p99_series = TimeSeries("p99_latency") if track_overload else None
    last_emitted = 0
    last_latency_sum = 0.0
    last_latency_count = 0

    def current_weights() -> list[int]:
        if balancer is not None:
            return balancer.weights
        if isinstance(routing, WeightedPolicy):
            return routing.weights
        return even_split(resolution, n)

    def sample() -> None:
        nonlocal last_emitted, last_latency_sum, last_latency_count
        now = sim.now
        emitted = region.merger.emitted
        throughput_series.record(
            now, (emitted - last_emitted) / config.sample_interval
        )
        last_emitted = emitted
        latency_delta = region.merger.latency_seconds - last_latency_sum
        count_delta = region.merger.latency_count - last_latency_count
        if count_delta > 0:
            latency_series.record(now, latency_delta / count_delta)
        last_latency_sum = region.merger.latency_seconds
        last_latency_count = region.merger.latency_count

        counters = [c.read() for c in region.blocking_counters]
        if balancer is not None:
            new_weights = balancer.update(now, counters)
            if new_weights is not None:
                routing.set_weights(new_weights)
            rates = balancer.last_rates
            if config.balancer.clustering:
                cluster_snapshots.append((now, balancer.last_clusters))
        else:
            assert observer is not None
            observer.sample(now, counters)
            rates = observer.rates

        if record_series:
            weights = current_weights()
            for j in range(n):
                weight_series[j].record(now, weights[j])
                rate_series[j].record(now, rates[j])

        if track_overload:
            # Drain per-emit latency samples every interval regardless of
            # record_series — the list must stay bounded over long runs.
            samples = region.merger.latency_samples
            p99: float | None = None
            if samples:
                samples.sort()
                p99 = samples[int(0.99 * (len(samples) - 1))]
                samples.clear()
            if record_series:
                backlog = (
                    rated_source.backlog() if rated_source is not None else 0
                )
                queue_series.record(now, backlog)
                pending_series.record(now, region.merger.pending_count)
                if p99 is not None:
                    p99_series.record(now, p99)

    sim.call_every(config.sample_interval, sample)

    if counter_reset_interval is not None:
        def reset_counters() -> None:
            for counter in region.blocking_counters:
                counter.reset()

        sim.call_every(counter_reset_interval, reset_counters)

    completed = False

    if config.total_tuples is not None:
        def on_done() -> None:
            nonlocal completed
            completed = True
            sim.stop()

        region.merger.on_completion(config.total_tuples, on_done)

    region.start()
    wall_start = time.perf_counter()
    sim.run_until(config.horizon())
    wall_seconds = time.perf_counter() - wall_start

    obs_report: ObsReport | None = None
    if hub is not None:
        hub.finalize(sim.now)
        obs_report = hub.report()
        write_exports(obs_report, config.obs)

    execution_time = (
        region.merger.last_emit_time if completed else None
    )
    ledger = recovery.ledger if recovery is not None else RecoveryLedger()
    return RunResult(
        name=config.name,
        policy=policy,
        n_workers=n,
        execution_time=execution_time,
        completed=completed,
        emitted=region.merger.emitted,
        sim_time=sim.now,
        throughput_series=throughput_series,
        latency_series=latency_series,
        weight_series=weight_series,
        rate_series=rate_series,
        cluster_snapshots=cluster_snapshots,
        rerouted=region.splitter.rerouted,
        total_sent=region.splitter.tuples_sent,
        block_events=region.splitter.block_events,
        final_weights=current_weights(),
        quarantines=len(ledger.episodes),
        time_to_quarantine=ledger.time_to_quarantine(),
        time_to_reconverge=ledger.time_to_reconverge(),
        tuples_replayed=region.splitter.tuples_replayed,
        tuples_lost=region.merger.tuples_lost,
        events_processed=sim.events_processed,
        wall_seconds=wall_seconds,
        batches_dispatched=region.splitter.dispatch_stats.batches,
        batch_occupancy=region.splitter.dispatch_stats.mean_occupancy,
        events_coalesced=sim.events_coalesced,
        tuples_offered=(
            rated_source.arrivals if rated_source is not None else 0
        ),
        tuples_shed=(
            rated_source.tuples_shed if rated_source is not None else 0
        ),
        max_input_queue=(
            rated_source.max_backlog if rated_source is not None else 0
        ),
        max_merger_pending=region.merger.max_pending,
        flow_pauses=(
            overload_mgr.gate.pauses if overload_mgr is not None else 0
        ),
        flow_paused_seconds=region.splitter.flow_paused_seconds,
        overload_trips=(
            overload_mgr.detector.trips if overload_mgr is not None else 0
        ),
        overload_seconds=(
            overload_mgr.detector.overloaded_seconds
            if overload_mgr is not None
            else 0.0
        ),
        safe_mode_rounds=balancer.safe_rounds if balancer is not None else 0,
        oscillation_trips=(
            balancer.oscillation_trips if balancer is not None else 0
        ),
        queue_series=queue_series,
        pending_series=pending_series,
        p99_latency_series=p99_series,
        obs=obs_report,
    )
