"""Experiment configuration.

An :class:`ExperimentConfig` fully describes one run: the region's width
and dataplane parameters, the hosts and the worker-to-host placement, the
tuple cost, the external-load schedule, and either a fixed tuple budget
(execution-time experiments) or a time horizon (in-depth experiments).

Host speeds are a free scale parameter: the paper's results depend only on
*ratios* (loads of 5x/10x/100x, fast-vs-slow hosts, splitter much faster
than any worker), so benches pick speeds that keep simulated runs cheap
while preserving every ratio. See DESIGN.md ("Time scaling").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.balancer import BalancerConfig
from repro.faults.recovery import RecoveryConfig
from repro.faults.schedule import FaultSchedule
from repro.obs.hub import ObservabilityConfig
from repro.overload.detector import OverloadConfig
from repro.streams.hosts import Host, Placement
from repro.streams.region import RegionParams
from repro.util.validation import check_positive
from repro.workloads.external_load import LoadSchedule


@dataclass(slots=True, frozen=True)
class HostSpec:
    """Recipe for a :class:`~repro.streams.hosts.Host`.

    ``slow()`` and ``fast()`` encode the paper's two machine types; the
    fast host has 2-way SMT (16 hardware threads) and a per-thread speed
    ratio matching the ~65/35 split the paper's Figure 11 converges to.
    """

    name: str
    cores: int = 8
    smt_per_core: int = 1
    thread_speed: float = 1e6
    smt_efficiency: float = 1.0

    def __post_init__(self) -> None:
        check_positive("cores", self.cores)
        check_positive("smt_per_core", self.smt_per_core)
        check_positive("thread_speed", self.thread_speed)

    @classmethod
    def slow(cls, thread_speed: float, name: str = "slow") -> "HostSpec":
        """The paper's X5365 host: 8 cores, no SMT."""
        return cls(name=name, cores=8, smt_per_core=1, thread_speed=thread_speed)

    @classmethod
    def fast(cls, slow_thread_speed: float, name: str = "fast", *, speed_ratio: float = 1.857) -> "HostSpec":
        """The paper's X5687 host: 8 cores, 2-way SMT, faster per thread.

        ``speed_ratio`` is fast-vs-slow per-thread speed; the default
        reproduces Figure 11's observed ~65/35 stable split for one PE on
        each host type.
        """
        return cls(
            name=name,
            cores=8,
            smt_per_core=2,
            thread_speed=slow_thread_speed * speed_ratio,
        )

    def build(self) -> Host:
        """Instantiate a fresh :class:`Host` (one per run; hosts hold state)."""
        return Host(
            self.name,
            cores=self.cores,
            smt_per_core=self.smt_per_core,
            thread_speed=self.thread_speed,
            smt_efficiency=self.smt_efficiency,
        )


@dataclass(slots=True)
class ExperimentConfig:
    """A complete description of one experiment run."""

    name: str
    n_workers: int
    tuple_cost: float
    host_specs: list[HostSpec]
    #: Index into ``host_specs`` for each worker.
    worker_host: list[int] | None = None
    load_schedule: LoadSchedule = field(default_factory=LoadSchedule.none)
    #: Finite tuple budget -> "total execution time" experiments.
    total_tuples: int | None = None
    #: Time horizon in simulated seconds -> in-depth experiments. Also the
    #: safety cap for finite runs.
    duration: float | None = None
    region: RegionParams = field(default_factory=RegionParams)
    #: Per-tuple cost on the splitter's machine, in integer-multiply
    #: equivalents. This sets the region's maximum ingest rate
    #: (``splitter_thread_speed / splitter_cost_multiplies``) — the
    #: source/splitter/merger overhead that caps scaling in the paper's
    #: system ("for a base cost of 1,000 integer multiplies per tuple,
    #: 8 PEs is the point at which additional parallelism does not improve
    #: performance" implies a per-tuple region overhead of ~1000/8 = 125
    #: multiplies, the default). Set ``None`` to use ``region.send_overhead``
    #: directly.
    splitter_cost_multiplies: float | None = 125.0
    #: Speed of the machine hosting splitter+merger (the paper keeps them
    #: on a separate host of the "slow" type). ``None`` -> host_specs[0].
    splitter_thread_speed: float | None = None
    sample_interval: float = 1.0
    balancer: BalancerConfig = field(default_factory=BalancerConfig)
    #: Enforce sequential semantics at the merger (the paper's default).
    #: ``False`` models parallel sinks / unordered production regions.
    ordered: bool = True
    #: Faults to inject during the run (none by default). A non-empty
    #: schedule forces ``region.fault_tolerant`` on and attaches the
    #: recovery layer (liveness monitor, quarantine, replay/skip).
    fault_schedule: FaultSchedule = field(default_factory=FaultSchedule.none)
    #: Detection/reintegration tunables, used when faults are scheduled.
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    #: Open-loop offered load in tuples/sec. ``None`` (the default) keeps
    #: the paper's pull-based saturating source; a rate decouples demand
    #: from capacity, which is how overload experiments offer more than
    #: the region can serve.
    arrival_rate: float | None = None
    #: Detection/shedding/flow-control tunables, used when
    #: ``region.overload_protection`` is on.
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    #: Exporter/reporter tunables, used when ``region.observability``
    #: is on (off by default: no recorder is built, golden traces stay
    #: byte-identical).
    obs: ObservabilityConfig = field(default_factory=ObservabilityConfig)

    def __post_init__(self) -> None:
        check_positive("n_workers", self.n_workers)
        check_positive("tuple_cost", self.tuple_cost)
        if not self.host_specs:
            raise ValueError("host_specs must be non-empty")
        if self.worker_host is None:
            # Default placement: one PE per core, filling hosts in order
            # and cycling if workers outnumber total cores.
            assignment: list[int] = []
            spec_idx, used = 0, 0
            for _ in range(self.n_workers):
                if used >= self.host_specs[spec_idx].cores:
                    spec_idx = (spec_idx + 1) % len(self.host_specs)
                    used = 0
                assignment.append(spec_idx)
                used += 1
            self.worker_host = assignment
        if len(self.worker_host) != self.n_workers:
            raise ValueError(
                f"worker_host has {len(self.worker_host)} entries for "
                f"{self.n_workers} workers"
            )
        if any(not 0 <= h < len(self.host_specs) for h in self.worker_host):
            raise ValueError("worker_host references an unknown host spec")
        if self.total_tuples is None and self.duration is None:
            raise ValueError("set total_tuples and/or duration")
        check_positive("sample_interval", self.sample_interval)
        if self.arrival_rate is not None:
            check_positive("arrival_rate", self.arrival_rate)
        if self.fault_schedule.bursts and self.arrival_rate is None:
            raise ValueError(
                "overload bursts scale an open-loop source: set "
                "arrival_rate"
            )
        self.fault_schedule.validate(self.n_workers)
        if not self.fault_schedule.empty() and not self.region.fault_tolerant:
            self.region.fault_tolerant = True
        if self.splitter_cost_multiplies is not None:
            check_positive(
                "splitter_cost_multiplies", self.splitter_cost_multiplies
            )
            speed = (
                self.splitter_thread_speed
                if self.splitter_thread_speed is not None
                else self.host_specs[0].thread_speed
            )
            self.region.send_overhead = self.splitter_cost_multiplies / speed

    def build_placement(self) -> Placement:
        """Fresh hosts + placement for one run."""
        hosts = [spec.build() for spec in self.host_specs]
        assert self.worker_host is not None
        return Placement(host_of=[hosts[h] for h in self.worker_host])

    def horizon(self) -> float:
        """Hard stop time for the simulation.

        Finite runs stop when the budget drains; the horizon is a safety
        net sized from a pessimistic throughput bound when ``duration``
        was not given.
        """
        if self.duration is not None:
            return self.duration
        assert self.total_tuples is not None
        # Pessimistic bound: the whole budget through the slowest worker.
        slowest = min(
            spec.thread_speed for spec in self.host_specs
        )
        worst_multiplier = max(
            [1.0] + [e.multiplier for e in self.load_schedule.events]
            + list(self.load_schedule.initial.values())
        )
        per_tuple = self.tuple_cost * worst_multiplier / slowest
        bound = 10.0 + 2.0 * self.total_tuples * per_tuple
        if self.arrival_rate is not None:
            # An open-loop source also paces the run: the budget cannot
            # drain faster than it arrives.
            bound = max(
                bound, 10.0 + 2.0 * self.total_tuples / self.arrival_rate
            )
        return bound

    def with_observability(
        self, obs: ObservabilityConfig | None = None
    ) -> "ExperimentConfig":
        """Copy with the observability recorder enabled.

        Flips ``region.observability`` on and (optionally) replaces the
        exporter configuration. The copy shares nothing mutable with the
        original, so a sweep can run instrumented and bare variants of
        one template side by side.
        """
        return replace(
            self,
            region=replace(self.region, observability=True),
            obs=obs if obs is not None else self.obs,
        )

    def with_batch_size(self, batch_size: int) -> "ExperimentConfig":
        """Copy with the region's batched fast path set to ``batch_size``.

        Everything else — workload, hosts, balancer, overheads — is
        unchanged, so a ``with_batch_size`` sweep isolates exactly the
        amortization effect (see EXPERIMENTS.md, "Batching").
        """
        check_positive("batch_size", batch_size)
        return replace(
            self, region=replace(self.region, batch_size=int(batch_size))
        )


def fault_recovery_scenario(
    *,
    n_workers: int = 4,
    crash_worker: int = 1,
    crash_at: float = 15.0,
    restart_after: float | None = 30.0,
    duration: float = 120.0,
    gap_policy: str = "replay",
) -> ExperimentConfig:
    """The canonical fault experiment: one PE crashes mid-run.

    A homogeneous region runs under moderate saturation; ``crash_worker``
    dies at ``crash_at`` and (by default) its process returns
    ``restart_after`` seconds later. The recovery layer quarantines the
    channel, replays its unacknowledged tuples to survivors (or skips them
    under ``gap_policy="skip"``), re-solves the allocation over survivors,
    and reintegrates the channel after the restart. The run's
    :class:`~repro.experiments.runner.RunResult` carries the recovery
    metrics: time-to-quarantine, time-to-reconverge, tuples replayed/lost.
    """
    speed = 2e5  # 0.05 s services, well under the 1 s sampling interval
    return ExperimentConfig(
        name=f"fault-recovery-{gap_policy}",
        n_workers=n_workers,
        tuple_cost=10_000,
        host_specs=[HostSpec("slow", thread_speed=speed)],
        worker_host=[0] * n_workers,
        duration=duration,
        # sigma ~= 1.25x the unloaded region's aggregate service rate:
        # saturated enough that blocking rates are informative, with slack
        # for survivors to absorb a failed channel's share.
        splitter_cost_multiplies=speed / (1.25 * n_workers * 20.0),
        fault_schedule=FaultSchedule.crash(
            crash_worker, at=crash_at, restart_after=restart_after
        ),
        recovery=RecoveryConfig(gap_policy=gap_policy),
    )


def overload_scenario(
    *,
    n_workers: int = 4,
    overload_factor: float = 2.0,
    duration: float = 120.0,
    shedding: str = "probabilistic",
    protection: bool = True,
    burst: tuple[float, float, float] | None = None,
    seed: int = 0,
) -> ExperimentConfig:
    """The canonical overload experiment: sustained demand past capacity.

    A homogeneous region with an aggregate capacity of ``20 * n_workers``
    tuples/sec faces an open-loop arrival stream at ``overload_factor``
    times that (2x by default — the regime where, unprotected, the input
    queue grows by a full capacity's worth every second). With
    ``protection=True`` the overload layer sheds the excess before
    sequence assignment, flow-controls the merger's reordering memory,
    and runs the balancer in safe mode; with ``protection=False`` the
    same offered load runs bare, which is the degradation contrast the
    acceptance criteria (and ``bench_overload_degradation``) measure.

    ``burst`` optionally schedules an extra ``(at, factor, duration)``
    demand burst on top via the fault layer's
    :class:`~repro.faults.schedule.OverloadBurstEvent`.
    """
    check_positive("overload_factor", overload_factor)
    speed = 2e5
    tuple_cost = 10_000  # 0.05 s per tuple -> 20 tuples/sec per worker
    capacity = n_workers * speed / tuple_cost
    fault_schedule = FaultSchedule.none()
    if burst is not None:
        at, factor, burst_duration = burst
        fault_schedule = FaultSchedule.overload_burst(
            at, factor, duration=burst_duration
        )
    suffix = "" if protection else "-unprotected"
    return ExperimentConfig(
        name=f"overload-{shedding}{suffix}",
        n_workers=n_workers,
        tuple_cost=tuple_cost,
        host_specs=[HostSpec("slow", thread_speed=speed)],
        worker_host=[0] * n_workers,
        duration=duration,
        arrival_rate=overload_factor * capacity,
        # Ingest far above any offered rate: the splitter must never be
        # the bottleneck, or blocking would measure the splitter instead
        # of the workers.
        splitter_cost_multiplies=speed / (8.0 * overload_factor * capacity),
        region=RegionParams(overload_protection=protection),
        overload=OverloadConfig(shedding=shedding, seed=seed),
        balancer=BalancerConfig(safe_mode=protection, max_churn=150),
        fault_schedule=fault_schedule,
    )
