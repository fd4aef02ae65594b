"""The seven workloads: what each runs and what it measures natively.

Every workload takes ``(seed, seconds, tracer)`` and measures for
``seconds`` of wall time. The seed feeds only generated inputs (body
bytes, kill order, capacity permutation, tuple budget, the program's own
``seed`` fields); the program under test receives those inputs and is
otherwise run exactly as shipped. Sizes (rates, tuple budgets per
repetition, kill spacing) are the knobs a re-measurement may adjust; the
shapes are what later issues refer to by name — see ``README.md`` for
why each exists.

CPU-bound timings are taken in short pieces (a half-second segment of a
closed loop, one simulation repetition, five control rounds), each
bracketed by the calibration kernel of :mod:`hostspeed` and reported at
reference-host speed as the median over the pieces.
"""

from __future__ import annotations

import dataclasses
import math
import random
import signal
import statistics
import time
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field

from hostspeed import Calibrated, calibrate, factor
from oracle import SinkChecker, make_bodies, weights_failure
from pacing import run_open_loop
from stats import tail_percentile

_clock = time.perf_counter

#: Worker processes / connections of every process-backend workload
#: (the reference box has two cores).
N_WORKERS = 2
#: One closed-loop throughput sample: submit this long, drain, calibrate.
SEGMENT_S = 0.5
#: Tuples between generator bookkeeping (clock read, kill check).
STRIDE = 32
#: Untimed tuples pushed through a fresh region before the window opens.
WARMUP_TUPLES = 512
#: Tuples kept for the traced run's codec and worker-loop replays.
SAMPLE_TUPLES = 8192


@dataclass(slots=True)
class Outcome:
    """What one workload run produced."""

    attempted: int
    failed: int
    #: Wall length of the measured window, first operation to last result.
    window_s: float
    #: The end-to-end metrics this workload defines, by name.
    e2e: dict[str, float]
    #: Per-layer numbers available without tracing (counts the program
    #: keeps itself), by name.
    layers: dict[str, float] = field(default_factory=dict)
    #: Human-readable footnotes (sample counts, percentile actually used).
    notes: list[str] = field(default_factory=list)
    #: Workload-specific leftovers the traced run's probes read.
    detail: dict = field(default_factory=dict)


def _host_factor(calibrated: Calibrated) -> float:
    return statistics.median(calibrated.factors) if calibrated.factors else 1.0


# --------------------------------------------------------------------------
# Process dataplane
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ProcShape:
    """One way of driving ``ProcessRegion`` with two sleep-mode workers."""

    batch_size: int
    window: int
    #: Service cost per tuple in seconds (sleep mode).
    cost: float = 0.0
    #: Open-loop rate in tuples/s; ``None`` is a closed loop.
    rate: float | None = None
    #: SIGKILL alternating workers every this many submitted tuples.
    kill_every: int | None = None
    #: Read closed-loop throughput at reference-host speed. Right where
    #: the loop is CPU-bound (B = 16: spread 0.26 raw, 0.09 normalised);
    #: wrong where it is bound by wake-ups and syscalls, which the host's
    #: slow mode barely touches (B = 1: 0.06 raw, 0.17 normalised).
    cpu_bound: bool = False


#: Live regions, so an exit on any path can still reap the workers.
_open_regions: list = []


def close_open_regions() -> None:
    """Close every region a run left open (``atexit`` and ``finally``)."""
    while _open_regions:
        region = _open_regions.pop()
        try:
            region.close()
        except Exception:  # noqa: BLE001 - exit path: reap what we can
            for slot in region.slots:
                if slot.process is not None and slot.process.poll() is None:
                    slot.process.kill()
                    slot.process.wait(timeout=5.0)


def open_region(shape: ProcShape, seed: int, sink=None):
    """A started, connected region for ``shape``, registered for reaping."""
    from repro.proc.region import ProcessRegion
    from repro.proc.supervisor import SupervisorConfig

    if shape.kill_every is None:
        supervision = SupervisorConfig(seed=seed)
    else:
        # Fast, jitter-free detection and restart: the workload measures
        # the recovery path's own cost, not a randomized backoff.
        supervision = SupervisorConfig(
            seed=seed,
            restart_budget=10_000,
            backoff_jitter=0.0,
            heartbeat_interval=0.02,
            heartbeat_timeout=0.25,
            monitor_interval=0.01,
        )
    region = ProcessRegion(
        N_WORKERS,
        batch_size=shape.batch_size,
        window=shape.window,
        sink=sink,
        supervisor_config=supervision,
    )
    _open_regions.append(region)
    region.start()
    region.wait_ready(timeout=60.0)
    return region


def run_proc(shape: ProcShape, seed: int, seconds: float, tracer=None) -> Outcome:
    """Drive one region lifetime and measure it from the outside."""
    bodies = make_bodies(seed)
    mask = len(bodies) - 1
    checker = SinkChecker(bodies)
    due = array("d")      # per scheduled tuple: when the generator owed it
    sunk = array("d")     # per delivered tuple: when the sink emitted it
    # Per-tuple timestamps cost memory and a clock read on the hot path:
    # kept only where a metric needs them (open-loop latency, and the
    # traced run's sink-gap percentile).
    timed = shape.rate is not None or tracer is not None

    def timed_sink(seq: int, body: bytes) -> None:
        sunk.append(_clock())
        checker(seq, body)

    cost = shape.cost
    kills: list[float] = []
    pacer = None
    segments: list[float] = []  # closed loop: tuples/s of each segment
    tails: list[float] = []     # closed loop: last submit -> drain return
    calibrated = None
    try:
        t0 = _clock()
        region = open_region(shape, seed, timed_sink if timed else checker)
        spawn_ready_s = _clock() - t0
        # Supervisor episodes are stamped on the region clock; this maps
        # them onto the span clock.
        clock_offset = _clock() - region.clock()
        submit = region.submit
        for i in range(WARMUP_TUPLES):
            submit(cost, bodies[i & mask])
        region.drain(timeout=60.0)
        warm_stats = region.stats()
        n = WARMUP_TUPLES

        idle_kernel = calibrate()
        first = _clock()
        if shape.rate is not None:
            count = max(1, int(shape.rate * seconds))

            def send(index: int, when: float) -> None:
                due.append(when)
                submit(cost, bodies[(WARMUP_TUPLES + index) & mask])

            pacer = run_open_loop(shape.rate, count, send)
            n += count
        elif shape.kill_every is not None:
            # Service-bound and interrupted by design: one continuous
            # flow, kills landing wherever the count says.
            victim = random.Random(seed).randrange(N_WORKERS)
            next_kill = WARMUP_TUPLES + shape.kill_every
            deadline = first + seconds
            while (now := _clock()) < deadline:
                if n >= next_kill:
                    region.supervisor.note_fault(victim)
                    if region.supervisor.kill(victim, signal.SIGKILL):
                        kills.append(now)
                    victim = (victim + 1) % N_WORKERS
                    next_kill += shape.kill_every
                for _ in range(STRIDE):
                    submit(cost, bodies[n & mask])
                    n += 1
        else:
            # Saturating closed loop, cut into segments: submit, drain,
            # calibrate on the quiescent region (workers idle, so the
            # kernel sees the host, not the workload's own contention).
            calibrated = Calibrated()
            deadline = first + seconds
            while (started := _clock()) < deadline:
                stop = min(started + SEGMENT_S, deadline)
                count = 0
                while _clock() < stop:
                    for _ in range(STRIDE):
                        submit(cost, bodies[n & mask])
                        n += 1
                    count += STRIDE
                submitted_at = _clock()
                region.drain(timeout=120.0)
                wall = _clock() - started
                tails.append(started + wall - submitted_at)
                speed = calibrated.close()
                segments.append(count / wall * (speed if shape.cpu_bound else 1.0))
                if tracer is not None:
                    tracer.chunk = len(segments)
        last_submit = _clock()
        region.drain(timeout=120.0)
        drained = _clock()
        if kills:
            # Every kill's episode must close before its ttr can be read.
            settle = _clock() + 10.0
            while _clock() < settle and any(
                e.reintegrated_at is None for e in region.supervisor.episodes
            ):
                time.sleep(0.01)
        stats = region.stats()
        episodes = list(region.supervisor.episodes)
        t0 = _clock()
        region.close()
        close_s = _clock() - t0
        _open_regions.remove(region)
    finally:
        close_open_regions()

    window_s = drained - first
    submitted = n - WARMUP_TUPLES
    failed = checker.failures(n, stats.results)
    notes: list[str] = []
    e2e: dict[str, float] = {}
    if segments:
        e2e["tuples_per_s"] = statistics.median(segments)
        notes.append(
            f"{len(segments)} segments, "
            f"{'at reference speed' if shape.cpu_bound else 'wall clock'}; "
            f"whole window {submitted / window_s:.6g} tuples/s "
            f"at host factor {_host_factor(calibrated):.3f}"
        )
    else:
        # Service- or rate-bound: the wall clock is the right clock. On
        # the open loop this is the achieved rate, which says whether
        # the offered load was delivered.
        e2e["tuples_per_s"] = submitted / window_s
    if shape.rate is not None:
        latencies = [
            (sunk[WARMUP_TUPLES + i] - due[i]) * 1e3
            for i in range(min(submitted, len(sunk) - WARMUP_TUPLES))
        ]
        tail = sorted(latencies[len(latencies) // 10:])
        p99, used = tail_percentile(tail)
        e2e["emit_latency_p50_ms"] = statistics.median(tail)
        notes.append(
            f"emit latency over the last {len(tail)} tuples; "
            f"p{used:g} is {p99:.6g} ms (reported per layer)"
        )
    ttrs = [
        (e.reintegrated_at - e.quarantined_at) * 1e3
        for e in episodes if e.reintegrated_at is not None
    ]
    ttqs = [
        e.time_to_quarantine() * 1e3
        for e in episodes if e.time_to_quarantine() is not None
    ]
    if shape.kill_every is not None:
        # A kill whose recovery never closed is a failed operation.
        failed = min(n, failed + max(0, len(kills) - len(ttrs)))
        e2e["recovery_ttr_ms"] = statistics.median(ttrs) if ttrs else math.nan
        notes.append(f"{len(kills)} kills, {len(ttrs)} closed recovery episodes")

    gaps = sorted(
        (sunk[i] - sunk[i - 1]) * 1e3
        for i in range(WARMUP_TUPLES + 1, len(sunk))
    )
    layers = _counter_layers(stats, warm_stats, submitted, window_s)
    layers.update({
        "proc.region.drain_tail_ms": 1e3 * (
            statistics.median(tails) if tails else drained - last_submit
        ),
        "proc.region.sink_gap_p99_ms": tail_percentile(gaps)[0] if gaps else 0.0,
        "proc.supervisor.spawn_ready_s": spawn_ready_s,
        "proc.supervisor.close_s": close_s,
        "proc.supervisor.ttq_ms": statistics.median(ttqs) if ttqs else 0.0,
        "proc.supervisor.ttr_ms": statistics.median(ttrs) if ttrs else 0.0,
        "proc.supervisor.replayed_per_kill": (
            stats.replayed / len(kills) if kills else 0.0
        ),
    })
    # Rate- and service-bound runs are not normalised, but still say
    # how fast the host was: one calibration either side of the window.
    layers["bench.host_factor"] = (
        _host_factor(calibrated) if calibrated is not None
        else factor(idle_kernel, calibrate())
    )
    if pacer is not None:
        # Demoted from end-to-end: one host stall puts more than 1% of a
        # 12 s run's tuples behind it (see README, "Bounds").
        layers["emit_latency_p99_ms"] = p99
        layers["bench.generator.late_fraction"] = pacer.late_fraction
        layers["bench.generator.max_lag_ms"] = pacer.max_lag_s * 1e3
    if tracer is not None:
        for episode in episodes:
            if episode.reintegrated_at is not None:
                tracer.record(
                    "proc.supervisor.recovery",
                    clock_offset + episode.quarantined_at,
                    clock_offset + episode.reintegrated_at,
                    rid=episode.channel,
                )
    return Outcome(
        attempted=n,
        failed=failed,
        window_s=window_s,
        e2e=e2e,
        layers=layers,
        notes=notes,
        detail={
            "submitted": submitted,
            "sample": [
                (seq, cost, bodies[seq & mask])
                for seq in range(min(n, SAMPLE_TUPLES))
            ],
        },
    )


def _counter_layers(stats, warm, submitted: int, window_s: float) -> dict:
    """The region's own counters over the window (warm-up subtracted)."""
    flushes = stats.data_flushes - warm.data_flushes
    flushed = (
        stats.mean_batch_occupancy * stats.data_flushes
        - warm.mean_batch_occupancy * warm.data_flushes
    )
    blocked_s = sum(stats.blocked_seconds) - sum(warm.blocked_seconds)
    return {
        "proc.region.blocked_s": blocked_s,
        "proc.region.blocked_fraction": blocked_s / window_s,
        "proc.region.data_flushes": flushes,
        "proc.region.mean_batch_occupancy": flushed / flushes if flushes else 0.0,
        "proc.region.wire_frames_sent": (
            stats.wire_frames_sent - warm.wire_frames_sent
        ),
        "proc.region.wire_frames_received": (
            stats.wire_frames_received - warm.wire_frames_received
        ),
        "proc.region.wire_bytes_per_tuple": (
            (stats.wire_bytes_sent - warm.wire_bytes_sent) / submitted
        ),
        "proc.region.replayed": stats.replayed,
        "proc.region.duplicates_dropped": stats.duplicates_dropped,
        "proc.supervisor.restarts": stats.restarts,
    }


# --------------------------------------------------------------------------
# Simulator
# --------------------------------------------------------------------------

#: Tuple budget of one repetition; a run repeats it until its time is up.
SIM_TUPLES = 100_000


def sim_config(full: bool, seed: int, tuples: int):
    """Fig. 9's dynamic 8-PE config, plain or with every gate on.

    The seed sets the budget (within 0.2% of ``tuples``) besides the
    region's own ``seed`` field: without service jitter that field draws
    nothing, and a workload whose inputs ignore the seed would print the
    same simulated times on every run.
    """
    from repro.experiments.figures import fig09_config
    from repro.faults.schedule import FaultSchedule
    from repro.streams.region import RegionParams

    total = tuples + random.Random(seed).randrange(tuples // 500 + 1)
    config = fig09_config(8, dynamic=True, total_tuples=total)
    if not full:
        return dataclasses.replace(config, region=RegionParams(seed=seed))
    return dataclasses.replace(
        config,
        region=RegionParams(
            fault_tolerant=True, observability=True, batch_size=16, seed=seed
        ),
        # One crash with restart, a quarter of the way in (the region
        # emits a little under 1 000 tuples per simulated second). Never
        # before 2.5 simulated seconds: at B = 16 a crash at 1.25 s
        # loses 14 tuples under the replay policy (README, "Leads"),
        # and a workload must be one on which no operation fails.
        fault_schedule=FaultSchedule.crash(
            1, at=max(2.5, tuples / 4_000.0), restart_after=tuples / 6_000.0
        ),
    )


def run_sim(
    full: bool,
    seed: int,
    seconds: float,
    tracer=None,
    *,
    tuples: int = SIM_TUPLES,
    variants: dict[str, Callable] | None = None,
) -> Outcome:
    """Repeat one fixed-budget ``run_experiment`` until the time is up.

    ``variants`` maps a label to a config transform; repetitions then
    cycle through ``{"": identity, **variants}`` so each variant is
    measured interleaved with the base config (the traced run uses this
    for its observability-off comparison).
    """
    from repro.experiments.runner import run_experiment

    config = sim_config(full, seed, tuples)
    run_experiment(sim_config(full, seed, max(1, tuples // 20)), "lb-adaptive")

    configs = {"": config}
    for label, change in (variants or {}).items():
        configs[label] = change(config)
    rates: dict[str, list[float]] = {label: [] for label in configs}
    reference = None
    repetitions = events = 0
    attempted = failed = 0
    calibrated = Calibrated()
    first = _clock()
    while _clock() - first < seconds:
        for label, cfg in configs.items():
            t0 = _clock()
            if tracer is not None and not label:
                with tracer.span("experiments.run_experiment", rid=repetitions):
                    result = run_experiment(cfg, "lb-adaptive")
            else:
                result = run_experiment(cfg, "lb-adaptive")
            wall = _clock() - t0
            rates[label].append(result.emitted / wall * calibrated.close())
            if label:
                continue
            repetitions += 1
            events += result.events_processed
            attempted += cfg.total_tuples
            if reference is None:
                reference = result
            if not result.completed or result.emitted != cfg.total_tuples:
                failed += max(1, cfg.total_tuples - result.emitted)
            elif (
                result.execution_time != reference.execution_time
                or result.events_processed != reference.events_processed
            ):
                # Same config, different simulated outcome: the
                # simulator's determinism is part of its contract.
                failed += cfg.total_tuples
    window_s = _clock() - first

    result = reference
    e2e = {
        "sim_tuples_per_wall_s": statistics.median(rates[""]),
        "sim_exec_time_s": (
            math.nan if result.execution_time is None else result.execution_time
        ),
    }
    layers = {
        "sim.engine.events_per_wall_s": (
            e2e["sim_tuples_per_wall_s"] * events / attempted
        ),
        "sim.engine.events_per_tuple": result.events_processed / result.emitted,
        "sim.engine.events_coalesced": result.events_coalesced,
        "streams.splitter.block_events": result.block_events,
        "streams.splitter.batches_dispatched": result.batches_dispatched,
        "streams.splitter.batch_occupancy": result.batch_occupancy,
        "streams.merger.max_pending": result.max_merger_pending,
        "faults.quarantines": result.quarantines,
        "faults.tuples_replayed": result.tuples_replayed,
        "faults.ttq_sim_s": result.time_to_quarantine or 0.0,
        "faults.ttr_sim_s": result.time_to_reconverge or 0.0,
        "bench.host_factor": _host_factor(calibrated),
    }
    if result.obs is not None:
        layers["obs.spans"] = len(result.obs.spans)
        layers["obs.audit_records"] = len(result.obs.audit)
        layers["obs.events"] = len(result.obs.events)
    return Outcome(
        attempted=attempted,
        failed=min(attempted, failed),
        window_s=window_s,
        e2e=e2e,
        layers=layers,
        notes=[
            f"{repetitions} repetitions of {config.total_tuples} tuples "
            f"at host factor {_host_factor(calibrated):.3f}"
        ],
        detail={"rates": rates},
    )


# --------------------------------------------------------------------------
# Control plane
# --------------------------------------------------------------------------

#: Rounds run before the measured window opens (the issue's "rounds 50-").
CONTROL_WARMUP_ROUNDS = 50
#: Rounds between calibrations (about 0.1 s).
CONTROL_BLOCK = 5
#: The round at which balancing quality is read, so the count is exact.
CONTROL_QUALITY_ROUND = 200
#: Fig. 12's capacity classes as (share of connections, relative capacity).
CAPACITY_CLASSES = ((20 / 64, 1 / 100), (20 / 64, 1 / 5), (24 / 64, 1.0))


def run_control(n: int, seed: int, seconds: float, tracer=None) -> Outcome:
    """``LoadBalancer(n, clustering)`` closed over a ``FluidRegion``."""
    from repro.core.balancer import BalancerConfig, LoadBalancer
    from repro.sim.fluid import FluidRegion

    capacities: list[float] = []
    for share, capacity in CAPACITY_CLASSES[:-1]:
        capacities += [capacity] * round(share * n)
    capacities += [CAPACITY_CLASSES[-1][1]] * (n - len(capacities))
    random.Random(seed).shuffle(capacities)
    rates = [333.0 * c for c in capacities]
    # Splitter a quarter faster than the workers together: blocking is
    # informative on every connection, as in the in-depth figures.
    fluid = FluidRegion(rates, splitter_rate=1.25 * sum(rates))
    config = BalancerConfig(clustering=True)
    balancer = LoadBalancer(n, config)

    def one_round() -> tuple[float, bool]:
        fluid.advance(1.0)
        counters = [c.read() for c in fluid.blocking_counters]
        t0 = _clock()
        weights = balancer.update(fluid.time, counters)
        elapsed = _clock() - t0
        bad = weights_failure(weights, config.resolution)
        if weights is not None and not bad:
            fluid.set_weights(weights)
        return elapsed, bad

    rounds = failed = 0
    quality = None
    for _ in range(CONTROL_WARMUP_ROUNDS):
        failed += one_round()[1]
        rounds += 1
    times: list[float] = []
    block: list[float] = []
    calibrated = Calibrated()

    def close_block() -> None:
        speed = calibrated.close()
        times.extend(elapsed * 1e3 / speed for elapsed in block)
        block.clear()
        if tracer is not None:
            tracer.chunk = rounds

    first = _clock()
    while _clock() - first < seconds:
        elapsed, bad = one_round()
        block.append(elapsed)
        failed += bad
        rounds += 1
        if rounds == CONTROL_QUALITY_ROUND:
            quality = fluid.throughput() / sum(rates)
        if len(block) == CONTROL_BLOCK:
            close_block()
    window_s = _clock() - first
    if block:
        close_block()
    if quality is None:
        quality = fluid.throughput() / sum(rates)
    return Outcome(
        attempted=rounds,
        failed=failed,
        window_s=window_s,
        e2e={"control_round_ms": statistics.median(times)},
        layers={
            "core.balancer.fluid_capacity_fraction": quality,
            "bench.host_factor": _host_factor(calibrated),
        },
        notes=[
            f"{len(times)} measured rounds after {CONTROL_WARMUP_ROUNDS} "
            f"warm-up at host factor {_host_factor(calibrated):.3f}"
        ],
    )


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Workload:
    name: str
    #: ``"proc"``, ``"sim"`` or ``"control"``: which layers the run touches.
    family: str
    run: Callable[..., Outcome]
    #: The metric whose worsening under tracing is the trace overhead,
    #: and its direction.
    primary: tuple[str, str]
    shape: ProcShape | None = None


def _proc(name: str, shape: ProcShape, primary: tuple[str, str]) -> Workload:
    # A smoke run lasts 1/20 of the time; kills come 4x as often so that
    # it still crosses the recovery path.
    quick = dataclasses.replace(
        shape, kill_every=shape.kill_every and shape.kill_every // 4
    )
    return Workload(
        name, "proc",
        lambda seed, seconds, tracer=None, smoke=False: run_proc(
            quick if smoke else shape, seed, seconds, tracer
        ),
        primary, shape,
    )


def _sim(name: str, full: bool) -> Workload:
    return Workload(
        name, "sim",
        lambda seed, seconds, tracer=None, smoke=False, **kw: run_sim(
            full, seed, seconds, tracer,
            tuples=SIM_TUPLES // 20 if smoke else SIM_TUPLES, **kw
        ),
        ("sim_tuples_per_wall_s", "higher"),
    )


def _control(n: int) -> Workload:
    return Workload(
        f"control-n{n}", "control",
        lambda seed, seconds, tracer=None, smoke=False: run_control(
            n, seed, seconds, tracer
        ),
        ("control_round_ms", "lower"),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _proc("proc-closed-b1", ProcShape(1, 64), ("tuples_per_s", "higher")),
        _proc(
            "proc-closed-b16", ProcShape(16, 256, cpu_bound=True),
            ("tuples_per_s", "higher"),
        ),
        _proc(
            "proc-open-b16", ProcShape(16, 256, rate=4000.0),
            ("emit_latency_p50_ms", "lower"),
        ),
        _proc(
            "proc-kill-replay",
            ProcShape(16, 64, cost=0.001, kill_every=1600),
            ("tuples_per_s", "higher"),
        ),
        _sim("sim-plain", False),
        _sim("sim-full", True),
        _control(64),
    )
}
