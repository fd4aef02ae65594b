"""Hot-path micro-benchmarks against the pre-overhaul seed.

Four micro-benches cover the layers the hot-path overhaul touched, plus
one end-to-end timing of the Figure 9 static sweep:

* **event chains** — self-rescheduling callback chains through the
  engine's ``schedule_after`` fast path (list-cell events, free-list
  recycling);
* **call_every** — the reusable repeating timer (one heap cell re-armed
  per tick instead of a fresh closure + handle);
* **rate-function rounds** — one control round of model maintenance
  (observe + decay + full fitted table), the cached-table path;
* **Fox solves** — the minimax weight solver over cached tables, on 16
  densely observed functions that rise together: the greedy alternates
  between them every unit or two, so this is the case where granting by
  runs buys nothing (and must cost nothing);
* **fig09 sweep** — the Figure 9 static grid (2-16 PEs x 4 policies),
  serially and through the process-pool executor.

``SEED_BASELINE`` pins the same measurements taken on the pre-overhaul
seed commit on the reference machine (single core). Running this bench
writes the fresh numbers and the speedups against that baseline to
``benchmarks/_reports/core_hotpath.txt``::

    PYTHONPATH=src python -m pytest benchmarks/bench_core_hotpath.py --benchmark-only

A second bench, ``bench_obs_overhead``, runs the fault-recovery
scenario with observability off and on, in interleaved pairs, and
reports to
``benchmarks/_reports/obs_overhead.txt``: the off-by-default subsystem
must cost the engine hot path < 2% versus :class:`ReferenceSimulator`,
an obs-free copy of the engine's per-event path timed in the same
process, interleaved with the engine itself; and full recording must
stay a modest fraction of the run.

The methodology (chain counts, LCG-seeded rate points, solver rounds)
is byte-for-byte the one used to capture the baseline — the ratios are
meaningful, the absolute numbers are machine-dependent.
"""

import gc
import statistics
import time
from heapq import heappop, heappush

from bench_rate_function import populated_function
from conftest import SMOKE, run_once, smoke_scale

from repro.core.rap import solve_minimax_fox
from repro.experiments.config import fault_recovery_scenario
from repro.experiments.figures import fig09_config
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import run_sweep
from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import _FREE_LIST_MAX, Event

#: Pre-overhaul numbers, measured with this file's exact methodology on
#: the seed commit (reference machine: 1 core). Ratios against these are
#: the overhaul's speedups; re-capture on your machine for absolutes.
SEED_BASELINE = {
    "events_per_sec": 475_468.6,
    "call_every_ticks_per_sec": 833_692.1,
    "rate_fn_rounds_per_sec": 2_102.6,
    "fox_solves_per_sec": 1_086.7,
    "fig09_static_sweep_seconds": 12.66,
}

#: Interleaved reference/engine pairs the obs-off hot-path check times.
OBS_OFF_PAIRS = smoke_scale(200, 20)
#: Largest median engine slowdown against the reference it accepts.
OBS_OFF_MARGIN = 0.02
#: Interleaved off/on pairs of the fault-recovery scenario the
#: observability overhead is the median of.
OBS_ABLATION_PAIRS = smoke_scale(9, 1)

PE_COUNTS = (2, 4, 8, 16)
POLICIES = ("oracle", "lb-static", "lb-adaptive", "rr")


# --------------------------------------------------------------- measurement


class ReferenceSimulator(Simulator):
    """The engine's per-event path with no observability anywhere on it.

    :meth:`call_after` and :meth:`_run` are copies of the engine's, as
    they stood with every observability hook off that path (gauges read
    the engine's counters only when collected). The obs-off check times
    the engine against this class in the same process: a hook put back
    on the engine's per-event path slows the engine and not this.
    A deliberate change to the engine's loop is copied here too;
    ``tests/sim/test_engine.py::TestBenchReference`` fails until it is.
    """

    __slots__ = ()

    def call_after(self, delay, callback):
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        event = Event.__new__(Event)
        cell = [self.now + delay, seq, callback, event, True]
        event._cell = cell
        event._sim = self
        heappush(self._heap, cell)
        return event

    def _run(self, end_time):
        heap = self._heap
        free = self._free
        pop = heappop
        self._running = True
        self._stopped = False
        try:
            while not self._stopped:
                while True:
                    if not heap:
                        return
                    cell = heap[0]
                    if cell[2] is None:
                        pop(heap)
                        self._dead -= 1
                        continue
                    if cell[0] > end_time:
                        return
                    pop(heap)
                    break
                cell[4] = False
                self.now = cell[0]
                self.events_processed += 1
                callback = cell[2]
                handle = cell[3]
                if handle is None:
                    if len(free) < _FREE_LIST_MAX:
                        cell[2] = None
                        free.append(cell)
                elif type(handle) is Event:
                    cell[3] = None
                callback()
        finally:
            self._running = False


def measure_event_chains(
    n_chains: int = 8, events: int = 400_000, engine=Simulator
) -> float:
    """Fired events/sec through interleaved self-rescheduling chains."""
    sim = engine()
    count = [0]

    def make(i):
        def cb():
            count[0] += 1
            if count[0] < events:
                sim.call_after(0.001 + (i % 7) * 1e-4, cb)

        return cb

    for i in range(n_chains):
        sim.call_after(0.001 * (i + 1), make(i))
    t0 = time.perf_counter()
    sim.run_until(1e9)
    return sim.events_processed / (time.perf_counter() - t0)


def measure_call_every(ticks: int = 200_000) -> float:
    """Repeating-timer ticks/sec (one re-armed heap cell per tick)."""
    sim = Simulator()
    n = [0]

    def cb():
        n[0] += 1

    sim.call_every(0.01, cb)
    t0 = time.perf_counter()
    sim.run_until(0.01 * ticks)
    return n[0] / (time.perf_counter() - t0)


def measure_rate_function_rounds(rounds: int = 200) -> float:
    """Control rounds/sec: observe + decay + full fitted table."""
    fn = populated_function(40, 7)
    t0 = time.perf_counter()
    for _ in range(rounds):
        fn.observe(333, 0.4)
        fn.decay_above(333, 0.1)
        fn.values()
    return rounds / (time.perf_counter() - t0)


def measure_fox_solves(rounds: int = 50, n: int = 16) -> float:
    """Fox solves/sec over cached tables.

    The baseline number was necessarily measured through per-weight
    ``value()`` calls — the only evaluation path the seed had. The
    balancer itself hands the solver ``fn.value`` again now that a solve
    reads a few weights per run; tables are kept here so the number
    stays comparable with the recorded ones.
    """
    fns = [populated_function(30, j * 977 + 13) for j in range(n)]
    evaluators = [fn.table() for fn in fns]
    t0 = time.perf_counter()
    for _ in range(rounds):
        solve_minimax_fox(evaluators, 1000)
    return rounds / (time.perf_counter() - t0)


def measure_fig09_sweep(jobs: int | None) -> float:
    """Wall seconds for the Figure 9 static grid."""
    t0 = time.perf_counter()
    run_sweep(
        lambda n: fig09_config(
            n, dynamic=False, total_tuples=smoke_scale(60_000, 8_000)
        ),
        smoke_scale(PE_COUNTS, (2, 4)),
        POLICIES,
        jobs=jobs,
    )
    return time.perf_counter() - t0


def measure_obs_ablation(
    duration: float = 40.0, pairs: int = OBS_ABLATION_PAIRS
) -> dict:
    """Wall-clock cost of the observability subsystem, off vs on.

    Runs the fault-recovery scenario with observability off (the
    default: no recorder is even built) and on (full audit + span +
    metric recording, no file exporters) in ``pairs`` interleaved
    pairs, each pair in the other order than the last, and reports the
    median relative overhead with its spread. Recording may cost time
    but must never perturb the simulation, so the two runs have to
    agree on every result scalar.
    """
    config = fault_recovery_scenario(duration=duration)
    seconds = {False: [], True: []}
    for i in range(pairs):
        for observed in (False, True) if i % 2 else (True, False):
            t0 = time.perf_counter()
            result = run_experiment(
                config.with_observability() if observed else config,
                "lb-adaptive",
            )
            seconds[observed].append(time.perf_counter() - t0)
            if observed:
                on = result
            else:
                off = result
        assert on.emitted == off.emitted
        assert on.final_weights == off.final_weights
        assert on.events_processed == off.events_processed
    overheads = sorted(
        a / b - 1.0 for a, b in zip(seconds[True], seconds[False])
    )
    off_seconds = statistics.median(seconds[False])
    on_seconds = statistics.median(seconds[True])
    return {
        "obs_off_wall_seconds": round(off_seconds, 4),
        "obs_on_wall_seconds": round(on_seconds, 4),
        "obs_off_tuples_per_sec": round(off.emitted / off_seconds, 1),
        "obs_on_tuples_per_sec": round(on.emitted / on_seconds, 1),
        "overhead_fraction": round(statistics.median(overheads), 4),
        "overhead_min": round(overheads[0], 4),
        "overhead_max": round(overheads[-1], 4),
        "audit_records": len(on.obs.audit),
        "spans": len(on.obs.spans),
        "events": len(on.obs.events),
    }


def measure_obs_off_hotpath(pairs: int = OBS_OFF_PAIRS) -> dict:
    """Engine event-chain throughput against :class:`ReferenceSimulator`.

    The observability hooks sit entirely off the per-event path when
    the region doesn't opt in; this pins that the engine runs within
    noise (< 2%) of an obs-free copy of that path. The two are timed in
    ``pairs`` short interleaved pairs, each pair in the other order
    than the last, and judged on the median of the per-pair ratios:
    a pair's two runs share the host's state of the moment, and many
    short pairs outvote the ones a neighbour's burst lands on. The heap
    this process has accumulated is collected and frozen so the
    generational GC taxes neither loop.
    """
    events = smoke_scale(15_000, 5_000)
    runs = {Simulator: [], ReferenceSimulator: []}
    gc.collect()
    gc.freeze()
    try:
        for i in range(pairs):
            order = (Simulator, ReferenceSimulator)
            for engine in order if i % 2 else order[::-1]:
                runs[engine].append(
                    measure_event_chains(events=events, engine=engine)
                )
    finally:
        gc.unfreeze()
    ratios = sorted(
        now / ref for now, ref in zip(runs[Simulator], runs[ReferenceSimulator])
    )
    quartile = len(ratios) // 4
    median = statistics.median(ratios)
    return {
        "events_per_sec_median": round(statistics.median(runs[Simulator]), 1),
        "reference_events_per_sec_median": round(
            statistics.median(runs[ReferenceSimulator]), 1
        ),
        "pairs": pairs,
        "ratio_q1": round(ratios[quartile], 4),
        "ratio_median": round(median, 4),
        "ratio_q3": round(ratios[-1 - quartile], 4),
        "regression_fraction": round(1.0 - median, 4),
    }


def collect_obs_report() -> dict:
    """The scenario ablation plus the obs-off hot-path check.

    The hot-path check runs *before* the scenario ablation, on the
    younger heap.
    """
    hotpath = measure_obs_off_hotpath()
    section = measure_obs_ablation(duration=smoke_scale(240.0, 5.0))
    section["hotpath_obs_off"] = hotpath
    return section


def collect_report() -> dict:
    """Run every measurement; speedups are against ``SEED_BASELINE``."""
    measured = {
        "events_per_sec": measure_event_chains(
            events=smoke_scale(400_000, 20_000)
        ),
        "call_every_ticks_per_sec": measure_call_every(
            ticks=smoke_scale(200_000, 10_000)
        ),
        "rate_fn_rounds_per_sec": measure_rate_function_rounds(
            rounds=smoke_scale(200, 20)
        ),
        "fox_solves_per_sec": measure_fox_solves(
            rounds=smoke_scale(50, 5)
        ),
        "fig09_static_sweep_seconds": measure_fig09_sweep(jobs=1),
        "fig09_static_sweep_seconds_pool": measure_fig09_sweep(jobs=None),
    }
    speedups = {
        key: measured[key] / SEED_BASELINE[key]
        for key in (
            "events_per_sec",
            "call_every_ticks_per_sec",
            "rate_fn_rounds_per_sec",
            "fox_solves_per_sec",
        )
    }
    speedups["fig09_static_sweep"] = (
        SEED_BASELINE["fig09_static_sweep_seconds"]
        / measured["fig09_static_sweep_seconds"]
    )
    speedups["fig09_static_sweep_pool"] = (
        SEED_BASELINE["fig09_static_sweep_seconds"]
        / measured["fig09_static_sweep_seconds_pool"]
    )
    return {
        "seed_baseline": SEED_BASELINE,
        "measured": measured,
        "speedup": speedups,
    }


# -------------------------------------------------------------------- benches


def bench_core_hotpath(benchmark, report):
    """Measure every hot path, report the speedups, assert the floors."""
    payload = run_once(benchmark, collect_report)

    lines = [f"{'metric':34} {'seed':>12} {'now':>12} {'speedup':>8}"]
    measured = payload["measured"]
    for key, speedup_key in (
        ("events_per_sec", "events_per_sec"),
        ("call_every_ticks_per_sec", "call_every_ticks_per_sec"),
        ("rate_fn_rounds_per_sec", "rate_fn_rounds_per_sec"),
        ("fox_solves_per_sec", "fox_solves_per_sec"),
        ("fig09_static_sweep_seconds", "fig09_static_sweep"),
        ("fig09_static_sweep_seconds_pool", "fig09_static_sweep_pool"),
    ):
        seed = SEED_BASELINE.get(key, SEED_BASELINE["fig09_static_sweep_seconds"])
        lines.append(
            f"{key:34} {seed:12.1f} {measured[key]:12.1f} "
            f"{payload['speedup'][speedup_key]:7.2f}x"
        )
    report("core_hotpath", "\n".join(lines))

    if SMOKE:
        return
    speedup = payload["speedup"]
    # Floors sit well under the reference-machine measurements
    # (1.4x / 1.8x / 5.8x / 2.1x / 1.55x) to absorb machine variance
    # while still catching a genuine hot-path regression.
    assert speedup["events_per_sec"] > 1.1
    assert speedup["call_every_ticks_per_sec"] > 1.2
    assert speedup["rate_fn_rounds_per_sec"] > 2.0
    assert speedup["fox_solves_per_sec"] > 1.3
    assert speedup["fig09_static_sweep"] > 1.2
    # The pooled sweep must never lose to the seed; on multi-core machines
    # it should clear 3x (the pool adds nothing on a single core).
    assert speedup["fig09_static_sweep_pool"] > 1.2


def bench_obs_overhead(benchmark, report):
    """Obs-on vs obs-off ablation; report the overhead, pin its bounds."""
    section = run_once(benchmark, collect_obs_report)
    hot = section["hotpath_obs_off"]
    report(
        "obs_overhead",
        "\n".join(
            [
                f"obs off: {section['obs_off_wall_seconds']:8.3f}s "
                f"({section['obs_off_tuples_per_sec']:10.1f} tuples/s)",
                f"obs on:  {section['obs_on_wall_seconds']:8.3f}s "
                f"({section['obs_on_tuples_per_sec']:10.1f} tuples/s)",
                f"overhead: {section['overhead_fraction'] * 100:+.1f}% "
                f"(median of {OBS_ABLATION_PAIRS} interleaved pairs, "
                f"spread {section['overhead_min'] * 100:+.1f}% to "
                f"{section['overhead_max'] * 100:+.1f}%; bound +50%)  "
                f"[{section['audit_records']} audit records, "
                f"{section['spans']} spans, {section['events']} events]",
                f"hot path obs-off: {hot['events_per_sec_median']:.1f} "
                f"events/s vs reference "
                f"{hot['reference_events_per_sec_median']:.1f} "
                f"(medians of {hot['pairs']} interleaved pairs)",
                f"  regression {hot['regression_fraction']:+.4f} "
                f"(margin {OBS_OFF_MARGIN}); engine/reference per pair "
                f"q1 {hot['ratio_q1']:.4f}, median "
                f"{hot['ratio_median']:.4f}, q3 {hot['ratio_q3']:.4f}",
            ]
        ),
    )

    if SMOKE:
        return
    # Full recording costs real time, but it must stay a modest
    # fraction of the run: instruments live off the per-tuple path,
    # and spans/audit piggyback on existing episode boundaries.
    assert section["overhead_fraction"] < 0.5
    # Obs off must be free — within noise of the obs-free reference.
    assert hot["regression_fraction"] < OBS_OFF_MARGIN
