"""Process dataplane: multi-core wall-clock scaling and recovery cost.

Two legs, both on the real multi-process backend (``repro.proc``):

* **Scaling** — a fixed budget of spin-mode tuples (workers burn CPU for
  the service time, so N workers genuinely occupy N cores) is driven
  through 1, 2, and 4 worker processes. The simulator backend cannot
  speed anything up by adding workers — it only models time; this table
  is the proof that the process backend *spends* it, and that the
  speedup from real parallelism survives the splitter, the socket hops,
  and the ordered merger. The ideal is linear up to the host's core
  count; the shape check only requires scaling when the cores exist
  (CI boxes are often single-core, where the honest speedup is ~1x).

* **Recovery** — one worker is SIGKILLed mid-batch (deterministically,
  on merger progress) and the run completes on the survivors plus the
  supervised replacement. Recorded: fault-to-detection (ttq),
  detection-to-rejoin (ttr), tuples replayed from the retransmit
  buffer, and the wall-clock overhead vs the fault-free run of the same
  budget. That first restart is cold: a region keeps no spare before
  its first death. Once the spare it then launches has parked, a second
  kill measures the warm restart onto it. These are the numbers
  EXPERIMENTS.md cites.

The scaling leg runs twice — once on the per-tuple wire
(``batch_size=1``) and once batched (``batch_size=BATCH_SIZE``) — and
every scaling point records ``framework_overhead_seconds``: wall time
minus the ideal service time (``service / min(workers, cores)``), i.e.
everything the splitter, sockets, framing, and merger cost on top of
the work itself. The tripwire (enforced even in smoke mode) is that
batching must not invert scaling: over :data:`TRIPWIRE_PAIRS`
interleaved pairs of short (:data:`TRIPWIRE_TUPLE_COST`) tuples, the
batched run at the widest worker count may not carry more framework
overhead than the unbatched single-worker run, in the median of the
pairs' differences. A single pair of the sweep's own rows differs by a
few milliseconds, inside one run's scheduling noise.

Reports to ``benchmarks/_reports/process_dataplane.txt``::

    PYTHONPATH=src python -m pytest benchmarks/bench_process_dataplane.py --benchmark-only
"""

import dataclasses
import os
import signal
import statistics
import time

from conftest import SMOKE, run_once, smoke_scale

from repro.faults.schedule import FaultSchedule
from repro.proc.faults import RealFaultDriver
from repro.proc.region import ProcessRegion
from repro.proc.supervisor import SupervisorConfig

WORKER_COUNTS = (1, 2, 4)
#: Tuples per DATA_BATCH frame in the batched sweep.
BATCH_SIZE = 16
#: Total service work is held constant across the sweep, so ideal wall
#: time is ``SPIN_BUDGET_SECONDS / min(workers, cores)``.
SPIN_BUDGET_SECONDS = smoke_scale(2.0, 0.3)
TUPLE_COST = smoke_scale(0.002, 0.001)
RECOVERY_TUPLES = smoke_scale(400, 80)
RECOVERY_COST = smoke_scale(0.003, 0.002)
#: Interleaved (unbatched 1-worker, batched widest) pairs behind the
#: batching tripwire.
TRIPWIRE_PAIRS = 5
#: The tripwire's tuples are short, so the per-tuple framework cost the
#: batched wire amortizes is most of what each leg measures, and its
#: legs are the same length at every budget: 10 000 tuples each.
TRIPWIRE_TUPLE_COST = 0.0001
TRIPWIRE_SPIN_SECONDS = 1.0
#: Wait after the spare is parked before the warm kill: its boot and
#: connect take ~0.1 s on a 2-core host.
SPARE_BOOT_SECONDS = 0.5

SUPERVISION = SupervisorConfig(
    heartbeat_interval=0.02,
    heartbeat_timeout=0.25,
    monitor_interval=0.01,
    backoff_start=0.02,
    backoff_max=0.1,
    worker_mode="spin",
)


def run_scaling(
    n_workers: int,
    batch_size: int = 1,
    tuple_cost: float = TUPLE_COST,
    spin_seconds: float = SPIN_BUDGET_SECONDS,
) -> dict:
    total = max(n_workers, int(spin_seconds / tuple_cost))
    region = ProcessRegion(
        n_workers,
        supervisor_config=SUPERVISION,
        window=max(16, 4 * batch_size),
        batch_size=batch_size,
    )
    # Warm-up (interpreter spawn + connect) is a one-time cost reported
    # on its own; the timed window measures the steady-state dataplane —
    # the thing the wire protocol can actually change.
    spawn_t0 = time.perf_counter()
    region.start().wait_ready(timeout=60.0)
    spawn = time.perf_counter() - spawn_t0
    t0 = time.perf_counter()
    try:
        for _ in range(total):
            region.submit(tuple_cost)
        region.drain(timeout=300.0)
        wall = time.perf_counter() - t0
        stats = region.stats()
    finally:
        region.close()
    assert stats.results == total
    assert stats.restarts == 0, "scaling leg must be fault-free"
    cores = os.cpu_count() or 1
    service = total * tuple_cost
    ideal = service / min(n_workers, cores)
    return {
        "workers": n_workers,
        "batch_size": batch_size,
        "tuples": total,
        "spawn_seconds": round(spawn, 3),
        "wall_seconds": round(wall, 3),
        "framework_overhead_seconds": round(wall - ideal, 3),
        "tuples_per_sec": round(total / wall, 1),
        "wire_frames_sent": stats.wire_frames_sent,
    }


def run_tripwire() -> dict:
    """The batching tripwire's pairs, alternating which leg goes first."""
    legs = {
        "unbatched": (min(WORKER_COUNTS), 1),
        "batched": (max(WORKER_COUNTS), BATCH_SIZE),
    }
    overheads = {key: [] for key in legs}
    for pair in range(TRIPWIRE_PAIRS):
        order = list(legs) if pair % 2 == 0 else list(reversed(legs))
        for key in order:
            row = run_scaling(
                *legs[key], TRIPWIRE_TUPLE_COST, TRIPWIRE_SPIN_SECONDS
            )
            overheads[key].append(row["framework_overhead_seconds"])
    return overheads


def run_recovery() -> dict:
    def one_run(kill: bool) -> dict:
        config = dataclasses.replace(SUPERVISION, worker_mode="sleep")
        region = ProcessRegion(3, supervisor_config=config, window=16)
        supervisor = region.supervisor
        driver = None
        t0 = time.perf_counter()
        try:
            # All three workers serving before tuple 0: the victim then
            # holds its share of the window when the kill lands.
            region.start().wait_ready(timeout=60.0)
            if kill:
                driver = RealFaultDriver(region, poll_interval=0.002).arm(
                    FaultSchedule.crash_after_emitted(1, RECOVERY_TUPLES // 8)
                )
                driver.start()
            for _ in range(RECOVERY_TUPLES):
                region.submit(RECOVERY_COST)
            region.drain(timeout=300.0)
            wall = time.perf_counter() - t0
            if kill:
                # The warm restart: a second kill once the first death's
                # spare has booted, connected and parked.
                wait_until(lambda: supervisor._spare is not None)
                time.sleep(SPARE_BOOT_SECONDS)
                assert supervisor.kill(1, signal.SIGKILL)
                wait_until(
                    lambda: len(supervisor.episodes) == 2
                    and supervisor.episodes[1].reintegrated_at is not None
                )
            stats = region.stats()
            ttrs = [
                e.reintegrated_at - e.quarantined_at
                for e in supervisor.episodes
            ]
        finally:
            if driver is not None:
                driver.stop()
            region.close()
        assert stats.results == RECOVERY_TUPLES
        return {"stats": stats, "wall": wall, "ttrs": ttrs}

    clean = one_run(kill=False)
    killed = one_run(kill=True)
    stats = killed["stats"]
    assert stats.restarts >= 1, "the SIGKILL leg must actually restart"
    cold_ttr, warm_ttr = killed["ttrs"]
    return {
        "tuples": RECOVERY_TUPLES,
        "clean_wall_seconds": round(clean["wall"], 3),
        "killed_wall_seconds": round(killed["wall"], 3),
        "recovery_overhead_seconds": round(
            killed["wall"] - clean["wall"], 3
        ),
        "time_to_quarantine_ms": (
            None if stats.time_to_quarantine is None
            else round(stats.time_to_quarantine * 1e3, 2)
        ),
        "cold_ttr_ms": round(cold_ttr * 1e3, 2),
        "warm_ttr_ms": round(warm_ttr * 1e3, 2),
        "tuples_replayed": stats.replayed,
        "duplicates_dropped": stats.duplicates_dropped,
    }


def wait_until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise RuntimeError("the recovery leg's region never got there")
        time.sleep(0.001)


def collect_report() -> dict:
    sweeps = {}
    for key, batch in (("scaling", 1), ("scaling_batched", BATCH_SIZE)):
        rows = [run_scaling(n, batch) for n in WORKER_COUNTS]
        base = rows[0]["wall_seconds"]
        for row in rows:
            row["speedup_vs_1"] = round(base / row["wall_seconds"], 2)
        sweeps[key] = rows
    return {
        "cores": os.cpu_count() or 1,
        **sweeps,
        "tripwire": run_tripwire(),
        "recovery": run_recovery(),
    }


def tripwire_margins(tripwire: dict) -> list[float]:
    """Per pair: unbatched 1-worker minus batched widest overhead, s."""
    return [
        unbatched - batched for unbatched, batched
        in zip(tripwire["unbatched"], tripwire["batched"])
    ]


def render(payload: dict) -> str:
    lines = [f"cores available: {payload['cores']}"]
    for key, label in (
        ("scaling", "per-tuple wire (batch_size=1)"),
        ("scaling_batched", f"batched wire (batch_size={BATCH_SIZE})"),
    ):
        lines += [
            "",
            f"{label}:",
            f"{'workers':>7}  {'tuples':>7}  {'spawn s':>7}  {'wall s':>7}"
            f"  {'ovh s':>7}  {'tuples/s':>9}  {'frames':>7}  {'speedup':>7}",
        ]
        for row in payload[key]:
            lines.append(
                f"{row['workers']:>7}  {row['tuples']:>7}"
                f"  {row['spawn_seconds']:>7.3f}"
                f"  {row['wall_seconds']:>7.3f}"
                f"  {row['framework_overhead_seconds']:>7.3f}"
                f"  {row['tuples_per_sec']:>9,.0f}"
                f"  {row['wire_frames_sent']:>7}"
                f"  {row['speedup_vs_1']:>6.2f}x"
            )
    tripwire = payload["tripwire"]
    margins = sorted(tripwire_margins(tripwire))
    q1, _, q3 = statistics.quantiles(margins, n=4)
    lines += [
        "",
        f"batching tripwire ({TRIPWIRE_PAIRS} interleaved pairs of "
        f"{TRIPWIRE_TUPLE_COST * 1e6:g} us tuples, framework overhead s):",
        "  unbatched 1 worker    "
        + " ".join(f"{v:.3f}" for v in tripwire["unbatched"]),
        f"  batched {max(WORKER_COUNTS)} workers     "
        + " ".join(f"{v:.3f}" for v in tripwire["batched"]),
        f"  margin, median of unbatched - batched (must be >= 0)"
        f"  {statistics.median(margins):+.3f}",
        f"  spread of the pairs' margins  min {margins[0]:+.3f}"
        f"  q1 {q1:+.3f}  q3 {q3:+.3f}  max {margins[-1]:+.3f}",
    ]
    r = payload["recovery"]
    lines += [
        "",
        f"kill-recovery ({r['tuples']} tuples, SIGKILL mid-batch):",
        f"  clean run     {r['clean_wall_seconds']:.3f}s",
        f"  with kill     {r['killed_wall_seconds']:.3f}s"
        f"  ({r['recovery_overhead_seconds']:+.3f}s)",
        f"  ttq           {r['time_to_quarantine_ms']} ms",
        f"  ttr           {r['cold_ttr_ms']} ms  cold first restart",
        f"                {r['warm_ttr_ms']} ms  onto the parked spare"
        " (a second kill)",
        f"  replayed      {r['tuples_replayed']} tuples"
        f"  ({r['duplicates_dropped']} duplicates dropped)",
    ]
    return "\n".join(lines)


def check_shape(payload: dict) -> None:
    rows = {row["workers"]: row for row in payload["scaling"]}
    recovery = payload["recovery"]
    # Exactly-once held under the kill on every machine, every scale.
    if recovery["tuples_replayed"] < 1:
        raise RuntimeError(
            "the SIGKILL leg replayed nothing: the kill either missed "
            "in-flight tuples or the retransmit path is broken"
        )
    # The batching tripwire runs even in smoke mode: the batched wire at
    # the widest worker count must not cost more framework overhead than
    # the per-tuple wire runs with a single worker — the exact inversion
    # (4 workers slower than 1) that motivated batching. Paired, and
    # judged on the pairs' median: one pair is a few ms of noise.
    margin = statistics.median(tripwire_margins(payload["tripwire"]))
    if margin < 0:
        raise RuntimeError(
            f"batched {max(WORKER_COUNTS)}-worker framework overhead "
            f"exceeds unbatched 1-worker overhead by {-margin:.3f}s in "
            f"the median of {TRIPWIRE_PAIRS} interleaved pairs: the "
            "batched wire is not amortizing per-tuple costs"
        )
    cores = payload["cores"]
    if SMOKE or cores < 2:
        return
    # With real cores, spinning workers must actually scale: 2 workers
    # clear 1.3x, and 4 workers (when 4 cores exist) clear 2x.
    assert rows[2]["speedup_vs_1"] > 1.3, (
        f"2 spin workers on {cores} cores only reached "
        f"{rows[2]['speedup_vs_1']}x over 1"
    )
    if cores >= 4:
        assert rows[4]["speedup_vs_1"] > 2.0, (
            f"4 spin workers on {cores} cores only reached "
            f"{rows[4]['speedup_vs_1']}x over 1"
        )


def bench_process_dataplane(benchmark, report):
    payload = run_once(benchmark, collect_report)
    report("process_dataplane", render(payload))
    check_shape(payload)
