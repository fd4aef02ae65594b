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
  budget. These are the numbers EXPERIMENTS.md cites.

The scaling leg runs twice — once on the per-tuple wire
(``batch_size=1``) and once batched (``batch_size=BATCH_SIZE``) — and
every scaling point records ``framework_overhead_seconds``: wall time
minus the ideal service time (``service / min(workers, cores)``), i.e.
everything the splitter, sockets, framing, and merger cost on top of
the work itself. The tripwire (enforced even in smoke mode) is that
batching must not invert scaling: the batched run at the widest worker
count may not carry more framework overhead than the unbatched
single-worker run.

Merges a ``process_dataplane`` section into ``BENCH_core.json``
(existing keys in the section survive). Regenerate standalone with::

    PYTHONPATH=src python benchmarks/bench_process_dataplane.py
"""

import dataclasses
import json
import os
import pathlib
import time

from conftest import SMOKE, run_once, smoke_scale

from repro.faults.schedule import FaultSchedule
from repro.proc.faults import RealFaultDriver
from repro.proc.region import ProcessRegion
from repro.proc.supervisor import SupervisorConfig

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_core.json"

WORKER_COUNTS = (1, 2, 4)
#: Tuples per DATA_BATCH frame in the batched sweep.
BATCH_SIZE = 16
#: Total service work is held constant across the sweep, so ideal wall
#: time is ``SPIN_BUDGET_SECONDS / min(workers, cores)``.
SPIN_BUDGET_SECONDS = smoke_scale(2.0, 0.3)
TUPLE_COST = smoke_scale(0.002, 0.001)
RECOVERY_TUPLES = smoke_scale(400, 80)
RECOVERY_COST = smoke_scale(0.003, 0.002)

SUPERVISION = SupervisorConfig(
    heartbeat_interval=0.02,
    heartbeat_timeout=0.25,
    monitor_interval=0.01,
    backoff_start=0.02,
    backoff_max=0.1,
    worker_mode="spin",
)


def run_scaling(n_workers: int, batch_size: int = 1) -> dict:
    total = max(n_workers, int(SPIN_BUDGET_SECONDS / TUPLE_COST))
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
            region.submit(TUPLE_COST)
        region.drain(timeout=300.0)
        wall = time.perf_counter() - t0
        stats = region.stats()
    finally:
        region.close()
    assert stats.results == total
    assert stats.restarts == 0, "scaling leg must be fault-free"
    cores = os.cpu_count() or 1
    service = total * TUPLE_COST
    ideal = service / min(n_workers, cores)
    return {
        "workers": n_workers,
        "batch_size": batch_size,
        "tuples": total,
        "service_seconds": round(service, 3),
        "spawn_seconds": round(spawn, 3),
        "wall_seconds": round(wall, 3),
        "framework_overhead_seconds": round(wall - ideal, 3),
        "tuples_per_sec": round(total / wall, 1),
        "wire_frames_sent": stats.wire_frames_sent,
        "wire_frames_received": stats.wire_frames_received,
        "data_flushes": stats.data_flushes,
        "mean_batch_occupancy": round(stats.mean_batch_occupancy, 2),
    }


def run_recovery() -> dict:
    def one_run(kill: bool) -> dict:
        config = dataclasses.replace(SUPERVISION, worker_mode="sleep")
        region = ProcessRegion(3, supervisor_config=config, window=16)
        driver = None
        t0 = time.perf_counter()
        try:
            # All three workers serving before tuple 0: the victim then
            # holds its share of the window when the kill lands.
            region.start().wait_ready(timeout=60.0)
            if kill:
                driver = RealFaultDriver(region, poll_interval=0.002)
                FaultSchedule.crash_after_emitted(
                    1, RECOVERY_TUPLES // 8
                ).arm_real(driver)
                driver.start()
            stats = region.run(
                [RECOVERY_COST] * RECOVERY_TUPLES, timeout=300.0
            )
        finally:
            if driver is not None:
                driver.stop()
            region.close()
        wall = time.perf_counter() - t0
        assert stats.results == RECOVERY_TUPLES
        return {"stats": stats, "wall": wall}

    clean = one_run(kill=False)
    killed = one_run(kill=True)
    stats = killed["stats"]
    assert stats.restarts >= 1, "the SIGKILL leg must actually restart"
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
        "time_to_reconverge_s": (
            None if stats.time_to_reconverge is None
            else round(stats.time_to_reconverge, 3)
        ),
        "tuples_replayed": stats.replayed,
        "restarts": stats.restarts,
        "duplicates_dropped": stats.duplicates_dropped,
    }


def collect_report() -> dict:
    sweeps = {}
    for key, batch in (("scaling", 1), ("scaling_batched", BATCH_SIZE)):
        rows = [run_scaling(n, batch) for n in WORKER_COUNTS]
        base = rows[0]["wall_seconds"]
        for row in rows:
            row["speedup_vs_1"] = round(base / row["wall_seconds"], 2)
        sweeps[key] = rows
    return {
        "workload": {
            "tuple_cost_seconds": TUPLE_COST,
            "service_budget_seconds": SPIN_BUDGET_SECONDS,
            "cores": os.cpu_count(),
            "mode": "spin",
            "batch_size_batched": BATCH_SIZE,
        },
        **sweeps,
        "recovery": run_recovery(),
    }


def render(payload: dict) -> str:
    lines = [f"cores available: {payload['workload']['cores']}"]
    for key, label in (
        ("scaling", "per-tuple wire (batch_size=1)"),
        ("scaling_batched",
         f"batched wire (batch_size={payload['workload']['batch_size_batched']})"),
    ):
        lines += [
            "",
            f"{label}:",
            f"{'workers':>7}  {'tuples':>7}  {'wall s':>7}  {'ovh s':>7}"
            f"  {'tuples/s':>9}  {'frames':>7}  {'speedup':>7}",
        ]
        for row in payload[key]:
            lines.append(
                f"{row['workers']:>7}  {row['tuples']:>7}"
                f"  {row['wall_seconds']:>7.3f}"
                f"  {row['framework_overhead_seconds']:>7.3f}"
                f"  {row['tuples_per_sec']:>9,.0f}"
                f"  {row['wire_frames_sent']:>7}"
                f"  {row['speedup_vs_1']:>6.2f}x"
            )
    r = payload["recovery"]
    lines += [
        "",
        f"kill-recovery ({r['tuples']} tuples, SIGKILL mid-batch):",
        f"  clean run     {r['clean_wall_seconds']:.3f}s",
        f"  with kill     {r['killed_wall_seconds']:.3f}s"
        f"  ({r['recovery_overhead_seconds']:+.3f}s)",
        f"  ttq           {r['time_to_quarantine_ms']} ms",
        f"  ttr           {r['time_to_reconverge_s']} s",
        f"  replayed      {r['tuples_replayed']} tuples"
        f"  ({r['duplicates_dropped']} duplicates dropped)",
    ]
    return "\n".join(lines)


def write_report(payload: dict) -> None:
    existing = {}
    if BENCH_JSON.exists():
        existing = json.loads(BENCH_JSON.read_text())
    # Merge, don't clobber: keys another run put in this section (or a
    # sweep this invocation didn't regenerate) survive the update.
    section = existing.setdefault("process_dataplane", {})
    section.update(payload)
    BENCH_JSON.write_text(json.dumps(existing, indent=1) + "\n")


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
    # (4 workers slower than 1) that motivated batching.
    widest = max(WORKER_COUNTS)
    batched = {row["workers"]: row for row in payload["scaling_batched"]}
    batched_ovh = batched[widest]["framework_overhead_seconds"]
    unbatched_ovh = rows[min(WORKER_COUNTS)]["framework_overhead_seconds"]
    if batched_ovh > unbatched_ovh:
        raise RuntimeError(
            f"batched {widest}-worker framework overhead {batched_ovh}s "
            f"exceeds unbatched 1-worker overhead {unbatched_ovh}s: "
            "the batched wire is not amortizing per-tuple costs"
        )
    cores = payload["workload"]["cores"] or 1
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
    if not SMOKE:  # tiny smoke runs must not overwrite recorded numbers
        write_report(payload)
    check_shape(payload)


def main() -> None:
    payload = collect_report()
    write_report(payload)
    print(render(payload))
    check_shape(payload)


if __name__ == "__main__":
    main()
