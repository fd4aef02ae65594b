#!/usr/bin/env python3
"""Kill a real worker process mid-run; watch ordered delivery survive.

Four worker OS processes serve a region over TCP. A third of the way
through the batch, worker 1 is SIGKILLed — a real signal to a real pid,
not a simulated event. The supervisor detects the death (dead socket /
missed heartbeats), replays the killed worker's unacknowledged tuples to
the survivors from the retransmit buffer, respawns the worker with
backoff, and reintegrates it when it reconnects.

The example asserts the paper's end-to-end guarantee: the merged output
is gap-free, in order, and exactly-once — and the observability export
contains the restart episode (detection -> quarantine -> restart spans).

Run:  python examples/process_kill_recovery.py
"""

import time

from repro.faults.recovery import first_time_to_reconverge
from repro.faults.schedule import FaultSchedule
from repro.obs.hub import ObservabilityConfig, ObservabilityHub
from repro.proc.faults import RealFaultDriver
from repro.proc.region import ProcessRegion
from repro.proc.supervisor import SupervisorConfig

N_WORKERS = 4
TOTAL_TUPLES = 600
TUPLE_COST_SECONDS = 0.002
KILL_WORKER = 1
KILL_AT_EMITTED = TOTAL_TUPLES // 3


def main() -> None:
    region = ProcessRegion(
        N_WORKERS,
        supervisor_config=SupervisorConfig(
            heartbeat_interval=0.05,
            heartbeat_timeout=0.5,
            monitor_interval=0.02,
            backoff_start=0.05,
            backoff_max=0.5,
        ),
        window=16,
    )
    hub = ObservabilityHub(region.clock, ObservabilityConfig())
    region.attach_observability(hub)

    driver = RealFaultDriver(region)
    FaultSchedule.crash_after_emitted(
        KILL_WORKER, KILL_AT_EMITTED
    ).arm_real(driver)

    print(f"{N_WORKERS} worker processes, {TOTAL_TUPLES} tuples; "
          f"SIGKILL worker {KILL_WORKER} after {KILL_AT_EMITTED} emitted.")
    try:
        region.start()
        driver.start()
        for i in range(TOTAL_TUPLES):
            region.submit(TUPLE_COST_SECONDS, b"tuple-%d" % i)
        region.drain(timeout=120.0)
        # Keep the region open until the replacement rejoins, so the
        # restart episode closes (it usually has by now).
        deadline = time.monotonic() + 30.0
        while (first_time_to_reconverge(region.supervisor.episodes) is None
               and time.monotonic() < deadline):
            time.sleep(0.02)
        stats = region.stats()
        outputs = list(region.outputs)
    finally:
        driver.stop()
        region.close()
    hub.finalize(region.clock())
    report = hub.report()

    # --- the guarantees, asserted -------------------------------------
    assert [seq for seq, _ in outputs] == list(range(TOTAL_TUPLES)), (
        "output has gaps or reorderings"
    )
    assert [body for _, body in outputs] == [
        b"tuple-%d" % i for i in range(TOTAL_TUPLES)
    ], "output bodies were corrupted"
    assert stats.restarts >= 1, "the kill never triggered a restart"
    span_kinds = {span["kind"] for span in report.spans}
    assert "detection" in span_kinds, "no detection span recorded"
    assert "restart" in span_kinds, "no restart episode in the obs export"

    print(f"\nmerged {stats.results} tuples, in order, no gaps, "
          f"no duplicates ({stats.duplicates_dropped} dropped).")
    print(f"fired: {[(round(t, 3), what) for t, what in driver.fired]}")
    print(f"replayed from retransmit buffer: {stats.replayed}")
    print(f"supervised restarts: {stats.restarts}")
    if stats.time_to_quarantine is not None:
        print(f"fault -> detection (ttq): "
              f"{stats.time_to_quarantine * 1e3:.1f} ms")
    if stats.time_to_reconverge is not None:
        print(f"detection -> rejoined (ttr): "
              f"{stats.time_to_reconverge:.2f} s")
    counts = {}
    for span in report.spans:
        counts[span["kind"]] = counts.get(span["kind"], 0) + 1
    print(f"obs spans: {counts}")
    print("\nordered exactly-once delivery survived a real SIGKILL.")


if __name__ == "__main__":
    main()
