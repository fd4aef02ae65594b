"""Batched dataplane fast path: throughput vs ``RegionParams.batch_size``.

One fixed region — 4 equal workers on one host, constant-cost tuples,
weighted routing — driven to completion at each batch size in the sweep.
The simulated outcome is identical at every B (the equivalence property
test pins that); what changes is how much wall-clock work the simulator
does per tuple. Batching amortizes the per-tuple event chain: the
splitter apportions a whole batch of column blocks per dispatch cycle,
workers service runs with one completion event, and the merger
bulk-accepts each run.

Recorded shape (reference machine): batching is a monotone win from B=4
up — B=4 clears B=1 (the old "B=4 crossover", where block overhead used
to exceed per-tuple overhead, is gone since the dataplane went
array-native), B=16 clears 1.5x, and B=64 clears 5x. Each batch size is
timed ``REPEATS`` times and the best run recorded, so scheduler noise
does not masquerade as a regression.

Writes a ``batched_dataplane`` section into ``BENCH_core.json`` (merged,
preserving the hot-path sections). Regenerate standalone with::

    PYTHONPATH=src python benchmarks/bench_batched_dataplane.py
"""

import json
import pathlib
import time

from conftest import SMOKE, run_once, smoke_scale

from repro.analysis.shape import assert_faster
from repro.core.policies import WeightedPolicy
from repro.sim.engine import Simulator
from repro.streams.hosts import Host, Placement
from repro.streams.region import ParallelRegion, RegionParams
from repro.streams.sources import FiniteSource, constant_cost

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_core.json"

BATCH_SIZES = (1, 4, 16, 64)
N_WORKERS = 4
TOTAL_TUPLES = smoke_scale(150_000, 6_000)
TUPLE_COST = 100.0  # multiplies; small, so per-tuple overhead dominates
#: Timed runs per batch size; the fastest is recorded (min-of-N is the
#: standard way to strip scheduler noise from a deterministic workload).
REPEATS = 3


def run_region(batch_size: int) -> dict:
    """Drive the fixed workload to completion at one batch size."""
    sim = Simulator()
    host = Host("h", cores=8, thread_speed=1e7)
    region = ParallelRegion(
        sim,
        FiniteSource(TOTAL_TUPLES, constant_cost(TUPLE_COST)),
        WeightedPolicy([1] * N_WORKERS),
        Placement.single_host(N_WORKERS, host),
        params=RegionParams(batch_size=batch_size),
    )
    region.merger.on_completion(TOTAL_TUPLES, sim.stop)
    region.start()
    t0 = time.perf_counter()
    sim.run_until(1e9)
    wall = time.perf_counter() - t0
    assert region.merger.emitted == TOTAL_TUPLES
    return {
        "batch_size": batch_size,
        "wall_seconds": round(wall, 4),
        "tuples_per_sec": round(TOTAL_TUPLES / wall, 1),
        "events_processed": sim.events_processed,
        "events_coalesced": sim.events_coalesced,
        "mean_dispatch_occupancy": round(
            region.splitter.dispatch_stats.mean_occupancy, 2
        ),
    }


def collect_report() -> dict:
    rows = [
        min(
            (run_region(b) for _ in range(REPEATS)),
            key=lambda row: row["wall_seconds"],
        )
        for b in BATCH_SIZES
    ]
    base = rows[0]["tuples_per_sec"]
    for row in rows:
        row["speedup_vs_b1"] = round(row["tuples_per_sec"] / base, 2)
    return {
        "workload": {
            "total_tuples": TOTAL_TUPLES,
            "tuple_cost_multiplies": TUPLE_COST,
            "n_workers": N_WORKERS,
            "repeats": REPEATS,
        },
        "sweep": rows,
    }


def render(payload: dict) -> str:
    lines = [
        f"{'B':>4}  {'tuples/s':>10}  {'events':>9}  {'coalesced':>9}"
        f"  {'occupancy':>9}  {'speedup':>7}"
    ]
    for row in payload["sweep"]:
        lines.append(
            f"{row['batch_size']:>4}  {row['tuples_per_sec']:>10,.0f}"
            f"  {row['events_processed']:>9,}  {row['events_coalesced']:>9,}"
            f"  {row['mean_dispatch_occupancy']:>9.2f}"
            f"  {row['speedup_vs_b1']:>6.2f}x"
        )
    return "\n".join(lines)


def write_report(payload: dict) -> None:
    """Merge the ``batched_dataplane`` section into BENCH_core.json."""
    existing = {}
    if BENCH_JSON.exists():
        existing = json.loads(BENCH_JSON.read_text())
    existing["batched_dataplane"] = payload
    BENCH_JSON.write_text(json.dumps(existing, indent=1) + "\n")


def check_shape(payload: dict) -> None:
    by = {row["batch_size"]: row for row in payload["sweep"]}
    if SMOKE:
        # CI tripwire against re-introducing the B=4 crossover: a small
        # batch must not fall behind the per-tuple path. Raised as
        # RuntimeError deliberately — the bench conftest downgrades
        # AssertionError to a warning at smoke scale, and this one floor
        # must fail the build.
        b1 = by[1]["tuples_per_sec"]
        b4 = by[4]["tuples_per_sec"]
        if b4 < 0.95 * b1:
            raise RuntimeError(
                f"B=4 crossover regressed: {b4:,.0f} tuples/s is below "
                f"0.95x the B=1 rate of {b1:,.0f} tuples/s"
            )
    # Acceptance floor: B=16 must clear 1.5x region throughput vs B=1.
    # assert_faster compares times, so feed it per-tuple costs.
    assert_faster(
        1.0 / by[16]["tuples_per_sec"],
        1.0 / by[1]["tuples_per_sec"],
        at_least=1.5,
        context="batched dataplane B=16 vs B=1",
    )
    assert_faster(
        1.0 / by[64]["tuples_per_sec"],
        1.0 / by[16]["tuples_per_sec"],
        at_least=1.0,
        context="batched dataplane B=64 vs B=16",
    )
    if SMOKE:
        return
    # Full-budget floors for the array-native dataplane: batching wins
    # from B=4 up, and B=64 amortizes at least 5x.
    assert_faster(
        1.0 / by[4]["tuples_per_sec"],
        1.0 / by[1]["tuples_per_sec"],
        at_least=1.0,
        context="batched dataplane B=4 vs B=1",
    )
    assert_faster(
        1.0 / by[64]["tuples_per_sec"],
        1.0 / by[1]["tuples_per_sec"],
        at_least=5.0,
        context="batched dataplane B=64 vs B=1",
    )
    for b in BATCH_SIZES[1:]:
        assert by[b]["events_processed"] < by[1]["events_processed"], (
            f"B={b} should schedule fewer events than B=1"
        )
        assert by[b]["events_coalesced"] > 0
    assert by[1]["events_coalesced"] == 0, "B=1 must not coalesce anything"


def test_batched_dataplane_sweep(benchmark, report):
    payload = run_once(benchmark, collect_report)
    report("batched_dataplane", render(payload))
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
