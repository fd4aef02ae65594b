"""Determinism is the invariant of the hot-path optimizations.

Three guarantees pinned here:

* the engine's event order is reproducible bit-for-bit (golden trace
  hash over every fired event's ``(time, seq)``);
* transfers started by one pump share one arrival event;
* the process-pool sweep executor returns exactly the rows the serial
  path produces.
"""

import dataclasses
import json

import pytest

from repro.core.policies import RoundRobinPolicy
from repro.experiments.figures import fig09_config
from repro.experiments.sweep import run_sweep
from repro.sim.engine import Simulator
from repro.streams.hosts import Host, Placement
from repro.streams.region import ParallelRegion, RegionParams
from repro.streams.sources import FiniteSource, constant_cost


def result_fingerprint(result):
    """Everything an experiment measures, JSON-canonicalized.

    Wall-clock fields are excluded by construction: they are the only
    nondeterministic outputs.
    """
    payload = {
        "execution_time": result.execution_time,
        "completed": result.completed,
        "emitted": result.emitted,
        "sim_time": result.sim_time,
        "rerouted": result.rerouted,
        "total_sent": result.total_sent,
        "block_events": result.block_events,
        "final_weights": result.final_weights,
        "events_processed": result.events_processed,
        "throughput": list(
            zip(result.throughput_series.times, result.throughput_series.values)
        ),
        "weights": [list(zip(s.times, s.values)) for s in result.weight_series],
        "rates": [list(zip(s.times, s.values)) for s in result.rate_series],
    }
    return json.dumps(payload, sort_keys=True)


def small_region_trace(*, wire_delay: float) -> str:
    """Event-trace digest of a small two-worker region run."""
    sim = Simulator()
    sim.enable_tracing()
    region = ParallelRegion(
        sim,
        FiniteSource(400, constant_cost(1000.0)),
        RoundRobinPolicy(2),
        Placement.single_host(2, Host("h", cores=2, thread_speed=1e6)),
        params=RegionParams(
            wire_delay=wire_delay,
            service_jitter=0.05,
        ),
    )
    region.start()
    sim.run_until_idle(100.0)
    assert region.merger.emitted == 400
    return sim.trace_digest()


class TestGoldenTrace:
    def test_event_order_is_reproducible(self):
        first = small_region_trace(wire_delay=0.0)
        second = small_region_trace(wire_delay=0.0)
        assert first == second

    def test_event_order_reproducible_with_wire_delay(self):
        first = small_region_trace(wire_delay=1e-4)
        second = small_region_trace(wire_delay=1e-4)
        assert first == second


class TestBatchingInvariance:
    def test_batch_moves_multiple_tuples_in_one_event(self):
        from repro.net.connection import SimulatedConnection

        sim = Simulator()
        conn = SimulatedConnection(
            sim,
            0,
            send_capacity=8,
            recv_capacity=4,
            wire_delay=1e-3,
        )
        for i in range(12):
            assert conn.send_nowait(i)
        sim.run_until(1.0)
        assert conn.recv_available() == 4  # receive buffer full
        assert conn.queued_tuples() == 12
        # Free two receive slots at once (a bursty consumer), then let
        # flow control catch up in a single pump.
        conn._recv_buffer.pop()
        conn._recv_buffer.pop()
        before = sim.perf.events_scheduled
        conn._pump()
        # Both backlogged tuples share one arrival event.
        assert sim.perf.events_scheduled - before == 1


class TestSweepParallelism:
    @pytest.mark.parametrize("policies", [("oracle", "rr")])
    def test_parallel_rows_match_serial_rows(self, policies):
        def factory(n):
            return fig09_config(n, dynamic=False)

        serial = run_sweep(factory, (2,), policies, jobs=1)
        # jobs=2 engages the process pool (falling back to the serial
        # path on platforms where pools are unavailable — in which case
        # this still pins that the fallback is byte-identical).
        parallel = run_sweep(factory, (2,), policies, jobs=2)
        assert [dataclasses.asdict(r) for r in serial] == [
            dataclasses.asdict(r) for r in parallel
        ]

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(
                lambda n: fig09_config(n, dynamic=False),
                (2,),
                ("rr",),
                jobs=0,
            )
