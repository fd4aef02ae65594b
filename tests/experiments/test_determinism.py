"""Determinism is the invariant of the hot-path optimizations.

Three guarantees pinned here:

* the engine's event order is reproducible bit-for-bit (golden trace
  hash over every fired event's ``(time, seq)``);
* the process-pool sweep executor returns exactly the rows the serial
  path produces;
* the block path's simulated outcome (Fig. 9 dynamic, ``batch_size=16``,
  plain / with a crash / observed / all three) equals digests recorded
  before the merger's reorder buffer was indexed and emission went by
  run (the combined one before acks and histogram steps went by run).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.policies import RoundRobinPolicy
from repro.experiments.figures import fig09_config
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import run_sweep
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
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


def small_region_trace() -> str:
    """Event-trace digest of a small two-worker region run."""
    sim = Simulator()
    sim.enable_tracing()
    region = ParallelRegion(
        sim,
        FiniteSource(400, constant_cost(1000.0)),
        RoundRobinPolicy(2),
        Placement.single_host(2, Host("h", cores=2, thread_speed=1e6)),
        params=RegionParams(service_jitter=0.05),
    )
    region.start()
    sim.run_until_idle(100.0)
    assert region.merger.emitted == 400
    return sim.trace_digest()


class TestGoldenTrace:
    def test_event_order_is_reproducible(self):
        assert small_region_trace() == small_region_trace()


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


def block_path_digest(result) -> str:
    """What a block-path run simulated, hashed.

    :func:`result_fingerprint` plus the block path's own counters and, on
    an observed run, the latency histogram and the record counts. The
    latency series is left out on purpose: a block emitted by run sums
    its tuples' latencies before adding them to the running total, which
    rounds differently from adding them one by one.
    """
    payload = {
        "fingerprint": result_fingerprint(result),
        "max_merger_pending": result.max_merger_pending,
        "batches_dispatched": result.batches_dispatched,
        "quarantines": result.quarantines,
        "tuples_replayed": result.tuples_replayed,
    }
    if result.obs is not None:
        payload["histogram"] = sorted(
            (name, value)
            for name, value in result.obs.metrics.items()
            if name.startswith("merger_latency_seconds")
        )
        payload["records"] = [
            len(result.obs.spans), len(result.obs.audit), len(result.obs.events)
        ]
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def fig09_block_config(**region):
    config = fig09_config(8, dynamic=True, total_tuples=20_000)
    return dataclasses.replace(
        config, region=dataclasses.replace(config.region, batch_size=16, **region)
    )


class TestBlockPathOutcome:
    """Digests recorded on the commit before the merge was indexed."""

    def test_plain(self):
        result = run_experiment(fig09_block_config(), "lb-adaptive")
        assert block_path_digest(result) == "542e43c31c9137ae"

    def test_with_crash(self):
        config = dataclasses.replace(
            fig09_block_config(fault_tolerant=True),
            fault_schedule=FaultSchedule.crash(1, at=5.0, restart_after=3.3),
        )
        result = run_experiment(config, "lb-adaptive")
        assert result.quarantines >= 1
        assert block_path_digest(result) == "6afae45f5de28650"

    def test_observed(self):
        result = run_experiment(
            fig09_block_config(observability=True), "lb-adaptive"
        )
        assert result.obs.metrics["merger_latency_seconds_count"] == 20_000
        assert block_path_digest(result) == "f29b2259a43b896f"

    def test_full(self):
        # Both gates and a crash: the revoked service, its replay and the
        # latency histogram all on one run (the sim-full combination).
        config = dataclasses.replace(
            fig09_block_config(fault_tolerant=True, observability=True),
            fault_schedule=FaultSchedule.crash(1, at=5.0, restart_after=3.3),
        )
        result = run_experiment(config, "lb-adaptive")
        assert result.quarantines >= 1
        assert result.obs.metrics["merger_latency_seconds_count"] == 20_000
        assert block_path_digest(result) == "55d2592e3b7bd5c0"

    def test_count_crash_inside_a_block_fires_on_its_tuple(self, monkeypatch):
        # The merger reaches 6 005 emitted two tuples into the block
        # [6003, 6007): the crash must still fire at exactly that count,
        # at the instant the block is emitted.
        fired = []
        crash = FaultInjector.crash

        def recording_crash(self, worker, **kwargs):
            fired.append((self.region.merger.emitted, self.sim.now))
            crash(self, worker, **kwargs)

        monkeypatch.setattr(FaultInjector, "crash", recording_crash)
        config = dataclasses.replace(
            fig09_block_config(fault_tolerant=True),
            fault_schedule=FaultSchedule.crash_after_emitted(
                1, 6_005, restart_after=3.3
            ),
        )
        result = run_experiment(config, "lb-adaptive")
        assert fired == [(6_005, 21.62999999999989)]
        assert block_path_digest(result) == "0c03ffaa0296b5d6"
