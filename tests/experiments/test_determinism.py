"""Determinism is the invariant of the hot-path optimizations.

Four guarantees pinned here:

* the engine's event order is reproducible bit-for-bit (golden trace
  hash over every fired event's ``(time, seq)``);
* the process-pool sweep executor returns exactly the rows the serial
  path produces;
* the block path's simulated outcome (Fig. 9 dynamic, ``batch_size=16``,
  plain / with a crash / observed / all three / a count-triggered crash)
  equals digests regenerated once when the apportionment took the
  round-robin's integer credits and a channel failure began to reclaim
  only the dead channel's share of a batch;
* the B = 1 outcome and event trace (Fig. 9 dynamic under three
  policies, jittered, with a crash bare and observed, the fault scenario
  under both gap policies, the overload scenario) equal digests recorded
  on the per-tuple path. The four fault-tolerant runs now take the block
  path: their event traces and result fingerprints are the per-tuple
  path's, and only their block-path digests moved (see
  :class:`TestPerTupleOutcome`).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.policies import RoundRobinPolicy
from repro.experiments import runner
from repro.experiments.config import fault_recovery_scenario, overload_scenario
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
    """Digests regenerated once, when the apportionment and the failover
    reclaim took the rules that make a batch of one a per-tuple step.

    The two observed digests were regenerated once more when only a
    dispatch cycle that waited began to record a ``batch_dispatch`` span:
    their span and event counts fell by the cycles that never blocked,
    and everything else they hash (the latency histogram included) held.
    """

    def test_plain(self):
        result = run_experiment(fig09_block_config(), "lb-adaptive")
        assert block_path_digest(result) == "fc8aa0a785a2128b"

    def test_with_crash(self):
        config = dataclasses.replace(
            fig09_block_config(fault_tolerant=True),
            fault_schedule=FaultSchedule.crash(1, at=5.0, restart_after=3.3),
        )
        result = run_experiment(config, "lb-adaptive")
        assert result.quarantines >= 1
        assert block_path_digest(result) == "38199acd27606458"

    def test_observed(self):
        result = run_experiment(
            fig09_block_config(observability=True), "lb-adaptive"
        )
        assert result.obs.metrics["merger_latency_seconds_count"] == 20_000
        assert block_path_digest(result) == "ce57aa04785c6608"

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
        assert block_path_digest(result) == "fb1292abef279e58"

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
        assert block_path_digest(result) == "7220f4a3003d4e90"


def traced_run(monkeypatch, config, policy="lb-adaptive"):
    """``(result, event-trace digest)`` of one simulator run.

    The runner builds its own :class:`Simulator`; a tracing subclass is
    put in its place for this run, so the product needs no trace hook.
    """
    built = []

    class TracingSimulator(Simulator):
        def __init__(self):
            super().__init__()
            self.enable_tracing()
            built.append(self)

    monkeypatch.setattr(runner, "Simulator", TracingSimulator)
    result = run_experiment(config, policy)
    (sim,) = built
    return result, sim.trace_digest()


def traced_outcome(monkeypatch, config, policy="lb-adaptive"):
    """``(block_path_digest, event-trace digest)`` of one simulator run."""
    result, trace = traced_run(monkeypatch, config, policy)
    return block_path_digest(result), trace


def fingerprint_sha256(result) -> str:
    """SHA-256 of :func:`result_fingerprint`: the measured outcome alone."""
    return hashlib.sha256(result_fingerprint(result).encode()).hexdigest()


def fig09_per_tuple_config(**region):
    config = fig09_config(8, dynamic=True, total_tuples=20_000)
    return dataclasses.replace(
        config, region=dataclasses.replace(config.region, **region)
    )


def fig09_crash_config(**region):
    return dataclasses.replace(
        fig09_per_tuple_config(fault_tolerant=True, **region),
        fault_schedule=FaultSchedule.crash(1, at=5.0, restart_after=3.3),
    )


class TestBatchOfOneAcrossTheRegion:
    """A batch of one is the per-tuple step, region-wide: a
    fault-tolerant region runs the block path at B = 1, and with no
    faults its measured outcome and event trace are the per-tuple path's
    on the same config — under every policy, with and without service
    jitter."""

    @pytest.mark.parametrize("policy", ["lb-adaptive", "rr", "oracle"])
    @pytest.mark.parametrize(
        "region",
        [{}, {"service_jitter": 0.05, "seed": 3}],
        ids=["exact", "jittered"],
    )
    def test_block_path_equals_per_tuple_path(
        self, monkeypatch, policy, region
    ):
        plain, plain_trace = traced_run(
            monkeypatch, fig09_per_tuple_config(**region), policy
        )
        config = fig09_per_tuple_config(fault_tolerant=True, **region)
        block, block_trace = traced_run(monkeypatch, config, policy)
        assert block.batches_dispatched == block.total_sent
        assert result_fingerprint(block) == result_fingerprint(plain)
        assert block_trace == plain_trace


class TestPerTupleOutcome:
    """B = 1 outcome and event order, recorded on the per-tuple path.

    The five fault-free runs still take the per-tuple path. The four
    fault-tolerant ones (the crash runs and the fault scenario) take the
    block path at every B now: their event-trace digests and the SHA-256
    of their ``result_fingerprint`` are the ones the per-tuple path
    recorded, and their block-path digests were regenerated once — they
    differ only in ``batches_dispatched`` and, on the observed run, in one
    ``batch_dispatch`` span (and its event) per dispatch cycle that waited
    (the observed digest was regenerated a second time when a cycle that
    never blocked stopped recording one).
    """

    @pytest.mark.parametrize(
        ("policy", "expected"),
        [
            ("lb-adaptive", ("86151e51adf68533", "a103c15564f552350f60d2801cf72d35")),
            ("rr", ("8a593e76427f7669", "d7a06b1167348c3da77a48d27e192e71")),
            ("oracle", ("e7d6fad658fc1f84", "777c77be5bd29404a856e2e01cc17080")),
        ],
    )
    def test_fig09_dynamic(self, monkeypatch, policy, expected):
        config = fig09_per_tuple_config()
        assert traced_outcome(monkeypatch, config, policy) == expected

    def test_fig09_jittered(self, monkeypatch):
        config = fig09_per_tuple_config(service_jitter=0.05, seed=3)
        assert traced_outcome(monkeypatch, config) == (
            "2157d2f0fb4001ab", "0d7d993275aef333d497dfda5a99af02"
        )

    # The fault-tolerant runs also pin the SHA-256 of their
    # result_fingerprint, recorded on the per-tuple path before they
    # moved to the block path.

    def test_fig09_crash(self, monkeypatch):
        result, trace = traced_run(monkeypatch, fig09_crash_config())
        assert fingerprint_sha256(result) == (
            "1292a374a606843d583b629bbf62077b3dce32a35f660f1e43650d62551b67f4"
        )
        outcome = (block_path_digest(result), trace)
        assert outcome == (
            "87efcd2c3aa12aaf", "cd1fe8358885dbb6fe8d1eb2683a48e3"
        )

    def test_fig09_crash_observed(self, monkeypatch):
        config = fig09_crash_config(observability=True)
        result, trace = traced_run(monkeypatch, config)
        assert fingerprint_sha256(result) == (
            "1292a374a606843d583b629bbf62077b3dce32a35f660f1e43650d62551b67f4"
        )
        # Recording schedules no event: the crash run's trace, unchanged.
        assert (block_path_digest(result), trace) == (
            "e06c640493728121", "cd1fe8358885dbb6fe8d1eb2683a48e3"
        )

    @pytest.mark.parametrize(
        ("gap_policy", "expected"),
        [
            ("replay", (
                "f7e120c3df20207c57ef32928b3c6a1e702c96cfd983185d82f2158fc6e2b2df",
                ("0f6c104de4f3483e", "76771c47205b614e3835be5edbbd108e"),
            )),
            ("skip", (
                "ee742a5dad8bb07d98d4cb37f4080e1c140bb130c6da411f6e837aa8989b4ca0",
                ("454cc5f391af9341", "e8cde49193e919a77e974f4ae79c25d1"),
            )),
        ],
    )
    def test_fault_recovery_scenario(self, monkeypatch, gap_policy, expected):
        config = fault_recovery_scenario(duration=60.0, gap_policy=gap_policy)
        result, trace = traced_run(monkeypatch, config)
        fingerprint, outcome = expected
        assert fingerprint_sha256(result) == fingerprint
        assert (block_path_digest(result), trace) == outcome

    def test_overload_scenario(self, monkeypatch):
        config = overload_scenario(duration=40.0)
        assert traced_outcome(monkeypatch, config) == (
            "05bd9966560b9b90", "f3471fe774b2f5051b5fec496d29e387"
        )
