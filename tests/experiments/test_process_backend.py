"""Tests for running ExperimentConfigs on the multi-process backend."""

import dataclasses
import json

import pytest

from repro.core.balancer import replay
from repro.experiments.config import HostSpec
from repro.experiments.process_backend import (
    PROCESS_POLICIES,
    process_scenario,
    run_process_experiment,
)
from repro.experiments.runner import run_experiment
from repro.proc.supervisor import SupervisorConfig
from repro.streams.region import RegionParams
from repro.workloads.external_load import LoadSchedule

def scenario(cost_seconds, **kwargs):
    """``process_scenario`` at ``cost_seconds`` of service a tuple."""
    config = process_scenario(**kwargs)
    return dataclasses.replace(
        config, tuple_cost=cost_seconds * config.host_specs[0].thread_speed
    )


FAST = SupervisorConfig(
    heartbeat_interval=0.02,
    heartbeat_timeout=0.25,
    monitor_interval=0.01,
    backoff_start=0.02,
    backoff_max=0.1,
)


class TestValidation:
    def test_rejects_simulator_only_policies(self):
        config = process_scenario(crash_worker=None, total_tuples=10)
        for policy in ("reroute", "oracle"):
            with pytest.raises(ValueError, match="not executable"):
                run_process_experiment(config, policy)
        assert "reroute" not in PROCESS_POLICIES

    def test_fixed_weights_go_with_fixed_policy_only(self):
        config = process_scenario(crash_worker=None, total_tuples=10)
        with pytest.raises(ValueError, match="fixed_weights"):
            run_process_experiment(config, "fixed")
        with pytest.raises(ValueError, match="fixed_weights"):
            run_process_experiment(config, "rr", fixed_weights=[1, 1, 1, 1])

    def test_requires_a_finite_tuple_budget(self):
        config = dataclasses.replace(
            process_scenario(crash_worker=None), total_tuples=None,
            duration=30.0,
        )
        with pytest.raises(ValueError, match="total_tuples"):
            run_process_experiment(config, "rr")

    def test_rejects_open_loop_arrival_rate(self):
        config = dataclasses.replace(
            process_scenario(crash_worker=None), arrival_rate=500.0
        )
        with pytest.raises(ValueError, match="arrival_rate"):
            run_process_experiment(config, "rr")

    def test_rejects_unordered_region(self):
        config = dataclasses.replace(
            process_scenario(crash_worker=None), ordered=False
        )
        with pytest.raises(ValueError, match="ordered"):
            run_process_experiment(config, "rr")

    def test_rejects_overload_protection(self):
        config = process_scenario(crash_worker=None)
        config = dataclasses.replace(
            config,
            region=dataclasses.replace(
                config.region, overload_protection=True
            ),
        )
        with pytest.raises(ValueError, match="overload_protection"):
            run_process_experiment(config, "rr")

    def test_region_params_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            RegionParams(backend="quantum")
        assert RegionParams().backend == "sim"
        assert RegionParams(backend="process").backend == "process"


class TestScenario:
    def test_defaults_build_a_process_config(self):
        config = process_scenario()
        assert config.region.backend == "process"
        assert config.total_tuples == 400
        assert not config.fault_schedule.empty()
        # The host spec is derived so cost maps back to seconds exactly.
        speed = config.host_specs[0].thread_speed
        assert config.tuple_cost / speed == pytest.approx(0.002)

    def test_fault_free_scenario_has_empty_schedule(self):
        assert process_scenario(crash_worker=None).fault_schedule.empty()

    def test_count_trigger_is_used_when_given(self):
        config = process_scenario(crash_worker=2, crash_at_emitted=50)
        assert config.fault_schedule.count_crashes[0].emitted == 50
        assert config.fault_schedule.count_crashes[0].worker == 2

    def test_batch_size_rides_region_params(self):
        assert process_scenario().region.batch_size == 1
        assert process_scenario(batch_size=16).region.batch_size == 16


@pytest.mark.sockets
class TestExecution:
    def test_run_experiment_dispatches_on_backend(self):
        config = scenario(
            0.0005, n_workers=2, total_tuples=60, crash_worker=None
        )
        result = run_experiment(config, "rr", record_series=False)
        assert result.completed
        assert result.emitted == 60
        assert result.policy == "rr"
        assert result.worker_restarts == 0
        assert result.execution_time is not None

    def test_kill_recovery_round_trips_through_export(self):
        config = scenario(
            0.001,
            n_workers=3,
            total_tuples=200,
            crash_worker=1,
            crash_at_emitted=30,
        )
        result = run_process_experiment(
            config, "rr", supervisor_config=FAST, timeout=60.0
        )
        assert result.completed
        assert result.emitted == 200
        assert result.worker_restarts >= 1
        assert result.quarantines >= 1
        assert result.time_to_quarantine is not None
        assert result.tuples_replayed >= 0
        # Retransmissions are visible in the sent-vs-emitted accounting.
        assert result.total_sent >= result.emitted

    def test_batched_wire_runs_through_experiment_dispatch(self):
        # batch_size plumbs ExperimentConfig -> run_process_experiment ->
        # ProcessRegion, surviving a mid-run kill on the batched wire.
        config = scenario(
            0.001,
            n_workers=2,
            total_tuples=120,
            crash_worker=1,
            crash_at_emitted=20,
            batch_size=8,
        )
        result = run_process_experiment(
            config, "rr", supervisor_config=FAST, timeout=60.0
        )
        assert result.completed
        assert result.emitted == 120
        assert result.worker_restarts >= 1

    def test_summary_mentions_restarts(self):
        config = scenario(
            0.001,
            n_workers=2,
            total_tuples=120,
            crash_worker=0,
            crash_at_emitted=20,
        )
        result = run_process_experiment(
            config, "rr", supervisor_config=FAST, timeout=60.0
        )
        assert result.worker_restarts >= 1
        assert "worker_restarts=" in result.summary()

    def test_lb_adaptive_log_replays_through_the_core(self):
        # The control-plane half of a backend comparison: the counters a
        # process run sampled, replayed through the core, give every
        # weight vector the live region applied.
        config = dataclasses.replace(
            # The scenario's own tuple cost (SCENARIO_TUPLE_SECONDS).
            process_scenario(
                n_workers=3,
                total_tuples=1500,
                crash_worker=None,
            ),
            host_specs=[
                HostSpec("fast", thread_speed=1e6),
                HostSpec("slow", thread_speed=2.5e5),
            ],
            worker_host=[0, 0, 1],
            sample_interval=0.1,
        ).with_observability()
        result = run_process_experiment(
            config, "lb-adaptive", supervisor_config=FAST, timeout=60.0
        )
        assert result.completed
        events = map(json.loads, result.obs.events_jsonl().splitlines())
        audit = [e for e in events if e["type"] == "audit"]
        assert len(audit) >= 3
        applied = [r["new_weights"] for r in audit]
        assert replay(audit, config.balancer, config.n_workers) == applied
        assert applied[-1] == result.final_weights


@pytest.mark.sockets
class TestLoadScheduleOnBothBackends:
    """One progress-triggered load removal, run by either backend."""

    @staticmethod
    def config(backend):
        # Worker 0 takes 20x longer until 10 tuples are merged.
        config = scenario(
            0.002, n_workers=2, total_tuples=200, crash_worker=None
        )
        return dataclasses.replace(
            config,
            load_schedule=LoadSchedule.removed_after_emitted([0], 20.0, 10),
            region=dataclasses.replace(config.region, backend=backend),
        )

    def test_simulator_runs_it(self):
        config = self.config("sim")
        result = run_experiment(config, "rr", record_series=False)
        assert result.completed
        assert result.emitted == 200
        assert result.tuples_lost == 0
        loaded = run_experiment(
            dataclasses.replace(
                config, load_schedule=LoadSchedule.static_load([0], 20.0)
            ),
            "rr",
            record_series=False,
        )
        assert result.execution_time < loaded.execution_time / 4

    def test_process_backend_runs_it(self):
        result = run_experiment(
            self.config("process"), "rr", record_series=False
        )
        assert result.completed
        assert result.emitted == 200
        assert result.tuples_lost == 0
        # Never removed, worker 0's 100 tuples alone would take 4 s.
        assert result.execution_time < 2.0
