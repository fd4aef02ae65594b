"""End-to-end acceptance tests for the observability subsystem.

Pinned here, per the issue's acceptance criteria:

* obs off (the default) changes nothing: the event trace digest and
  every experiment result are byte-identical with and without a hub
  attached;
* an observed fault+overload scenario yields exactly one audit record
  per control round, and replaying the records through a fresh balancer
  reproduces the weights the run applied, round by round — from the
  report and from the JSONL export, here and on two more scenarios;
* recovery and overload spans agree with the ttq/ttr and shed metrics
  computed from the same episodes;
* the JSONL/CSV/Prometheus exports validate against the documented
  schema.
"""

import dataclasses
import json
import pickle

import pytest

from repro.core.balancer import even_split, replay
from repro.core.policies import RoundRobinPolicy
from repro.experiments.config import (
    ExperimentConfig,
    fault_recovery_scenario,
    overload_scenario,
)
from repro.experiments.runner import run_experiment
from repro.faults.schedule import FaultSchedule
from repro.obs.hub import ObservabilityConfig, ObservabilityHub
from repro.obs.schema import validate_events_jsonl, validate_prometheus
from repro.sim.engine import Simulator
from repro.streams.hosts import Host, Placement
from repro.streams.region import ParallelRegion, RegionParams
from repro.streams.sources import FiniteSource, constant_cost

from tests.experiments.test_determinism import (
    fig09_block_config,
    result_fingerprint,
)


def observed_scenario() -> ExperimentConfig:
    """Overload + a mid-run crash: exercises every span/audit producer."""
    config = overload_scenario(duration=60.0)
    config = dataclasses.replace(
        config,
        fault_schedule=FaultSchedule.crash(1, at=15.0, restart_after=20.0),
    )
    return config.with_observability()


@pytest.fixture(scope="module")
def observed_run():
    return run_experiment(observed_scenario(), "lb-adaptive")


class TestObsOffIsFree:
    def test_trace_digest_identical_with_hub_attached(self):
        def digest(attach: bool) -> str:
            sim = Simulator()
            sim.enable_tracing()
            region = ParallelRegion(
                sim,
                FiniteSource(400, constant_cost(1000.0)),
                RoundRobinPolicy(2),
                Placement.single_host(2, Host("h", cores=2, thread_speed=1e6)),
                params=RegionParams(service_jitter=0.05),
            )
            if attach:
                hub = ObservabilityHub(lambda: sim.now)
                sim.attach_observability(hub)
                region.attach_observability(hub)
            region.start()
            sim.run_until_idle(100.0)
            assert region.merger.emitted == 400
            return sim.trace_digest()

        assert digest(attach=False) == digest(attach=True)

    def test_results_identical_with_observability_on(self):
        config = fault_recovery_scenario(duration=40.0)
        bare = run_experiment(config, "lb-adaptive")
        observed = run_experiment(
            config.with_observability(), "lb-adaptive"
        )
        assert bare.obs is None
        assert observed.obs is not None
        assert result_fingerprint(bare) == result_fingerprint(observed)


class TestAuditAcceptance:
    def test_one_periodic_record_per_control_round(self, observed_run):
        rounds = [
            r["round"]
            for r in observed_run.obs.audit
            if r["trigger"] == "periodic" and r["round"] >= 0
        ]
        assert rounds == sorted(rounds)
        assert len(rounds) == len(set(rounds))  # exactly one per round
        assert rounds, "scenario produced no control rounds"
        assert rounds == list(range(rounds[0], rounds[-1] + 1))

    def test_weights_chain_through_applied_weights(self, observed_run):
        records = observed_run.obs.audit
        n = observed_run.n_workers
        config = observed_scenario().balancer
        replayed = replay(records, config, n)
        assert replayed == [r["new_weights"] for r in records]
        # The weights a round started from are the replay's after the
        # round before it.
        before = [even_split(config.resolution, n), *replayed[:-1]]
        for r, old in zip(records, before):
            assert len(r["new_weights"]) == n
            if r["outcome"] in (
                "no-change",
                "rejected-hysteresis",
            ) or r["outcome"].startswith("hold-"):
                assert r["new_weights"] == old
        # The last applied weights are the run's final weights.
        assert records[-1]["new_weights"] == observed_run.final_weights

    def test_crash_produces_quarantine_trigger(self, observed_run):
        triggers = {r["trigger"] for r in observed_run.obs.audit}
        assert "quarantine" in triggers
        quarantine = next(
            r for r in observed_run.obs.audit if r["trigger"] == "quarantine"
        )
        assert quarantine["channel"] == 1
        assert quarantine["new_weights"][1] == 0

    def test_rejections_keep_candidate_visible(self, observed_run):
        # The proposal a rejection turned down is recomputed by replaying
        # with the hysteresis gate off: every decision before the first
        # rejection is the same, and at it the proposal is adopted.
        records = observed_run.obs.audit
        first = next(
            k
            for k, r in enumerate(records)
            if r["outcome"] == "rejected-hysteresis"
        )
        config = observed_scenario().balancer
        ungated = replay(
            records[: first + 1],
            dataclasses.replace(config, hysteresis=0.0),
            observed_run.n_workers,
        )
        held = [r["new_weights"] for r in records[: first + 1]]
        assert ungated[:first] == held[:first]
        assert ungated[first] != held[first]


def audit_from_jsonl(result) -> list[dict]:
    """The audit events of a run's JSONL export, parsed back."""
    events = map(json.loads, result.obs.events_jsonl().splitlines())
    return [e for e in events if e["type"] == "audit"]


class TestReplayFromExport:
    """Replaying an exported log lands on every round's applied weights."""

    def assert_replays(self, result, config, triggers):
        audit = audit_from_jsonl(result)
        assert len(audit) == len(result.obs.audit)
        assert {r["trigger"] for r in audit} == set(triggers)
        assert replay(audit, config.balancer, config.n_workers) == [
            r["new_weights"] for r in audit
        ]
        assert audit[-1]["new_weights"] == result.final_weights

    def test_observed_scenario(self, observed_run):
        self.assert_replays(
            observed_run,
            observed_scenario(),
            ("periodic", "quarantine", "reintegrate"),
        )

    def test_fault_recovery_scenario(self):
        config = fault_recovery_scenario(duration=40.0).with_observability()
        result = run_experiment(config, "lb-adaptive")
        self.assert_replays(result, config, ("periodic", "quarantine"))

    def test_block_path_with_crash(self):
        config = dataclasses.replace(
            fig09_block_config(fault_tolerant=True, observability=True),
            fault_schedule=FaultSchedule.crash(1, at=5.0, restart_after=3.3),
        )
        result = run_experiment(config, "lb-adaptive")
        self.assert_replays(
            result, config, ("periodic", "quarantine", "reintegrate")
        )

    def test_lb_static_replays_with_the_runs_config(self):
        # The runner turns decay off for lb-static; replay needs the same.
        config = fault_recovery_scenario(duration=40.0).with_observability()
        result = run_experiment(config, "lb-static")
        static = dataclasses.replace(config.balancer, decay=0.0)
        audit = audit_from_jsonl(result)
        applied = [r["new_weights"] for r in audit]
        assert replay(audit, static, config.n_workers) == applied
        assert replay(audit, config.balancer, config.n_workers) != applied


class TestSpanAcceptance:
    def test_detection_span_matches_ttq(self, observed_run):
        spans = observed_run.obs.spans_of_kind("detection")
        assert len(spans) == 1
        assert spans[0]["duration"] == pytest.approx(
            observed_run.time_to_quarantine
        )

    def test_reconvergence_span_matches_ttr(self, observed_run):
        spans = observed_run.obs.spans_of_kind("reconvergence")
        assert len(spans) == 1
        assert spans[0]["duration"] == pytest.approx(
            observed_run.time_to_reconverge
        )

    def test_overload_spans_match_overloaded_seconds(self, observed_run):
        spans = observed_run.obs.spans_of_kind("overload")
        assert spans, "overload scenario never tripped the detector"
        total = sum(s["duration"] for s in spans)
        slack = (
            observed_scenario().overload.check_interval
            if any(s["attrs"].get("truncated") for s in spans)
            else 1e-9
        )
        assert abs(total - observed_run.overload_seconds) <= slack
        closed = [s for s in spans if not s["attrs"].get("truncated")]
        for s in closed:
            assert s["attrs"]["shed"] >= 0

    def test_blocking_spans_match_blocking_counters(self, observed_run):
        closed = [
            s
            for s in observed_run.obs.spans_of_kind("blocking")
            if not s["attrs"].get("truncated")
        ]
        span_total = sum(s["duration"] for s in closed)
        metric_total = sum(
            v
            for k, v in observed_run.obs.metrics.items()
            if k.startswith("connection_blocking_seconds_total")
        )
        assert span_total == pytest.approx(metric_total)

    def test_flow_pause_spans_match_paused_seconds(self, observed_run):
        spans = observed_run.obs.spans_of_kind("flow_pause")
        closed = [s for s in spans if not s["attrs"].get("truncated")]
        if closed and len(closed) == len(spans):
            assert sum(s["duration"] for s in closed) == pytest.approx(
                observed_run.flow_paused_seconds
            )

    def test_spans_parent_into_control_rounds(self, observed_run):
        max_round = max(r["round"] for r in observed_run.obs.audit)
        for span in observed_run.obs.spans:
            assert -1 <= span["parent_round"] <= max_round + 1


class TestExportAcceptance:
    def test_jsonl_stream_validates(self, observed_run):
        assert validate_events_jsonl(observed_run.obs.events_jsonl()) == []

    def test_prometheus_snapshot_validates(self, observed_run):
        assert validate_prometheus(observed_run.obs.prometheus) == []

    def test_metrics_agree_with_result_scalars(self, observed_run):
        metrics = observed_run.obs.metrics
        assert metrics["merger_tuples_emitted_total"] == observed_run.emitted
        assert (
            metrics["splitter_block_events_total"]
            == observed_run.block_events
        )
        assert metrics["overload_trips_total"] == observed_run.overload_trips
        assert metrics["overload_seconds_total"] == pytest.approx(
            observed_run.overload_seconds
        )
        assert (
            metrics["admission_tuples_shed_total"] == observed_run.tuples_shed
        )
        assert metrics["recovery_quarantines_total"] == observed_run.quarantines
        assert metrics["sim_events_processed"] == observed_run.events_processed

    def test_fault_events_recorded(self, observed_run):
        faults = [
            e for e in observed_run.obs.events if e["type"] == "fault"
        ]
        kinds = [e["kind"] for e in faults]
        assert "crash" in kinds
        assert "restart" in kinds
        crash = next(e for e in faults if e["kind"] == "crash")
        assert crash["channel"] == 1
        assert crash["time"] == pytest.approx(15.0)

    def test_report_survives_pickle_and_json(self, observed_run):
        clone = pickle.loads(pickle.dumps(observed_run.obs))
        assert clone == observed_run.obs
        json.dumps(dataclasses.asdict(observed_run.obs))


class TestConsoleReporter:
    def test_console_lines_on_sim_clock(self, capsys):
        config = fault_recovery_scenario(duration=20.0).with_observability(
            ObservabilityConfig(console_interval=5.0)
        )
        run_experiment(config, "lb-adaptive")
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("[obs t=")
        ]
        assert len(lines) == 4  # t=5, 10, 15, 20
        assert lines[0].startswith("[obs t=5.0s]")
