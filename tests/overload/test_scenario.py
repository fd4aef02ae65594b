"""Integration: the overload scenario's acceptance criteria.

A region offered 2x its capacity must, with protection on, keep the
input queue and the merger's reordering buffer bounded near their
watermarks, report the shed ratio, and keep admitted-tuple latency
bounded — while the unprotected twin's input queue (and with it the
latency of everything in it) grows without bound for the whole run.
"""

import dataclasses

import pytest

from repro.experiments.config import overload_scenario
from repro.experiments.runner import run_experiment
from repro.faults.schedule import FaultSchedule
from repro.obs.hub import ObservabilityConfig
from repro.overload.admission import QUEUE_LIMIT
from repro.overload.detector import PENDING_HIGH, QUEUE_HIGH


@pytest.fixture(scope="module")
def protected():
    return run_experiment(
        overload_scenario(duration=60.0), "lb-adaptive"
    )


@pytest.fixture(scope="module")
def unprotected():
    return run_experiment(
        overload_scenario(duration=60.0, protection=False), "lb-adaptive"
    )


class TestProtectedRun:
    def test_sheds_about_the_excess(self, protected):
        # 2x overload: roughly half the offered load must go.
        assert 0.3 < protected.shed_ratio() < 0.7
        assert protected.tuples_shed > 0
        assert protected.tuples_offered > 0

    def test_input_queue_bounded_near_watermark(self, protected):
        assert protected.max_input_queue < 2 * QUEUE_HIGH

    def test_merger_pending_bounded_by_flow_control(self, protected):
        # The gate pauses at PENDING_HIGH; in-flight tuples already past
        # the splitter can still land, hence the slack.
        assert protected.max_merger_pending <= PENDING_HIGH + 64

    def test_detector_tripped_and_stayed_tripped(self, protected):
        assert protected.overload_trips >= 1
        assert protected.overload_seconds > 30.0

    def test_p99_latency_bounded(self, protected):
        values = [v for _, v in protected.p99_latency_series]
        assert values, "expected p99 samples under overload protection"
        assert max(values) < 15.0

    def test_flow_control_engaged(self, protected):
        assert protected.flow_pauses >= 1
        assert protected.flow_paused_seconds > 0.0


class TestUnprotectedRun:
    def test_nothing_shed(self, unprotected):
        assert unprotected.tuples_shed == 0
        assert unprotected.shed_ratio() == 0.0

    def test_input_queue_grows_without_bound(self, unprotected):
        assert unprotected.max_input_queue > 4 * QUEUE_HIGH
        tail = [v for _, v in unprotected.queue_series][-10:]
        assert tail == sorted(tail), "backlog should grow monotonically"

    def test_protection_wins_on_memory(self, protected, unprotected):
        assert protected.max_input_queue < unprotected.max_input_queue / 4


class TestDeterminism:
    def test_same_config_same_shed_count(self):
        a = run_experiment(overload_scenario(duration=20.0), "lb-adaptive")
        b = run_experiment(overload_scenario(duration=20.0), "lb-adaptive")
        assert a.tuples_shed == b.tuples_shed
        assert a.tuples_offered == b.tuples_offered
        assert a.emitted == b.emitted


class TestSheddingVariants:
    @pytest.mark.parametrize("shedding", ["drop-tail", "priority"])
    def test_other_policies_also_bound_the_queue(self, shedding):
        cfg = overload_scenario(duration=40.0, shedding=shedding)
        result = run_experiment(cfg, "lb-adaptive")
        assert result.tuples_shed > 0
        limit = max(2 * QUEUE_HIGH, QUEUE_LIMIT + 8)
        assert result.max_input_queue <= limit


class TestOverloadBurst:
    def test_burst_scales_offered_rate_then_restores(self):
        cfg = dataclasses.replace(
            overload_scenario(duration=60.0),
            arrival_rate=40.0,  # half the 80 tuples/s capacity at baseline
            # 2x capacity for the middle third.
            fault_schedule=FaultSchedule.overload_burst(
                20.0, 4.0, duration=20.0
            ),
        )
        result = run_experiment(cfg, "lb-adaptive")
        # Shedding happens only during the burst window.
        assert result.tuples_shed > 0
        assert result.overload_trips >= 1
        values = dict(result.queue_series)
        calm = [v for t, v in values.items() if t < 15.0]
        assert max(calm, default=0.0) < QUEUE_HIGH


class TestCrashUnderFlowControl:
    """A crash while the merger's flow gate is paused must not wedge the run.

    At the failover the merger holds tuples behind the dead channel's
    sequence numbers, so its pending count keeps the gate paused; only
    the replayed tuples can drain it. The splitter therefore has to send
    its replay queue while the gate is paused, and the failover has to
    wake a splitter parked on the gate.
    """

    @pytest.mark.parametrize(
        "worker,at,restart_after",
        [(1, 15.0, 20.0), (0, 5.0, 10.0)],
        ids=["obs-validate", "worker0-at5"],
    )
    def test_throughput_recovers_after_failover(
        self, worker, at, restart_after
    ):
        cfg = dataclasses.replace(
            overload_scenario(duration=60.0),
            fault_schedule=FaultSchedule.crash(
                worker, at=at, restart_after=restart_after
            ),
        ).with_observability(ObservabilityConfig())
        result = run_experiment(cfg, "lb-adaptive")
        assert result.quarantines >= 1
        last = result.throughput_series.window(50.0, 60.0)
        assert last.mean() > 0.0, (result.emitted, list(last))
        # Waking the splitter mid-pause does not split or drop a pause:
        # one closed span per gate pause, adding up to the paused time.
        spans = result.obs.spans_of_kind("flow_pause")
        assert len(spans) == result.flow_pauses
        assert all(s["end"] is not None for s in spans)
        assert sum(s["duration"] for s in spans) == pytest.approx(
            result.flow_paused_seconds
        )
