"""Unit tests for the hub, the exporters, and the console reporter."""

import dataclasses
import json

import pytest

from repro.obs.audit import ControlRoundRecord
from repro.obs.console import ConsoleReporter
from repro.obs.export import (
    events_to_jsonl,
    prometheus_snapshot,
    write_exports,
)
from repro.obs.hub import ObservabilityConfig, ObservabilityHub


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def hub(clock):
    return ObservabilityHub(clock)


def add_round(hub, round_no, new, outcome="adopted", time=1.0):
    hub.audit.append(ControlRoundRecord(
        round=round_no, time=time, trigger="periodic", outcome=outcome,
        counters=[0.0] * len(new), new_weights=new,
    ))


class TestObservabilityConfig:
    def test_defaults(self):
        config = ObservabilityConfig()
        assert config.console_interval == 0.0
        assert config.jsonl_path is None
        assert config.prometheus_path is None

    def test_negative_console_interval_rejected(self):
        with pytest.raises(ValueError):
            ObservabilityConfig(console_interval=-1.0)


class TestHub:
    def test_events_stamped_with_clock(self, hub, clock):
        clock.now = 2.5
        hub.event("fault", kind="crash", channel=1)
        assert hub.events == [
            {"type": "fault", "time": 2.5, "kind": "crash", "channel": 1}
        ]

    def test_finalize_is_sole_audit_and_span_mirror(self, hub):
        add_round(hub, 0, [400, 600])
        sid = hub.tracer.start("blocking", 0.5)
        hub.tracer.finish(sid, 0.9)
        assert hub.events == []  # nothing mirrored live
        hub.finalize(10.0)
        types = [e["type"] for e in hub.events]
        assert types.count("audit") == 1
        assert types.count("span") == 1

    def test_finalize_sorts_by_time_with_spans_last(self, hub, clock):
        clock.now = 1.0
        hub.event("fault", kind="crash", channel=0)
        hub.tracer.record("detection", 1.0, 2.0)
        add_round(hub, 0, [500], time=1.0)
        hub.finalize(5.0)
        assert [e["type"] for e in hub.events] == ["fault", "audit", "span"]

    def test_finalize_truncates_open_spans(self, hub):
        hub.tracer.start("overload", 3.0)
        hub.finalize(8.0)
        (event,) = [e for e in hub.events if e["type"] == "span"]
        assert event["end"] == 8.0
        assert event["attrs"]["truncated"] is True

    def test_link_round_source(self, hub):
        hub.link_round_source(lambda: 9)
        sid = hub.tracer.start("flow_pause", 0.0)
        assert hub.tracer.spans[sid].parent_round == 9

    def test_report_is_plain_data(self, hub, clock):
        hub.registry.gauge_fn("a_total", lambda: 3)
        add_round(hub, 0, [500])
        hub.tracer.record("blocking", 0.0, 1.0)
        hub.finalize(2.0)
        report = hub.report()
        assert report.metrics["a_total"] == 3.0
        assert report.audit[0]["round"] == 0
        assert report.spans[0]["kind"] == "blocking"
        # Plain data end to end (the sweep-pool contract).
        json.dumps(dataclasses.asdict(report))

    def test_events_jsonl_one_object_per_line(self, hub, clock):
        clock.now = 1.0
        hub.event("fault", kind="crash", channel=0)
        hub.event("fault", kind="restart", channel=0)
        lines = hub.report().events_jsonl().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["kind"] == "restart"


class TestExporters:
    def _report(self, hub, clock):
        hub.registry.gauge_fn("a_total", lambda: 1.0, help="things")
        add_round(hub, 0, [400, 600])
        hub.tracer.record("detection", 1.0, 2.0, channel=1)
        hub.finalize(5.0)
        return hub.report()

    def test_events_to_jsonl_writes_and_counts(self, hub, clock, tmp_path):
        report = self._report(hub, clock)
        path = tmp_path / "events.jsonl"
        assert events_to_jsonl(report, str(path)) == len(report.events)
        lines = path.read_text().splitlines()
        assert len(lines) == len(report.events)
        for line in lines:
            json.loads(line)

    def test_prometheus_snapshot_file(self, hub, clock, tmp_path):
        report = self._report(hub, clock)
        path = tmp_path / "metrics.prom"
        prometheus_snapshot(report, str(path))
        assert path.read_text() == report.prometheus
        assert "a_total 1.0" in report.prometheus

    def test_write_exports_honors_paths(self, hub, clock, tmp_path):
        report = self._report(hub, clock)
        jsonl = tmp_path / "e.jsonl"
        prom = tmp_path / "m.prom"
        write_exports(report, ObservabilityConfig(
            jsonl_path=str(jsonl), prometheus_path=str(prom)
        ))
        assert jsonl.exists() and prom.exists()

    def test_write_exports_noop_without_paths(self, hub, clock, tmp_path):
        write_exports(self._report(hub, clock), ObservabilityConfig())
        assert list(tmp_path.iterdir()) == []


class TestConsoleReporter:
    def test_priming_line(self, hub, clock):
        clock.now = 3.0
        reporter = ConsoleReporter(hub, out=lambda s: None)
        assert reporter.line() == "[obs t=3.0s] priming"

    def test_full_line(self, hub, clock):
        clock.now = 40.0
        add_round(hub, 79, [310, 690])
        hub.registry.gauge_fn("merger_tuples_emitted_total", lambda: 61440)
        hub.registry.gauge_fn("merger_pending_tuples", lambda: 12)
        hub.registry.gauge_fn("splitter_block_events_total", lambda: 3)
        hub.tracer.record("blocking", 0.0, 1.0)
        line = ConsoleReporter(hub, out=lambda s: None).line()
        assert line == (
            "[obs t=40.0s] round 79 adopted w=[310.00 690.00]"
            " | emitted=61440 pending=12 blocked=3 spans=1"
        )

    def test_tick_emits_and_counts(self, hub, clock):
        seen = []
        reporter = ConsoleReporter(hub, out=seen.append)
        reporter.tick()
        reporter.tick()
        assert len(seen) == 2
