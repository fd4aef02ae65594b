"""Unit tests for the decision audit log and the span tracer."""

import pytest

from repro.obs.audit import OUTCOMES, TRIGGERS, ControlRoundRecord, DecisionAuditLog
from repro.obs.spans import Span, SpanTracer


def record(round=0, outcome="adopted", trigger="periodic", **kw):
    return ControlRoundRecord(
        round=round, time=1.0, trigger=trigger, outcome=outcome, **kw
    )


class TestAuditLog:
    def test_append_and_query(self):
        log = DecisionAuditLog()
        log.append(record(0, "primed"))
        log.append(record(1, "adopted"))
        log.append(record(2, "rejected-hysteresis"))
        assert len(log) == 3
        assert log.last().round == 2
        assert [r.outcome for r in log] == [
            "primed", "adopted", "rejected-hysteresis",
        ]
        assert [r["round"] for r in log.as_dicts()] == [0, 1, 2]

    def test_empty_last_is_none(self):
        assert DecisionAuditLog().last() is None

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError):
            DecisionAuditLog().append(record(outcome="vibes"))

    def test_unknown_trigger_rejected(self):
        with pytest.raises(ValueError):
            DecisionAuditLog().append(record(trigger="cron"))

    def test_every_documented_value_accepted(self):
        log = DecisionAuditLog()
        for outcome in OUTCOMES:
            log.append(record(outcome=outcome))
        for trigger in TRIGGERS:
            log.append(record(trigger=trigger))
        assert len(log) == len(OUTCOMES) + len(TRIGGERS)

    def test_as_dict_is_json_plain(self):
        d = record(
            3,
            counters=[0.25, float("nan")],
            new_weights=[400, 600],
        ).as_dict()
        assert d["round"] == 3
        assert d["channel"] == -1
        assert d["counters"][0] == 0.25
        # Inputs are stored as given, a non-finite counter included.
        assert d["counters"][1] != d["counters"][1]
        # Mutating the dict must not touch the record.
        d["new_weights"].append(0)
        assert len(d["new_weights"]) == 3


class TestSpanTracer:
    def test_live_span_lifecycle(self):
        tracer = SpanTracer()
        sid = tracer.start("blocking", 1.0, connection=2)
        span = tracer.finish(sid, 3.5, resolved=True)
        assert span.duration == 2.5
        assert span.attrs == {"connection": 2, "resolved": True}
        assert not span.open

    def test_retroactive_record(self):
        tracer = SpanTracer()
        span = tracer.record("detection", 10.0, 12.0, parent_round=7, channel=1)
        assert span.duration == 2.0
        assert span.parent_round == 7

    def test_parent_round_from_linker(self):
        tracer = SpanTracer()
        tracer.current_round = lambda: 42
        sid = tracer.start("overload", 0.0)
        assert tracer.spans[sid].parent_round == 42
        assert tracer.record("detection", 0.0, 1.0).parent_round == 42

    def test_finish_before_start_rejected(self):
        tracer = SpanTracer()
        sid = tracer.start("blocking", 5.0)
        with pytest.raises(ValueError):
            tracer.finish(sid, 4.0)
        with pytest.raises(ValueError):
            tracer.record("blocking", 5.0, 4.0)

    def test_close_truncates_open_spans(self):
        tracer = SpanTracer()
        a = tracer.start("overload", 1.0)
        b = tracer.start("quarantine", 2.0)
        tracer.finish(a, 3.0)
        assert tracer.close(10.0) == 1
        span = tracer.spans[b]
        assert span.end == 10.0
        assert span.attrs["truncated"] is True
        # Idempotent: nothing left open.
        assert tracer.close(11.0) == 0

    def test_close_never_moves_end_before_start(self):
        tracer = SpanTracer()
        sid = tracer.start("overload", 5.0)
        tracer.close(3.0)
        assert tracer.spans[sid].end == 5.0

    def test_open_span_duration_raises(self):
        span = Span(span_id=0, kind="blocking", start=0.0)
        with pytest.raises(ValueError):
            _ = span.duration
        assert span.as_dict()["duration"] is None

    def test_by_kind_and_iteration(self):
        tracer = SpanTracer()
        tracer.record("blocking", 0.0, 1.0)
        tracer.record("overload", 0.0, 2.0)
        tracer.record("blocking", 1.0, 3.0)
        assert len(tracer) == 3
        assert [s.span_id for s in tracer] == [0, 1, 2]
        assert [d["kind"] for d in tracer.as_dicts()] == [
            "blocking", "overload", "blocking",
        ]
