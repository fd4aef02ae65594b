"""Tests for the in-tree schema validators (and their CLI)."""

import json

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.schema import (
    SPAN_KINDS,
    main,
    validate_event,
    validate_events_jsonl,
    validate_prometheus,
)

GOOD_AUDIT = {
    "type": "audit",
    "time": 1.0,
    "round": 0,
    "trigger": "periodic",
    "outcome": "adopted",
    "counters": [0.5],
    "channel": -1,
    "new_weights": [1000],
}

GOOD_SPAN = {
    "type": "span",
    "time": 1.0,
    "span_id": 0,
    "kind": "blocking",
    "start": 1.0,
    "end": 2.0,
    "duration": 1.0,
    "parent_round": -1,
    "attrs": {"connection": 0},
}

GOOD_FAULT = {"type": "fault", "time": 3.0, "kind": "crash", "channel": 1}


class TestValidateEvent:
    @pytest.mark.parametrize("event", [GOOD_AUDIT, GOOD_SPAN, GOOD_FAULT])
    def test_good_events_pass(self, event):
        assert validate_event(event) == []

    def test_unknown_type_needs_only_envelope(self):
        assert validate_event({"type": "custom", "time": 0.0}) == []
        assert validate_event({"type": "custom"}) != []

    def test_missing_type(self):
        assert validate_event({"time": 1.0}) != []

    def test_missing_field_flagged(self):
        event = dict(GOOD_AUDIT)
        del event["new_weights"]
        assert any("new_weights" in p for p in validate_event(event))

    def test_wrong_type_flagged(self):
        event = dict(GOOD_AUDIT, round="zero")
        assert any("round" in p for p in validate_event(event))

    def test_bool_is_not_int(self):
        event = dict(GOOD_FAULT, channel=True)
        assert any("channel" in p for p in validate_event(event))

    def test_unknown_outcome_and_trigger_flagged(self):
        assert validate_event(dict(GOOD_AUDIT, outcome="vibes"))
        assert validate_event(dict(GOOD_AUDIT, trigger="cron"))

    def test_unknown_span_kind_flagged(self):
        assert validate_event(dict(GOOD_SPAN, kind="siesta"))

    def test_span_end_before_start_flagged(self):
        assert validate_event(dict(GOOD_SPAN, start=5.0, end=2.0))

    def test_all_documented_span_kinds_pass(self):
        for kind in SPAN_KINDS:
            assert validate_event(dict(GOOD_SPAN, kind=kind)) == []


class TestValidateJsonl:
    def test_good_stream(self):
        text = "".join(
            json.dumps(e) + "\n" for e in (GOOD_FAULT, GOOD_AUDIT, GOOD_SPAN)
        )
        assert validate_events_jsonl(text) == []

    def test_blank_line_flagged(self):
        text = json.dumps(GOOD_FAULT) + "\n\n" + json.dumps(GOOD_FAULT) + "\n"
        assert any("blank" in p for p in validate_events_jsonl(text))

    def test_invalid_json_flagged_with_line_number(self):
        problems = validate_events_jsonl("not json\n")
        assert problems and problems[0].startswith("line 1:")

    def test_non_object_flagged(self):
        assert any(
            "not an object" in p for p in validate_events_jsonl("[1, 2]\n")
        )


class TestValidatePrometheus:
    GOOD = (
        "# HELP a_total things\n"
        "# TYPE a_total counter\n"
        "a_total 1.0\n"
        "# TYPE lat histogram\n"
        'lat_bucket{le="0.1"} 1\n'
        'lat_bucket{le="+Inf"} 1\n'
        "lat_sum 0.05\n"
        "lat_count 1\n"
        "nanny NaN\n"
        "infy +Inf\n"
    )

    def test_good_snapshot(self):
        assert validate_prometheus(self.GOOD) == []

    def test_malformed_sample_flagged(self):
        assert validate_prometheus("not a metric line at all!\n")

    def test_malformed_comment_flagged(self):
        assert validate_prometheus("# WAT a_total counter\n")

    def test_duplicate_type_flagged(self):
        text = "# TYPE a counter\n# TYPE a counter\na 1\n"
        assert any("duplicate" in p for p in validate_prometheus(text))

    def test_bad_metric_type_flagged(self):
        assert validate_prometheus("# TYPE a sparkline\na 1\n")

    TYPE = "# TYPE lat histogram\n"

    @staticmethod
    def histogram(buckets, count, labels=""):
        """One ``lat`` series: ``(le, cumulative)`` buckets and a count."""
        prefix = labels + "," if labels else ""
        braces = "{" + labels + "}" if labels else ""
        lines = [f'lat_bucket{{{prefix}le="{le}"}} {n}' for le, n in buckets]
        lines.append(f"lat_count{braces} {count}")
        return "\n".join(lines) + "\n"

    def test_registry_histogram_export_passes(self):
        registry = MetricsRegistry()
        for worker in ("0", "1"):
            h = registry.histogram("lat", buckets=(0.1, 1.0), worker=worker)
            h.observe(0.5, 3)
            h.observe_many([0.05, 7.0])
        assert validate_prometheus(registry.to_prometheus()) == []

    def test_decreasing_cumulative_bucket_flagged(self):
        text = self.TYPE + self.histogram(
            [("0.1", 3), ("1.0", 2), ("+Inf", 3)], 3
        )
        assert any("below" in p for p in validate_prometheus(text))

    def test_inf_bucket_must_equal_count(self):
        text = self.TYPE + self.histogram([("0.1", 1), ("+Inf", 2)], 3)
        assert any("_count" in p for p in validate_prometheus(text))

    def test_missing_inf_bucket_flagged(self):
        text = self.TYPE + self.histogram([("0.1", 1), ("1.0", 2)], 2)
        assert any("+Inf" in p for p in validate_prometheus(text))

    def test_label_sets_are_separate_series(self):
        text = (
            self.TYPE
            + self.histogram([("0.1", 1), ("+Inf", 1)], 1, 'worker="0"')
            + self.histogram([("0.1", 5), ("+Inf", 9)], 9, 'worker="1"')
        )
        assert validate_prometheus(text) == []
        broken = text.replace('{worker="1"} 9\n', '{worker="1"} 1\n')
        assert any("'worker': '1'" in p for p in validate_prometheus(broken))


class TestCli:
    def test_valid_files_exit_zero(self, tmp_path, capsys):
        jsonl = tmp_path / "e.jsonl"
        jsonl.write_text(json.dumps(GOOD_FAULT) + "\n")
        prom = tmp_path / "m.prom"
        prom.write_text("# TYPE a counter\na 1\n")
        assert main([str(jsonl), str(prom)]) == 0
        out = capsys.readouterr().out
        assert "valid JSONL event stream" in out
        assert "valid Prometheus snapshot" in out

    def test_invalid_file_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "e.jsonl"
        bad.write_text("nope\n")
        assert main([str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_no_args_exit_two(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err
