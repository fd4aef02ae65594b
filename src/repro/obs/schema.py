"""Schema validation for the exported observability artifacts.

The documented contract (EXPERIMENTS.md "Observability") is enforced
here in plain Python — no jsonschema dependency — so CI can run

    python -m repro.obs.schema obs.jsonl obs.prom

against a real run's exports and fail on any drift between the docs,
the producers, and the files. Each validator returns a list of
problem strings (empty = valid) so tests can assert on specifics.
"""

from __future__ import annotations

import json
import math
import re
import sys

from .audit import OUTCOMES, TRIGGERS

#: Required fields per event type; values are allowed Python types.
_NUMBER = (int, float)
_COMMON = {"type": str, "time": _NUMBER}
EVENT_SCHEMAS: dict[str, dict[str, type | tuple]] = {
    "audit": {
        **_COMMON,
        "round": int,
        "trigger": str,
        "outcome": str,
        "counters": list,
        "channel": int,
        "new_weights": list,
    },
    "span": {
        **_COMMON,
        "span_id": int,
        "kind": str,
        "start": _NUMBER,
        "end": _NUMBER,
        "duration": _NUMBER,
        "parent_round": int,
        "attrs": dict,
    },
    "fault": {
        **_COMMON,
        "kind": str,
        "channel": int,
    },
}

#: Span kinds the subsystem emits (attrs vary by kind).
SPAN_KINDS = (
    "blocking",        # splitter blocked on one connection's send queue
    "batch_dispatch",  # one batched dispatch cycle
    "detection",       # fault occurrence -> quarantine (duration == ttq)
    "quarantine",      # quarantine -> reintegration
    "reconvergence",   # quarantine -> weights re-settled (duration == ttr)
    "overload",        # overload detector trip -> clear
    "flow_pause",      # merger backpressure pause -> resume
    "restart",         # supervised respawn -> serving (process backend)
)

_PROM_COMMENT = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")
_PROM_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" (NaN|[+-]Inf|[+-]?[0-9.eE+-]+)$"
)
_PROM_LABEL = re.compile(r"([a-zA-Z_][a-zA-Z0-9_]*)=\"((?:[^\"\\]|\\.)*)\"")
_PROM_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def validate_event(event: dict) -> list[str]:
    """Check one decoded event against the documented schema."""
    problems: list[str] = []
    etype = event.get("type")
    if not isinstance(etype, str):
        return [f"event missing string 'type': {event!r}"]
    schema = EVENT_SCHEMAS.get(etype)
    if schema is None:
        # Custom events only need the common envelope.
        schema = _COMMON
    for field, expected in schema.items():
        if field not in event:
            # Open spans are truncated-closed before export, but a
            # span's 'end'/'duration' may be None mid-run.
            problems.append(f"{etype} event missing field {field!r}")
            continue
        value = event[field]
        if expected is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif expected == _NUMBER:
            ok = (
                isinstance(value, _NUMBER) and not isinstance(value, bool)
            )
        else:
            ok = isinstance(value, expected)
        if not ok:
            problems.append(
                f"{etype} event field {field!r} has wrong type: {value!r}"
            )
    if etype == "audit":
        if event.get("trigger") not in TRIGGERS:
            problems.append(f"unknown audit trigger: {event.get('trigger')!r}")
        if event.get("outcome") not in OUTCOMES:
            problems.append(f"unknown audit outcome: {event.get('outcome')!r}")
    if etype == "span":
        if event.get("kind") not in SPAN_KINDS:
            problems.append(f"unknown span kind: {event.get('kind')!r}")
        start, end = event.get("start"), event.get("end")
        if (
            isinstance(start, _NUMBER)
            and isinstance(end, _NUMBER)
            and end < start
        ):
            problems.append(f"span ends before it starts: {event!r}")
    return problems


def validate_events_jsonl(text: str) -> list[str]:
    """Check a whole JSONL event stream; returns all problems found."""
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            problems.append(f"line {lineno}: blank line in JSONL stream")
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: invalid JSON: {exc}")
            continue
        if not isinstance(event, dict):
            problems.append(f"line {lineno}: event is not an object")
            continue
        problems.extend(
            f"line {lineno}: {p}" for p in validate_event(event)
        )
    return problems


def validate_prometheus(text: str) -> list[str]:
    """Check a Prometheus text exposition snapshot.

    Every line must be well formed, and every histogram series
    consistent: its cumulative ``_bucket`` counts never decrease as
    ``le`` grows, and its ``le="+Inf"`` bucket equals its ``_count``.
    """
    problems: list[str] = []
    typed: set[str] = set()
    histograms: set[str] = set()
    #: (histogram, labels without le) -> [(le, cumulative count)].
    buckets: dict[tuple, list[tuple[float, float]]] = {}
    counts: dict[tuple, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            if not _PROM_COMMENT.match(line):
                problems.append(f"line {lineno}: malformed comment: {line!r}")
                continue
            parts = line.split(None, 3)
            if parts[1] == "TYPE":
                name = parts[2]
                if name in typed:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for {name!r}"
                    )
                typed.add(name)
                if len(parts) < 4 or parts[3] not in _PROM_TYPES:
                    problems.append(
                        f"line {lineno}: bad metric type in {line!r}"
                    )
                elif parts[3] == "histogram":
                    histograms.add(name)
            continue
        match = _PROM_SAMPLE.match(line)
        if not match:
            problems.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name, label_text, value = match.groups()
        family, _, suffix = name.rpartition("_")
        if family not in histograms or suffix not in ("bucket", "count"):
            continue
        labels = dict(_PROM_LABEL.findall(label_text or ""))
        le = labels.pop("le", None)
        key = (family, tuple(sorted(labels.items())))
        try:
            number = float(value)
            bound = None if le is None else float(le)
        except ValueError:
            problems.append(f"line {lineno}: bad number in {line!r}")
            continue
        if suffix == "count":
            counts[key] = number
        elif bound is None:
            problems.append(f"line {lineno}: histogram bucket without le")
        else:
            buckets.setdefault(key, []).append((bound, number))
    for key, series in buckets.items():
        where = f"histogram {key[0]}{dict(key[1]) or ''}"
        series.sort()
        previous = 0.0
        for le, cumulative in series:
            if not cumulative >= previous:
                problems.append(
                    f"{where}: bucket le={le} count {cumulative} is below "
                    f"the previous bucket's {previous}"
                )
            previous = cumulative
        if series[-1][0] != math.inf:
            problems.append(f'{where}: no le="+Inf" bucket')
        elif series[-1][1] != counts.get(key):
            problems.append(
                f'{where}: le="+Inf" bucket {series[-1][1]} != _count '
                f"{counts.get(key)}"
            )
    return problems


def main(argv: list[str]) -> int:
    """CLI: validate exported files by extension (.jsonl / anything else
    is treated as a Prometheus snapshot)."""
    if not argv:
        print(
            "usage: python -m repro.obs.schema FILE [FILE ...]",
            file=sys.stderr,
        )
        return 2
    failed = False
    for path in argv:
        with open(path) as fh:
            text = fh.read()
        if path.endswith((".jsonl", ".ndjson")):
            problems = validate_events_jsonl(text)
            kind = "JSONL event stream"
        else:
            problems = validate_prometheus(text)
            kind = "Prometheus snapshot"
        if problems:
            failed = True
            print(f"{path}: INVALID {kind}:")
            for problem in problems[:50]:
                print(f"  {problem}")
            if len(problems) > 50:
                print(f"  ... and {len(problems) - 50} more")
        else:
            lines = len([ln for ln in text.splitlines() if ln.strip()])
            print(f"{path}: valid {kind} ({lines} lines)")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI job
    raise SystemExit(main(sys.argv[1:]))
