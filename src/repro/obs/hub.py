"""The observability hub: one object per observed run.

The hub owns the four recorders — metrics registry, decision audit
log, span tracer, and the raw event stream — and stamps everything
with the simulation clock it was constructed with. Components never
see the hub unless the run opted in (``RegionParams(observability=
True)``); their instrumentation attributes stay ``None`` and the hot
path pays only dead ``is not None`` checks on episodic branches.

``report()`` freezes the whole hub into an :class:`ObsReport` of plain
lists/dicts/strings, which is what lands on ``RunResult.obs``: it
pickles across the fork-based sweep pool and serializes to JSON
without knowing anything about the live simulator it came from.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import itemgetter

from .audit import DecisionAuditLog
from .registry import MetricsRegistry
from .spans import SpanTracer


@dataclass(frozen=True, slots=True)
class ObservabilityConfig:
    """How an observed run records and exports.

    The paths only shape *exporting*; recording itself is switched by
    ``RegionParams.observability``.  ``console_interval``
    > 0 schedules a periodic reporter on the sim clock — the one obs
    feature that adds simulator events, so it defaults off to keep
    obs-on event traces identical to obs-off.
    """

    #: Seconds between console report lines; 0 disables the reporter.
    console_interval: float = 0.0
    #: Write the JSONL event stream here after the run (None = don't).
    jsonl_path: str | None = None
    #: Write a Prometheus text snapshot here after the run.
    prometheus_path: str | None = None

    def __post_init__(self) -> None:
        if self.console_interval < 0:
            raise ValueError(
                f"console_interval must be >= 0: {self.console_interval}"
            )


@dataclass(slots=True)
class ObsReport:
    """Frozen, picklable export of one run's observability data."""

    #: Raw event stream: audit rounds, spans, faults, custom events.
    events: list[dict] = field(default_factory=list)
    #: Flat ``name{labels}`` -> value snapshot of every instrument.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Full Prometheus text-format rendering of the registry.
    prometheus: str = ""
    #: Audit records alone, in round order (subset of ``events``).
    audit: list[dict] = field(default_factory=list)
    #: Spans alone, in creation order (subset of ``events``).
    spans: list[dict] = field(default_factory=list)

    def events_jsonl(self) -> str:
        """The event stream as one JSON object per line."""
        return "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in self.events
        )

    def spans_of_kind(self, kind: str) -> list[dict]:
        return [s for s in self.spans if s["kind"] == kind]


class ObservabilityHub:
    """Live recording surface handed to instrumented components."""

    def __init__(
        self,
        clock: Callable[[], float],
        config: ObservabilityConfig | None = None,
    ) -> None:
        self.clock = clock
        self.config = config or ObservabilityConfig()
        self.registry = MetricsRegistry()
        self.audit = DecisionAuditLog()
        self.tracer = SpanTracer()
        self.events: list[dict] = []
        #: Audit records and spans as plain dicts, rendered once by
        #: :meth:`finalize` for both the event stream and the report.
        self._audit_dicts: list[dict] | None = None
        self._span_dicts: list[dict] | None = None

    @property
    def now(self) -> float:
        return self.clock()

    def event(self, type: str, **fields) -> None:
        """Append one raw event, stamped with the sim clock."""
        record = {"type": type, "time": self.now}
        record.update(fields)
        self.events.append(record)

    # ----------------------------------------------------------- round links

    def link_round_source(self, fn: Callable[[], int]) -> None:
        """Install the audit-round linker used to parent new spans."""
        self.tracer.current_round = fn

    # -------------------------------------------------------------- freezing

    def finalize(self, end_time: float) -> None:
        """Close open spans and flush audit/span mirrors at run end.

        This is the *only* place audit records and spans enter the
        event stream, so components can't double-report them. Each
        record and span is rendered to a dict once; its event is that
        dict with ``type`` (and, for a span, ``time``) in front.
        """
        self.tracer.close(end_time)
        audit = self._audit_dicts = self.audit.as_dicts()
        spans = self._span_dicts = self.tracer.as_dicts()
        events = self.events
        events.extend([{"type": "audit", **record} for record in audit])
        events.extend(
            [{"type": "span", "time": span["start"], **span} for span in spans]
        )
        # A stable sort by time alone: the spans were appended after
        # every other event, so at equal times they still come last.
        events.sort(key=itemgetter("time"))

    def report(self) -> ObsReport:
        """Freeze into plain data (call after :meth:`finalize`)."""
        audit = self._audit_dicts
        spans = self._span_dicts
        return ObsReport(
            events=list(self.events),
            metrics=self.registry.snapshot(),
            prometheus=self.registry.to_prometheus(),
            audit=self.audit.as_dicts() if audit is None else audit,
            spans=self.tracer.as_dicts() if spans is None else spans,
        )
