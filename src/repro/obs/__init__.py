"""Observability subsystem: metrics, decision audit, spans, exporters.

Everything here is driven by the *simulation* clock and gated behind
``RegionParams(observability=True)`` — a run that doesn't opt in pays
nothing and produces byte-identical golden traces. See EXPERIMENTS.md
"Observability" for the instrument catalog and export schemas.
"""

from .audit import OUTCOMES, TRIGGERS, ControlRoundRecord, DecisionAuditLog
from .console import ConsoleReporter
from .export import events_to_jsonl, prometheus_snapshot, write_exports
from .hub import ObservabilityConfig, ObservabilityHub, ObsReport
from .registry import DEFAULT_BUCKETS, Gauge, Histogram, MetricsRegistry
# NOTE: repro.obs.schema (validators + the ``python -m repro.obs.schema``
# CLI) is intentionally not imported here: importing it from the package
# __init__ would trip runpy's double-import warning when the module is
# executed with ``-m``. Import it directly: ``from repro.obs import schema``.
from .spans import Span, SpanTracer

__all__ = [
    "OUTCOMES",
    "TRIGGERS",
    "ControlRoundRecord",
    "DecisionAuditLog",
    "ConsoleReporter",
    "events_to_jsonl",
    "prometheus_snapshot",
    "write_exports",
    "ObservabilityConfig",
    "ObservabilityHub",
    "ObsReport",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
]
