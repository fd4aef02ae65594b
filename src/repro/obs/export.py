"""File exporters for :class:`~repro.obs.hub.ObsReport`.

Two formats, both derivable from the frozen report (no live hub
needed, so they also work on reports that crossed the sweep pool):

* JSONL — the full event stream, one JSON object per line, suitable
  for ``jq``/pandas ingestion and validated by ``repro.obs.schema``.
* Prometheus — the registry snapshot in text exposition format.
"""

from __future__ import annotations

from .hub import ObsReport


def events_to_jsonl(report: ObsReport, path: str) -> int:
    """Write the event stream as JSONL; returns the line count."""
    text = report.events_jsonl()
    with open(path, "w") as fh:
        fh.write(text)
    return len(report.events)


def prometheus_snapshot(report: ObsReport, path: str) -> None:
    """Write the Prometheus text-format snapshot."""
    with open(path, "w") as fh:
        fh.write(report.prometheus)


def write_exports(report: ObsReport, config) -> None:
    """Honor an :class:`ObservabilityConfig`'s export paths."""
    if config.jsonl_path:
        events_to_jsonl(report, config.jsonl_path)
    if config.prometheus_path:
        prometheus_snapshot(report, config.prometheus_path)
