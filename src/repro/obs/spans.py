"""Span tracing for long-lived episodes.

A span is a named interval on the *simulation* clock: a blocking
episode on one connection, a batch dispatch cycle, a recovery
detection/quarantine/reconvergence window, an overload shed interval.
Spans link to the owning control round (``parent_round``) so an
exported trace can be joined against the decision audit log.

Two recording styles, because the producers differ:

* live — ``start()`` returns an id, ``finish()`` closes it.  Used
  where the episode boundaries are discovered as they happen
  (splitter blocking, flow-control pauses, overload trips).
* retroactive — ``record()`` writes a finished span in one call.
  Used where the subsystem already tracks its own episode timestamps
  (recovery ttq/ttr), so the span is guaranteed to agree with the
  metric derived from the same timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    """One episode on the simulation clock."""

    span_id: int
    kind: str
    start: float
    end: float | None = None
    #: Control round in whose regime the episode ran (-1 = none).
    parent_round: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.span_id} ({self.kind}) still open")
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": None if self.end is None else self.duration,
            "parent_round": self.parent_round,
            "attrs": dict(self.attrs),
        }


class SpanTracer:
    """Collects spans; ids are assigned in creation order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: dict[int, Span] = {}
        self._next_id = 0
        #: Round linker, set by the hub once a balancer is attached.
        self.current_round = lambda: -1

    def start(self, kind: str, start: float, **attrs) -> int:
        """Open a live span; returns its id for :meth:`finish`."""
        span = Span(
            span_id=self._next_id,
            kind=kind,
            start=start,
            parent_round=self.current_round(),
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        self._open[span.span_id] = span
        return span.span_id

    def finish(self, span_id: int, end: float, **attrs) -> Span:
        """Close a live span, merging any final attributes."""
        span = self._open.pop(span_id)
        if end < span.start:
            raise ValueError(
                f"span {span_id} ends before it starts: {end} < {span.start}"
            )
        span.end = end
        if attrs:
            span.attrs.update(attrs)
        return span

    def record(
        self,
        kind: str,
        start: float,
        end: float,
        parent_round: int | None = None,
        **attrs,
    ) -> Span:
        """Write an already-finished span in one call."""
        if end < start:
            raise ValueError(f"span ends before it starts: {end} < {start}")
        span = Span(
            span_id=self._next_id,
            kind=kind,
            start=start,
            end=end,
            parent_round=(
                self.current_round() if parent_round is None else parent_round
            ),
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def close(self, end: float) -> int:
        """Close every still-open span (run teardown); returns how many."""
        open_spans = list(self._open.values())
        for span in open_spans:
            span.end = max(end, span.start)
            span.attrs["truncated"] = True
        self._open.clear()
        return len(open_spans)

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)

    def as_dicts(self) -> list[dict]:
        return [s.as_dict() for s in self.spans]
