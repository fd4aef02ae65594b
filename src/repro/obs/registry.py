"""The metrics registry: labeled callback gauges and histograms.

One registry per observed run. *Callback gauges* cost nothing until the
registry is collected: they read a live attribute
(``sim.events_processed``, ``merger.pending_count``) only at snapshot
time, which is how the hot path stays untouched when a run is observed;
a histogram observation is one bucket increment.

Identity is ``(name, labels)``: registering the same instrument twice
returns the existing object, so independent components can share a
family (e.g. one ``splitter_tuples_sent_total`` per connection) without
coordinating. Names follow the Prometheus convention
(``snake_case``, ``_total`` suffix for cumulative counts), and
:meth:`MetricsRegistry.to_prometheus` renders the whole registry in the
Prometheus text exposition format.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bucket upper bounds (seconds-scale latencies).
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name: {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in labels
    )
    return "{" + body + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


class Gauge:
    """A value read from its source through a callback at collect time."""

    __slots__ = ("name", "labels", "_fn")

    kind = "gauge"

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        fn: Callable[[], float],
    ) -> None:
        self.name = name
        self.labels = labels
        self._fn = fn

    @property
    def value(self) -> float:
        """Current value, read live from the source."""
        return float(self._fn())

    def samples(self) -> list[tuple[str, tuple, float]]:
        return [(self.name, self.labels, self.value)]


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are upper bounds in increasing order; an implicit
    ``+Inf`` bucket catches everything above the last bound. A value
    lands in the first bucket whose bound it does not exceed
    (``value <= bound``), found by ``bisect_left`` over the bounds —
    bucket counts are *non-cumulative* internally and summed at render
    time, so observation stays one increment. NaN has no bucket and is
    rejected. The bulk entry points (a repeated value, a column) take
    the same bucket steps and add to ``sum`` value by value in order, so
    they read back bit for bit as the single observations would.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        buckets: Sequence[float],
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must increase: {bounds}")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        #: Per-bucket (non-cumulative) counts; the last slot is +Inf.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times: one bucket step of ``count``."""
        value = float(value)
        if value != value:
            raise ValueError(f"histogram {self.name!r} cannot observe NaN")
        total = self.sum
        for _ in range(count):
            total += value
        self.sum = total
        self.count += count
        self.counts[bisect_left(self.bounds, value)] += count

    def observe_many(self, values: Iterable[float]) -> None:
        """Record each of ``values`` in one pass, in order.

        A NaN raises as :meth:`observe` would, after the values before it
        are recorded.
        """
        bounds = self.bounds
        counts = self.counts
        total = self.sum
        n = 0
        try:
            for value in values:
                if value != value:
                    raise ValueError(
                        f"histogram {self.name!r} cannot observe NaN"
                    )
                total += value
                counts[bisect_left(bounds, value)] += 1
                n += 1
        finally:
            self.sum = total
            self.count += n

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts, ending with the total count."""
        out: list[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def samples(self) -> list[tuple[str, tuple, float]]:
        out: list[tuple[str, tuple, float]] = []
        cumulative = self.cumulative()
        for bound, c in zip(self.bounds, cumulative):
            le = _format_value(bound)
            out.append(
                (self.name + "_bucket", self.labels + (("le", le),), c)
            )
        out.append(
            (self.name + "_bucket", self.labels + (("le", "+Inf"),),
             cumulative[-1])
        )
        out.append((self.name + "_sum", self.labels, self.sum))
        out.append((self.name + "_count", self.labels, self.count))
        return out


Instrument = Gauge | Histogram


class MetricsRegistry:
    """Holds every instrument of one observed run."""

    def __init__(self) -> None:
        #: (name, label_key) -> instrument.
        self._instruments: dict[tuple, Instrument] = {}
        #: name -> (kind, help) for the family metadata.
        self._families: dict[str, tuple[str, str]] = {}

    # ---------------------------------------------------------- registration

    def _register(
        self,
        cls: type,
        name: str,
        labels: dict[str, str],
        help: str,
        factory: Callable[[tuple], Instrument],
    ) -> Instrument:
        _check_name(name)
        key = (name, _label_key(labels))
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        family = self._families.get(name)
        if family is not None and family[0] != cls.kind:
            raise ValueError(
                f"metric family {name!r} is a {family[0]}, not {cls.kind}"
            )
        instrument = factory(key[1])
        self._instruments[key] = instrument
        if family is None:
            self._families[name] = (cls.kind, help)
        return instrument

    def gauge_fn(
        self,
        name: str,
        fn: Callable[[], float],
        help: str = "",
        **labels: str,
    ) -> Gauge:
        """Register a callback gauge: ``fn`` is read at collect time only."""
        return self._register(
            Gauge, name, labels, help, lambda lk: Gauge(name, lk, fn)
        )

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
        **labels: str,
    ) -> Histogram:
        """Register (or fetch) a fixed-bucket histogram."""
        return self._register(
            Histogram, name, labels, help,
            lambda lk: Histogram(name, lk, buckets),
        )

    # ------------------------------------------------------------ collection

    def get(self, name: str, **labels: str) -> Instrument | None:
        """Fetch an existing instrument, or ``None``."""
        return self._instruments.get((name, _label_key(labels)))

    def read(self, name: str, **labels: str) -> float:
        """Value of a gauge (0.0 when unregistered)."""
        instrument = self.get(name, **labels)
        if instrument is None:
            return 0.0
        if isinstance(instrument, Histogram):
            raise TypeError(f"{name!r} is a histogram; read its fields")
        return instrument.value

    def instruments(self) -> list[Instrument]:
        """Every registered instrument, in registration order."""
        return list(self._instruments.values())

    def snapshot(self) -> dict[str, float]:
        """Flat ``name{labels}`` -> value map of every sample.

        Histograms contribute their ``_bucket``/``_sum``/``_count``
        expansion, exactly as the Prometheus rendering would.
        """
        out: dict[str, float] = {}
        for instrument in self._instruments.values():
            for name, labels, value in instrument.samples():
                out[name + _format_labels(labels)] = value
        return out

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        by_family: dict[str, list[Instrument]] = {}
        for (name, _), instrument in self._instruments.items():
            by_family.setdefault(name, []).append(instrument)
        lines: list[str] = []
        for name, instruments in by_family.items():
            kind, help = self._families[name]
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {kind}")
            for instrument in instruments:
                for sample_name, labels, value in instrument.samples():
                    lines.append(
                        f"{sample_name}{_format_labels(labels)} "
                        f"{_format_value(value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""
