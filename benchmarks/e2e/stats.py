"""Small statistics helpers shared by the harness and its noise modes.

Everything here is plain arithmetic on lists of floats; nothing imports
``repro``, so the unit tests under ``tests/`` run without the package.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence


def supported_percentile(
    n: int, ceiling: float = 99.0, beyond: int = 10
) -> float:
    """The highest percentile ``<= ceiling`` with ``beyond`` samples above it.

    A tail percentile read off fewer than ten samples is one scheduler
    hiccup, not a property of the system, so a timing is reported at the
    highest percentile the sample supports: ``100 * (1 - beyond / n)``,
    capped at ``ceiling`` and floored at the median (which needs no
    samples beyond it to mean something).
    """
    if n <= 0:
        raise ValueError("need at least one sample")
    return max(50.0, min(ceiling, 100.0 * (1.0 - beyond / n)))


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("need at least one sample")
    # The small slack keeps a product that is a whole number up to float
    # error (70 x 85.714...% = 60.00000000000001) from rounding up a rank.
    rank = math.ceil(pct / 100.0 * len(sorted_values) - 1e-9)
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


def tail_percentile(
    values: Sequence[float], ceiling: float = 99.0
) -> tuple[float, float]:
    """``(value, percentile used)`` by the ten-samples-beyond rule."""
    ordered = sorted(values)
    pct = supported_percentile(len(ordered), ceiling)
    return percentile(ordered, pct), pct


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(n=4)`` gives."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def relative_iqr(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (the driver's spread)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``.

    Negative when ``second`` is better. ``better`` is ``"higher"`` or
    ``"lower"``, as in ``BENCHMARK.json``.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower': {better!r}")
    delta = first - second if better == "higher" else second - first
    return delta / abs(first) if first else math.inf


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and relative range of one metric over repeats."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median, "q1": q1, "q3": q3, "rel_iqr": relative_iqr(values)
    }
