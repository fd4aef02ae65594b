"""Shape assertions for the bench harness.

The reproduction target is the *shape* of the paper's results — who wins,
by roughly what factor, where crossovers fall — not the absolute numbers
(our substrate is a simulator, not the authors' cluster). These helpers
make the benches' checks explicit and their failure messages readable.
"""

from __future__ import annotations

from collections.abc import Sequence


class ShapeError(AssertionError):
    """A result's shape does not match the paper's."""


def ratio(numerator: float, denominator: float) -> float:
    """Safe ratio for comparisons (infinite when the denominator is 0)."""
    if denominator == 0:
        return float("inf")
    return numerator / denominator


def assert_faster(
    fast_time: float,
    slow_time: float,
    *,
    at_least: float = 1.0,
    context: str = "",
) -> None:
    """Require ``slow_time >= at_least * fast_time``."""
    if slow_time < at_least * fast_time:
        raise ShapeError(
            f"{context}: expected at least {at_least:g}x speedup, got "
            f"{ratio(slow_time, fast_time):.2f}x "
            f"(fast={fast_time:g}, slow={slow_time:g})"
        )


def assert_between(
    value: float,
    low: float,
    high: float,
    *,
    context: str = "",
) -> None:
    """Require ``low <= value <= high``."""
    if not low <= value <= high:
        raise ShapeError(
            f"{context}: expected value in [{low:g}, {high:g}], got {value:g}"
        )


def assert_monotone(
    values: Sequence[float],
    *,
    increasing: bool = True,
    tolerance: float = 0.0,
    context: str = "",
) -> None:
    """Require ``values`` to be monotone within ``tolerance`` slack."""
    for i, (a, b) in enumerate(zip(values, values[1:])):
        ok = b >= a - tolerance if increasing else b <= a + tolerance
        if not ok:
            direction = "non-decreasing" if increasing else "non-increasing"
            raise ShapeError(
                f"{context}: expected {direction} values, but "
                f"values[{i}]={a:g} -> values[{i + 1}]={b:g} "
                f"(tolerance {tolerance:g}); full: {list(values)}"
            )
