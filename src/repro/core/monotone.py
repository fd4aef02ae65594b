"""Monotone (isotonic) regression by pool-adjacent-violators.

Step two of the paper's function construction (Section 5.1): "the raw data
points are forced into non-decreasing order by a process known as monotone
regression". Physically a connection's blocking rate cannot decrease as its
allocation weight grows, so monotonicity "should be a logical tautology" —
but noisy, sparse samples occasionally violate it, and the Fox greedy
optimizer *requires* monotone columns for exactness.

The pool-adjacent-violators algorithm (PAVA) computes the weighted
least-squares non-decreasing fit in O(n).

Because violations are the exception (they come from noise, not from the
physics), the hot path is the *already-monotone* check: one scan over the
column. An already-monotone input is returned as-is (as floats), and the
block-merging loop runs only on actual violations.
"""

from __future__ import annotations

from collections.abc import Sequence


def monotone_regression(
    values: Sequence[float],
    weights: Sequence[float] | None = None,
) -> list[float]:
    """Non-decreasing weighted least-squares fit of ``values``.

    ``weights`` are per-point confidence weights (e.g. observation counts);
    ``None`` means all ones. Returns a new list; inputs are not modified.
    """
    n = len(values)
    if n == 0:
        return []
    if weights is None:
        weights = [1.0] * n
    elif len(weights) != n:
        raise ValueError(
            f"weights length {len(weights)} != values length {n}"
        )
    elif any(w <= 0 for w in weights):
        raise ValueError("all weights must be positive")

    # Already-monotone fast path: the fit of a non-decreasing input is the
    # input itself (every PAVA block stays a singleton), so return it as
    # floats without running the merge loop.
    monotone = True
    prev = values[0]
    for value in values:
        if value < prev:
            monotone = False
            break
        prev = value
    if monotone:
        return [float(value) for value in values]

    # Each block is [mean, weight, count]; merge backwards while the
    # monotonicity constraint is violated.
    blocks: list[list[float]] = []
    for value, weight in zip(values, weights):
        blocks.append([float(value), float(weight), 1.0])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            mean2, w2, c2 = blocks.pop()
            mean1, w1, c1 = blocks.pop()
            total = w1 + w2
            blocks.append([(mean1 * w1 + mean2 * w2) / total, total, c1 + c2])

    fitted: list[float] = []
    for mean, _weight, count in blocks:
        fitted.extend([mean] * int(count))
    return fitted


def is_non_decreasing(values: Sequence[float], tol: float = 0.0) -> bool:
    """Whether ``values`` is non-decreasing (allowing ``tol`` slack)."""
    return all(b >= a - tol for a, b in zip(values, values[1:]))
