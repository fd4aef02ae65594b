"""Monotone (isotonic) regression by pool-adjacent-violators.

Step two of the paper's function construction (Section 5.1): "the raw data
points are forced into non-decreasing order by a process known as monotone
regression". Physically a connection's blocking rate cannot decrease as its
allocation weight grows, so monotonicity "should be a logical tautology" —
but noisy, sparse samples occasionally violate it, and the Fox greedy
optimizer *requires* monotone columns for exactness.

The pool-adjacent-violators algorithm (PAVA) computes the weighted
least-squares non-decreasing fit in O(n).

:func:`pava` is the one merge loop. It scans for the first violation —
an already-monotone column is returned as a copy, and the prefix before
the first violation stays singleton blocks — then keeps the blocks as
three parallel columns (mean, total weight, first index) with the top
block in locals, and writes each pooled span into the output once, at
the end. The rate function calls it directly on data it has already
checked; :func:`monotone_regression` is the validating wrapper.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


def pava(values: list[float], weights: Sequence[float]) -> list[float]:
    """The PAVA fit of ``values`` (a non-empty list of finite floats).

    ``weights`` must be finite and positive, one per value; nothing is
    checked. Returns a new list.
    """
    n = len(values)
    prev = values[0]
    for k in range(1, n):
        value = values[k]
        if value < prev:
            break
        prev = value
    else:
        return values[:]

    # The prefix before the first violation is non-decreasing, so its
    # blocks are singletons. The top block lives in locals and the ones
    # below it in the columns: a point below the top block's mean joins
    # it, and the grown block then absorbs every block below whose mean
    # exceeds its own.
    means = values[:k - 1]
    totals = list(weights[:k - 1])
    starts = list(range(k - 1))
    mean, total, start = prev, weights[k - 1], k - 1
    for i in range(k, n):
        value = values[i]
        if value < mean:
            weight = weights[i]
            merged = total + weight
            mean = (mean * total + value * weight) / merged
            total = merged
            while means and means[-1] > mean:
                prior = totals.pop()
                merged = prior + total
                mean = (means.pop() * prior + mean * total) / merged
                total = merged
                start = starts.pop()
        else:
            means.append(mean)
            totals.append(total)
            starts.append(start)
            mean, total, start = value, weights[i], i
    means.append(mean)
    starts.append(start)
    starts.append(n)
    # A singleton's fit is its own value; only pooled spans are written.
    fitted = values[:]
    for mean, start, end in zip(means, starts, starts[1:]):
        if end - start > 1:
            fitted[start:end] = [mean] * (end - start)
    return fitted


def monotone_regression(
    values: Sequence[float],
    weights: Sequence[float] | None = None,
) -> list[float]:
    """Non-decreasing weighted least-squares fit of ``values``.

    ``weights`` are per-point confidence weights (e.g. observation counts);
    ``None`` means all ones. Values must be finite and weights finite and
    positive: a NaN compares false both ways and would pass the monotone
    scan unfitted, and a NaN or infinite weight pools to NaN. Returns a
    new list of floats; inputs are not modified.
    """
    n = len(values)
    if n == 0:
        return []
    values = list(map(float, values))
    if not all(map(math.isfinite, values)):
        raise ValueError("all values must be finite")
    if weights is None:
        weights = [1.0] * n
    else:
        if len(weights) != n:
            raise ValueError(
                f"weights length {len(weights)} != values length {n}"
            )
        weights = list(map(float, weights))
        if not all(0.0 < weight < math.inf for weight in weights):
            raise ValueError("all weights must be finite and positive")
    return pava(values, weights)


def is_non_decreasing(values: Sequence[float], tol: float = 0.0) -> bool:
    """Whether ``values`` is non-decreasing (allowing ``tol`` slack)."""
    return all(b >= a - tol for a, b in zip(values, values[1:]))
