"""Correctness oracles: every run checks its own output.

The ordered region's contract is ordered, gap-free, exactly-once output
with the payload intact. :class:`SinkChecker` verifies that in O(1) per
tuple at the region's ``sink`` callback, so it can sit on the hot path of
a throughput run without becoming the thing measured.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

#: Bodies cycle through a pool this large (a power of two: the index is a mask).
BODY_POOL = 1024


def make_bodies(seed: int, size: int = 64) -> list[bytes]:
    """``BODY_POOL`` distinct ``size``-byte bodies generated from ``seed``."""
    rng = random.Random(seed)
    return [rng.randbytes(size) for _ in range(BODY_POOL)]


class SinkChecker:
    """Counts every way a delivered stream can differ from ``0, 1, 2, ...``.

    A sequence number above the expected one is a gap (the skipped
    tuples are missing or will arrive out of order); one below it is a
    duplicate or a late arrival. Either way the contract is broken for
    each tuple involved, and each counts as one failed operation.
    """

    __slots__ = (
        "bodies", "expected", "delivered", "skipped", "stale", "wrong_body"
    )

    def __init__(self, bodies: Sequence[bytes]) -> None:
        if len(bodies) != BODY_POOL:
            raise ValueError(f"need {BODY_POOL} bodies, got {len(bodies)}")
        self.bodies = bodies
        self.expected = 0
        self.delivered = 0
        self.skipped = 0
        self.stale = 0
        self.wrong_body = 0

    def body_for(self, seq: int) -> bytes:
        return self.bodies[seq & (BODY_POOL - 1)]

    def __call__(self, seq: int, body: bytes) -> None:
        self.delivered += 1
        if seq == self.expected:
            self.expected = seq + 1
        elif seq > self.expected:
            self.skipped += seq - self.expected
            self.expected = seq + 1
        else:
            self.stale += 1
        if body != self.bodies[seq & (BODY_POOL - 1)]:
            self.wrong_body += 1

    def failures(self, submitted: int, region_results: int | None = None) -> int:
        """Failed operations out of ``submitted``, capped at ``submitted``.

        ``region_results`` is the region's own count of unique results
        (``ProcessRunStats.results``); disagreeing with the sink about
        how many tuples came out is itself a failure.
        """
        failed = self.skipped + self.stale + self.wrong_body
        failed += max(0, submitted - self.expected)
        if region_results is not None and region_results != self.delivered:
            failed += abs(region_results - self.delivered)
        return min(submitted, failed) if submitted else failed


def weights_failure(weights: Sequence[float] | None, resolution: int) -> bool:
    """Whether one control round's output breaks the allocation contract."""
    if weights is None:
        return False  # the priming round returns no weights by design
    return (
        any(not math.isfinite(w) or w < 0 for w in weights)
        or sum(weights) != resolution
    )
