"""Routing policies for the splitter.

* :class:`RoundRobinPolicy` — the paper's ``RR`` baseline: no load
  balancing at all.
* :class:`WeightedPolicy` — smooth weighted round-robin over integer
  allocation weights in units of ``1/R`` (0.1% for the paper's ``R=1000``).
  This is the policy the :class:`~repro.core.balancer.LoadBalancer` drives
  (``LB-static`` / ``LB-adaptive``) and that :class:`OraclePolicy` extends.
* :class:`ReroutingPolicy` — the failed transport-level re-routing baseline
  of Section 4.4: route round-robin, but when the chosen connection would
  block, offer the tuple to the other connections first.
* :class:`OraclePolicy` — the paper's ``Oracle*``: weights computed offline
  from true capacities, switched exactly when the external load changes
  (which the paper notes is "earlier than is optimal" — queued backlog still
  reflects the old load, hence the asterisk).

Smooth weighted round-robin (the nginx algorithm) is used instead of
block-wise weighted round-robin so that low-weight connections stay evenly
interleaved in the tuple stream — important because the ordered merger
penalizes bursts to a slow connection.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class RoundRobinPolicy:
    """Cycle through connections 0..N-1 forever."""

    allows_reroute = False

    def __init__(self, n_connections: int) -> None:
        if n_connections <= 0:
            raise ValueError("need at least one connection")
        self.n_connections = n_connections
        self._next = 0

    def next_connection(self) -> int:
        """The next connection in cyclic order."""
        chosen = self._next
        self._next = (self._next + 1) % self.n_connections
        return chosen

    def allocate_batch(self, count: int) -> list[int]:
        """Tuples per connection for the next ``count`` picks, in one call.

        Exactly what ``count`` calls of :meth:`next_connection` would have
        realized: each connection gets ``count // n``, and the ``count % n``
        leftovers go to the next connections in cyclic order (advancing the
        cursor), so consecutive batches stay perfectly balanced.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        n = self.n_connections
        base, extra = divmod(count, n)
        alloc = [base] * n
        cursor = self._next
        for offset in range(extra):
            alloc[(cursor + offset) % n] += 1
        self._next = (cursor + extra) % n
        return alloc

    def reroute_candidates(self, blocked: int) -> Iterable[int]:
        """Round-robin never reroutes."""
        return ()


class WeightedPolicy:
    """Smooth weighted round-robin over integer allocation weights.

    Each call adds every connection's weight to its credit, picks the
    largest credit, and charges the winner the total weight. Over any
    window of ``sum(weights)`` picks, connection ``j`` is chosen exactly
    ``weights[j]`` times, with picks spread as evenly as possible.
    Zero-weight connections are never picked.
    """

    allows_reroute = False

    def __init__(self, weights: Sequence[int]) -> None:
        self.n_connections = len(weights)
        self._weights: list[int] = []
        self._credits: list[int] = []
        self._active: list[tuple[int, int]] = []
        self._active_ids: list[int] = []
        self._total = 0
        self.set_weights(weights)

    @property
    def weights(self) -> list[int]:
        """Current allocation weights (copy)."""
        return list(self._weights)

    def set_weights(self, weights: Sequence[int]) -> None:
        """Replace the allocation weights.

        Credits are reset so the new distribution takes effect crisply;
        the controller changes weights at control-interval granularity
        (~1 s), far coarser than the per-tuple interleave.
        """
        if len(weights) != self.n_connections and self._weights:
            raise ValueError(
                f"expected {self.n_connections} weights, got {len(weights)}"
            )
        cleaned = [int(w) for w in weights]
        if any(w < 0 for w in cleaned):
            raise ValueError(f"weights must be non-negative: {cleaned}")
        if sum(cleaned) <= 0:
            raise ValueError("at least one weight must be positive")
        self._weights = cleaned
        self._credits = [0] * len(cleaned)
        # Weights change at control-interval granularity but are read on
        # every routed tuple: precompute the nonzero (index, weight) pairs
        # and their sum once per change instead of filtering per pick.
        self._active = [(j, w) for j, w in enumerate(cleaned) if w]
        self._active_ids = [j for j, _ in self._active]
        self._total = sum(w for _, w in self._active)

    def next_connection(self) -> int:
        """Pick by smooth weighted round-robin."""
        credits = self._credits
        best = -1
        best_credit = float("-inf")
        for j, w in self._active:
            c = credits[j] + w
            credits[j] = c
            if c > best_credit:
                best_credit = c
                best = j
        credits[best] -= self._total
        return best

    def allocate_batch(self, count: int) -> list[int]:
        """Apportion ``count`` tuples across connections by weight.

        The smooth round-robin's rule for ``count`` picks at once, on the
        same integer credits (:meth:`_floor_and_settle`). A batch of one
        is exactly one :meth:`next_connection` pick, credits included, so
        it takes that pick directly.
        """
        if count == 1:
            alloc = [0] * self.n_connections
            alloc[self.next_connection()] = 1
            return alloc
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return self._floor_and_settle(count)

    def _floor_and_settle(self, count: int) -> list[int]:
        """The batch rule: floor each share, then settle the remainder.

        Connection ``j``'s share is ``credit_j + count * w_j`` (in units
        of ``1/total`` tuples), it is allotted ``share // total`` (never
        below zero), and what the floors leave unsettled is handed out or
        taken back by :meth:`_settle`. The credit keeps ``share - alloc *
        total``, so over any run of batches a connection's realized
        allocation tracks ``T * w_j / total``, and at ``count == 1`` this
        is exactly one :meth:`next_connection` pick, credits included — a
        batch of one is the per-tuple interleave.
        """
        alloc = [0] * self.n_connections
        if count == 0:
            return alloc
        credits = self._credits
        total = self._total
        assigned = 0
        for j, w in self._active:
            share = credits[j] + count * w
            floor = share // total if share > 0 else 0
            alloc[j] = floor
            assigned += floor
            credits[j] = share - floor * total
        if assigned != count:
            self._settle(alloc, assigned, count)
        return alloc

    def _settle(self, alloc: list[int], assigned: int, count: int) -> None:
        """Hand out or take back the tuples the floors leave unsettled.

        A shortfall goes to the largest remaining credits, lowest index
        first on ties (weights ``[1, 1, 1]`` and 16 tuples give
        ``[6, 5, 5]``) — at ``count == 1`` that is the round-robin's
        pick. Floors clamped at zero (a connection in debt) can overshoot
        ``count``; the excess is taken back from the smallest remaining
        credits among connections allotted something, highest index first
        on ties, cycling until the allocation sums to ``count``. Cycling
        in that order leaves the largest shares standing, so a batch of
        one still lands on the round-robin's pick.

        Both orders are one keyed sort of the active indices: Python's
        sort is stable, with ``reverse=True`` too, so ties keep their
        input order — ascending for the shortfall, and descending (the
        indices fed in reversed) for the take-back.
        """
        credits = self._credits
        total = self._total
        key = credits.__getitem__
        if assigned < count:
            order = sorted(self._active_ids, key=key, reverse=True)
            step = 1
            left = count - assigned
        else:
            order = sorted(reversed(self._active_ids), key=key)
            step = -1
            left = assigned - count
        while left:
            for j in order:
                if step < 0 and not alloc[j]:
                    continue
                alloc[j] += step
                credits[j] -= step * total
                left -= 1
                if not left:
                    break

    def reroute_candidates(self, blocked: int) -> Iterable[int]:
        """Weighted policy elects to block, never reroutes (Section 4.4)."""
        return ()


class ReroutingPolicy:
    """Transport-level re-routing baseline (the Section 4.4 experiment).

    Routes like round-robin, but the splitter is allowed to try the other
    connections (in cyclic order after the blocked one) when the chosen
    connection's buffer is full. The paper shows this re-routes well under
    10% of tuples and barely helps, because blocking is a *late* congestion
    signal; we keep it as a baseline to reproduce exactly that result.
    Re-routing is per tuple, so the splitter refuses it at ``batch_size > 1``.
    """

    allows_reroute = True

    def __init__(self, n_connections: int) -> None:
        self._rr = RoundRobinPolicy(n_connections)
        self.n_connections = n_connections

    def next_connection(self) -> int:
        """Primary route: plain round-robin."""
        return self._rr.next_connection()

    def reroute_candidates(self, blocked: int) -> Iterable[int]:
        """All other connections, cyclically after the blocked one."""
        return (
            (blocked + offset) % self.n_connections
            for offset in range(1, self.n_connections)
        )


class OraclePolicy(WeightedPolicy):
    """``Oracle*``: true-capacity weights with scheduled switch-overs.

    ``schedule`` maps simulated times to weight vectors; the experiment
    runner applies each change at its time. The initial weights are the
    entry at time 0 (or the earliest entry).
    """

    def __init__(self, schedule: dict[float, Sequence[int]]) -> None:
        if not schedule:
            raise ValueError("oracle schedule must not be empty")
        self.schedule = {float(t): [int(w) for w in ws] for t, ws in schedule.items()}
        first_time = min(self.schedule)
        super().__init__(self.schedule[first_time])

    def changes_after(self, time: float) -> list[tuple[float, list[int]]]:
        """Scheduled weight changes strictly after ``time``, in order."""
        return sorted(
            (t, ws) for t, ws in self.schedule.items() if t > time
        )
