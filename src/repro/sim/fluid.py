"""Fluid (steady-state) approximation of the dataplane.

A deliberately simple analytic stand-in for the event simulator, capturing
the paper's steady-state structure:

* With allocation weights ``w_j`` (fractions of traffic) and worker
  service rates ``mu_j`` (tuples/sec), the region's throughput is gated by
  its most overloaded connection:  ``lambda = min(sigma, min_j mu_j / w_j)``
  where ``sigma`` is the splitter's own maximum send rate.
* The splitter spends ``lambda / sigma`` of its time sending; the rest of
  the time it is blocked — and because it is single-threaded, *all* of
  that blocking lands on one connection, the **draft leader** (Section
  4.2). In the fluid model the leader is the bottleneck connection, and it
  is sticky: it only changes when another connection becomes strictly more
  loaded, mimicking the paper's observation that "the draft leader is
  likely to change less frequently than the measurement periods".

The fluid model exposes the same observable surface as the simulated
region — cumulative :class:`~repro.net.blocking.BlockingCounter` per
connection plus a weight setter — so the
:class:`~repro.core.balancer.LoadBalancer` runs against it unchanged. It
is used for fast controller unit tests and ablations; paper figures use
the event simulator.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.net.blocking import BlockingCounter
from repro.util.validation import check_positive

#: Relative tolerance within which the incumbent draft leader keeps the
#: lead over a strictly more loaded connection.
LEADER_STICKINESS = 1e-9


class FluidRegion:
    """Analytic steady-state model of splitter + N workers + merge."""

    def __init__(
        self,
        service_rates: Sequence[float],
        *,
        splitter_rate: float = 1e9,
        resolution: int = 1000,
    ) -> None:
        if not service_rates:
            raise ValueError("need at least one worker")
        for j, mu in enumerate(service_rates):
            check_positive(f"service_rates[{j}]", mu)
        check_positive("splitter_rate", splitter_rate)
        check_positive("resolution", resolution)
        self._mu = [float(m) for m in service_rates]
        self.splitter_rate = float(splitter_rate)
        self.resolution = int(resolution)
        self.blocking_counters = [BlockingCounter() for _ in service_rates]
        self.time = 0.0
        self.tuples_emitted = 0.0
        base, rem = divmod(self.resolution, len(self._mu))
        self._weights = [
            base + (1 if j < rem else 0) for j in range(len(self._mu))
        ]
        self._leader: int | None = None

    @property
    def n_workers(self) -> int:
        """Width of the region."""
        return len(self._mu)

    @property
    def weights(self) -> list[int]:
        """Current allocation weights (copy)."""
        return list(self._weights)

    def set_weights(self, weights: Sequence[int]) -> None:
        """Adopt new allocation weights (integer units of ``1/resolution``)."""
        if len(weights) != len(self._mu):
            raise ValueError(
                f"expected {len(self._mu)} weights, got {len(weights)}"
            )
        if sum(weights) != self.resolution:
            raise ValueError(
                f"weights must sum to {self.resolution}, got {sum(weights)}"
            )
        self._weights = [int(w) for w in weights]

    def set_service_rate(self, worker: int, rate: float) -> None:
        """Change a worker's capacity (e.g. external load arrives/leaves)."""
        check_positive("rate", rate)
        self._mu[worker] = float(rate)

    def throughput(self) -> float:
        """Steady-state region throughput in tuples/sec."""
        limit = self.splitter_rate
        for w, mu in zip(self._weights, self._mu):
            if w > 0:
                limit = min(limit, mu * self.resolution / w)
        return limit

    def bottleneck(self) -> int | None:
        """The most loaded connection, or ``None`` if the splitter gates."""
        best_j: int | None = None
        best_ratio = self.splitter_rate
        for j, (w, mu) in enumerate(zip(self._weights, self._mu)):
            if w == 0:
                continue
            ratio = mu * self.resolution / w
            if ratio < best_ratio:
                best_ratio = ratio
                best_j = j
        return best_j

    def advance(self, dt: float) -> None:
        """Advance steady state by ``dt`` seconds, accruing blocking time.

        The splitter's idle fraction ``1 - lambda/sigma`` is charged
        entirely to the (sticky) draft leader.
        """
        check_positive("dt", dt)
        rate = self.throughput()
        self.tuples_emitted += rate * dt
        blocked_fraction = max(0.0, 1.0 - rate / self.splitter_rate)
        self.time += dt
        if blocked_fraction <= 0.0:
            self._leader = None
            return
        leader = self._elect_leader()
        if leader is not None:
            self.blocking_counters[leader].add(blocked_fraction * dt)

    def _elect_leader(self) -> int | None:
        bottleneck = self.bottleneck()
        if bottleneck is None:
            self._leader = None
            return None
        if self._leader is not None and self._weights[self._leader] > 0:
            # Sticky: keep the incumbent while it is still (within
            # tolerance) as loaded as the strict bottleneck.
            incumbent = (
                self._mu[self._leader]
                * self.resolution
                / self._weights[self._leader]
            )
            strict = (
                self._mu[bottleneck]
                * self.resolution
                / self._weights[bottleneck]
            )
            if incumbent <= strict * (1.0 + LEADER_STICKINESS):
                return self._leader
        self._leader = bottleneck
        return bottleneck
