"""The load-balancing controller (Figure 4 of the paper).

Each control round the :class:`LoadBalancer`:

1. samples every connection's cumulative blocking counter and turns it
   into a smoothed blocking rate (:mod:`repro.core.blocking_rate`);
2. folds each rate into that connection's blocking rate function at its
   *current* allocation weight (:mod:`repro.core.rate_function`);
3. applies the exploration decay above the current weights (LB-adaptive;
   with ``decay=0`` this is LB-static);
4. optionally clusters the functions and pools member data
   (:mod:`repro.core.clustering`);
5. solves the minimax RAP (:mod:`repro.core.rap`) under incremental
   weight-change bounds and adopts the result as the new weights.

The controller is transport-agnostic: it sees only counter values and
emits only weight vectors, so it runs unchanged against the event
simulator, the fluid model, and the real-socket transport.

Failure recovery: the recovery layer can :meth:`~LoadBalancer.quarantine`
a dead channel — its allocation weight is pinned to zero and the RAP is
re-solved immediately over the survivors (an emergency reallocation, so
the per-round incremental movement bounds do not apply) — and later
:meth:`~LoadBalancer.reintegrate` it, with the channel's blocking rate
function decayed (or forgotten) so exploration re-learns its capacity.
Regular control rounds keep quarantined channels clamped at zero through
the weight constraints.

The controller is deterministic, and ``update``, ``quarantine`` and
``reintegrate`` are its only inputs: an attached audit log
(:meth:`~LoadBalancer.attach_audit`) records each call's input, and
:func:`replay` re-runs a recorded log to the same weights.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from contextlib import suppress
from dataclasses import dataclass

from repro.core.blocking_rate import BlockingRateEstimator
from repro.core.clustering import DEFAULT_DELTA, cluster_functions
from repro.core.constraints import WeightConstraints
from repro.core.rap import solve_minimax_fox
from repro.core.rate_function import DEFAULT_RESOLUTION, BlockingRateFunction
from repro.obs.audit import ControlRoundRecord, DecisionAuditLog
from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)

#: Fraction a reintegrated channel's rate function is decayed by.
REINTEGRATION_DECAY = 0.5
#: Smoothing of each blocking rate function's cells.
FUNCTION_ALPHA = 0.3
#: Relative predicted improvement a candidate allocation must show
#: before it replaces the current one. Prevents drift between
#: allocations the (sparse, decayed) functions cannot distinguish;
#: exploration still fires once decay has eroded predictions enough to
#: clear the bar.
HYSTERESIS = 0.05
#: Smoothed blocking rate (seconds blocked per second) at/above which a
#: channel counts as saturated; when *every* live channel is, the
#: relative signal carries no information (Section 4.4's overload
#: regime) and safe mode holds the weights.
SAFE_SATURATION = 0.9
#: Consecutive healthy rounds before safe mode releases its hold.
SAFE_RECOVER_ROUNDS = 3
#: Consecutive A->B->A adoption flips before safe mode declares the
#: optimizer oscillating and holds the weights.
SAFE_FLIP_LIMIT = 3


@dataclass(slots=True)
class BalancerConfig:
    """Tunables for the controller. Defaults follow the paper.

    ``decay``
        Exploration decay per round for weights above the current one.
        The paper chose 10% (0.1); 0 disables exploration (LB-static).
    ``clustering``
        Enable Section 5.3 clustering (the paper turns it on at 32+
        channels).
    ``max_increase`` / ``max_decrease``
        Per-round weight-movement bounds in weight units (``None`` =
        unlimited), the paper's incremental ``m_j``/``M_j``.
    ``weight_floor``
        Global minimum weight per connection (0 allows starving a
        connection entirely, as the paper's runs do).
    """

    resolution: int = DEFAULT_RESOLUTION
    decay: float = 0.1
    max_increase: int | None = 100
    max_decrease: int | None = None
    weight_floor: int = 0
    clustering: bool = False
    cluster_threshold: float = 1.0
    delta: float = DEFAULT_DELTA
    #: Enable the overload guardrails: degenerate inputs (non-finite or
    #: stale counters, every channel saturated, oscillating adoptions)
    #: hold the last-good weights instead of feeding the optimizer, and
    #: per-round weight movement is capped at :attr:`max_churn`. Off by
    #: default — the plain control path is untouched.
    safe_mode: bool = False
    #: Per-round cap on total weight movement (units moved, ``None`` =
    #: uncapped). Applied to regular adoptions in safe mode; emergency
    #: quarantine re-solves are exempt.
    max_churn: int | None = None

    def __post_init__(self) -> None:
        if self.resolution <= 1:
            raise ValueError("resolution must exceed 1")
        if not 0.0 <= self.decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {self.decay}")
        if self.max_increase is not None:
            check_positive("max_increase", self.max_increase)
        if self.max_decrease is not None:
            check_positive("max_decrease", self.max_decrease)
        if self.weight_floor < 0:
            raise ValueError("weight_floor must be non-negative")
        if self.weight_floor > self.resolution:
            raise ValueError(
                f"weight_floor {self.weight_floor} exceeds the resolution "
                f"{self.resolution}: no allocation can grant every "
                "connection its floor"
            )
        check_non_negative("cluster_threshold", self.cluster_threshold)
        check_positive("delta", self.delta)
        if self.max_churn is not None:
            check_positive("max_churn", self.max_churn)


def even_split(resolution: int, n: int) -> list[int]:
    """Integer weights as close to equal as possible, summing to ``resolution``."""
    if n <= 0:
        raise ValueError("need at least one connection")
    base, remainder = divmod(resolution, n)
    return [base + (1 if j < remainder else 0) for j in range(n)]


def distribute_evenly(
    total: int, minima: Sequence[int], maxima: Sequence[int]
) -> list[int]:
    """Split ``total`` units across members as evenly as bounds allow.

    Used to expand a cluster's allocation to its members. The result is
    what granting one unit at a time would give — start at each member's
    minimum, then always grant the member with the smallest current weight
    (ties to the lowest index) that still has headroom — computed as a
    water level: every member sits at the highest common level the total
    can pay for, clamped into its own bounds, and the units left over go
    one each to the lowest-indexed members standing at that level with
    headroom.

    The level is the last one whose cost ``sum(clamp(level, lo, hi))``
    the total can pay. That cost is piecewise linear in the level, rising
    by one per member with ``lo <= level < hi``, so it is found by walking
    the breakpoints (every ``lo`` and ``hi``) up to the segment the total
    runs out in.
    """
    if len(minima) != len(maxima):
        raise ValueError("minima and maxima must have the same length")
    paid = sum(minima)
    if total < paid:
        raise ValueError(f"total {total} is below the sum of minima")
    if total > sum(maxima):
        raise ValueError(f"total {total} exceeds the sum of maxima")
    if not minima:
        return []

    # At the lowest minimum every member sits at its own minimum.
    level = min(minima)
    rising = 0
    breakpoints = [(lo, 1) for lo in minima] + [(hi, -1) for hi in maxima]
    for point, step in sorted(breakpoints):
        if point > level:
            cost = paid + rising * (point - level)
            if cost > total:
                break
            level, paid = point, cost
        rising += step
    if rising:
        # The total runs out inside this segment (past the last
        # breakpoint nothing rises and the level stays there).
        level += (total - paid) // rising
    weights = [max(lo, min(hi, level)) for lo, hi in zip(minima, maxima)]
    leftover = total - sum(weights)
    for j, hi in enumerate(maxima):
        if leftover == 0:
            break
        if weights[j] == level and level < hi:
            weights[j] += 1
            leftover -= 1
    return weights


def _largest_remainder(amounts: Sequence[float], total: int) -> list[int]:
    """Integer apportionment of ``total`` proportional to ``amounts``.

    Each share is ``floor`` of its exact value, with the leftover units
    granted by largest fractional remainder (ties to the lowest index).
    Deterministic, and each share never exceeds ``ceil(exact)``.
    """
    floors = [int(a) for a in amounts]
    leftover = total - sum(floors)
    order = sorted(
        range(len(amounts)), key=lambda j: (floors[j] - amounts[j], j)
    )
    for j in order[:leftover]:
        floors[j] += 1
    return floors


def limit_weight_churn(
    current: Sequence[int], candidate: Sequence[int], max_churn: int
) -> list[int]:
    """Move at most ``max_churn`` weight units from ``current`` toward
    ``candidate``.

    Movement (the sum of the increases, equal to the sum of the
    decreases) is scaled down proportionally on both sides, so the
    result keeps the allocation's sum and lies componentwise between
    ``current`` and ``candidate`` — every intermediate value satisfies
    any bounds both endpoints satisfy.
    """
    check_positive("max_churn", max_churn)
    deltas = [c - w for c, w in zip(candidate, current)]
    movement = sum(d for d in deltas if d > 0)
    if movement <= max_churn:
        return list(candidate)
    scale = max_churn / movement
    gains = _largest_remainder(
        [d * scale if d > 0 else 0.0 for d in deltas], max_churn
    )
    losses = _largest_remainder(
        [-d * scale if d < 0 else 0.0 for d in deltas], max_churn
    )
    return [w + g - x for w, g, x in zip(current, gains, losses)]


class LoadBalancer:
    """The blocking-rate minimax load balancer."""

    def __init__(
        self,
        n_connections: int,
        config: BalancerConfig | None = None,
    ) -> None:
        if n_connections <= 0:
            raise ValueError("need at least one connection")
        # The smoothing, hysteresis and safe-mode thresholds are module
        # constants: an edit that puts one out of its range is refused
        # here.
        if not 0.0 < FUNCTION_ALPHA <= 1.0:
            raise ValueError(
                f"FUNCTION_ALPHA must be in (0, 1], got {FUNCTION_ALPHA}"
            )
        if not 0.0 <= HYSTERESIS < 1.0:
            raise ValueError(f"HYSTERESIS must be in [0, 1), got {HYSTERESIS}")
        check_fraction("SAFE_SATURATION", SAFE_SATURATION)
        check_positive("SAFE_RECOVER_ROUNDS", SAFE_RECOVER_ROUNDS)
        check_positive("SAFE_FLIP_LIMIT", SAFE_FLIP_LIMIT)
        self.config = config or BalancerConfig()
        self.n_connections = n_connections
        if self.config.weight_floor * n_connections > self.config.resolution:
            raise ValueError(
                f"weight_floor {self.config.weight_floor} across "
                f"{n_connections} connections requires "
                f"{self.config.weight_floor * n_connections} weight units, "
                f"but the resolution is only {self.config.resolution}: "
                "the floor constraints are infeasible"
            )
        self.functions = [
            BlockingRateFunction(
                self.config.resolution,
                smoothing_alpha=FUNCTION_ALPHA,
            )
            for _ in range(n_connections)
        ]
        self.estimator = BlockingRateEstimator(n_connections)
        self._weights = even_split(self.config.resolution, n_connections)
        #: Most recent smoothed blocking rates (diagnostic).
        self.last_rates: list[float] = [0.0] * n_connections
        #: Most recent clustering (singletons until clustering runs).
        self.last_clusters: list[list[int]] = [[j] for j in range(n_connections)]
        #: Control rounds executed (excludes the priming sample).
        self.rounds = 0
        #: Channels currently quarantined (weight pinned to zero).
        self._quarantined: set[int] = set()
        #: Rounds safe mode held the last-good weights (degenerate input
        #: or recovery hold).
        self.safe_rounds = 0
        #: Times safe mode tripped on an oscillating adoption pattern.
        self.oscillation_trips = 0
        self._safe_hold = False
        self._healthy_streak = 0
        self._last_sample_time: float | None = None
        #: Weights before the most recent adoption (for flip detection).
        self._prev_weights: list[int] | None = None
        self._flip_streak = 0
        #: Decision audit log (observability; None = not recording).
        self._audit: DecisionAuditLog | None = None
        self._audit_clock = None

    @property
    def in_safe_hold(self) -> bool:
        """Whether safe mode is currently holding the last-good weights."""
        return self._safe_hold

    @property
    def weights(self) -> list[int]:
        """Current allocation weights (copy), summing to the resolution."""
        return list(self._weights)

    @property
    def quarantined(self) -> set[int]:
        """Channels currently quarantined (copy)."""
        return set(self._quarantined)

    # ---------------------------------------------------------------- audit

    def attach_audit(self, log: DecisionAuditLog, clock) -> None:
        """Record every control decision into ``log``.

        ``clock`` is a zero-argument callable returning the current
        (simulation) time; it stamps the emergency records emitted by
        :meth:`quarantine`/:meth:`reintegrate`, which carry no ``now``
        of their own. Regular rounds use their ``update(now, ...)``
        argument directly.
        """
        self._audit = log
        self._audit_clock = clock

    def _emit_audit(
        self,
        now: float,
        trigger: str,
        outcome: str,
        round_no: int,
        *,
        counters: Sequence[float] = (),
        channel: int = -1,
    ) -> None:
        self._audit.append(ControlRoundRecord(
            round=round_no,
            time=now,
            trigger=trigger,
            outcome=outcome,
            counters=list(counters),
            channel=channel,
            new_weights=list(self._weights),
        ))

    # ------------------------------------------------------------- recovery

    def quarantine(self, channel: int) -> list[int]:
        """Pin ``channel``'s weight to zero and re-solve over survivors.

        This is the emergency path the recovery layer takes when a channel
        is declared dead: unlike a regular control round, the incremental
        movement bounds and the hysteresis gate are bypassed — the dead
        channel's traffic must move *now*, however far the weights jump.
        Returns the new weights.

        Quarantining the *last* live channel raises (there is no survivor
        allocation to solve for) — but the channel is still recorded as
        quarantined, so :meth:`reintegrate` works once it recovers, and
        the audit log gets an ``all-quarantined`` record so a replay
        quarantines it too.
        """
        if not 0 <= channel < self.n_connections:
            raise ValueError(f"no such channel: {channel}")
        self._quarantined.add(channel)
        survivors = self.n_connections - len(self._quarantined)
        if survivors > 0:
            self._weights = self._solve_over_live()
        if self._audit is not None:
            self._emit_audit(
                self._audit_clock(), "quarantine",
                "adopted" if survivors > 0 else "all-quarantined",
                self.rounds, channel=channel,
            )
        if survivors <= 0:
            raise RuntimeError(
                "every channel is quarantined; the region has no capacity"
            )
        return self.weights

    def _solve_over_live(self) -> list[int]:
        """Every unit onto the live channels, movement bounds off."""
        constraints = WeightConstraints(
            minima=(0,) * self.n_connections,
            maxima=tuple(
                0 if j in self._quarantined else self.config.resolution
                for j in range(self.n_connections)
            ),
        )
        evaluators = [fn.value for fn in self.functions]
        return solve_minimax_fox(
            evaluators, self.config.resolution, constraints
        )

    def reintegrate(self, channel: int) -> None:
        """Lift ``channel``'s quarantine so regular rounds re-admit it.

        The channel's blocking rate function is decayed by
        :data:`REINTEGRATION_DECAY`: its pre-failure data is
        stale, and shrinking the predicted blocking induces the minimax
        optimizer to re-explore the channel. Weight returns gradually —
        reintegration itself moves nothing; the next control rounds ramp
        the channel up under the usual incremental bounds, a slow-start
        that protects the region if the channel is still shaky. The one
        exception is weight stranded on a still-quarantined channel (every
        channel was out): that is emergency traffic as in
        :meth:`quarantine` and moves to the live set at once.
        """
        if not 0 <= channel < self.n_connections:
            raise ValueError(f"no such channel: {channel}")
        if channel not in self._quarantined:
            return
        self._quarantined.discard(channel)
        self.functions[channel].decay_all(REINTEGRATION_DECAY)
        stranded = any(self._weights[j] for j in self._quarantined)
        if stranded:
            # quarantine() of the last live channel raised and kept the
            # old weights: those units are stranded on a dead channel and
            # no regular round could move them within its rise bound.
            self._weights = self._solve_over_live()
        if self._audit is not None:
            self._emit_audit(
                self._audit_clock(), "reintegrate",
                "adopted" if stranded else "no-change", self.rounds,
                channel=channel,
            )

    def update(self, now: float, counters: Sequence[float]) -> list[int] | None:
        """One control round; returns the new weights (``None`` on priming).

        ``counters`` are the cumulative blocking-time counter values read
        from the transport layer at time ``now``.

        With ``config.safe_mode`` on, degenerate inputs — a non-finite
        counter or timestamp, a sample whose clock has not advanced, or
        every live channel saturated past :data:`SAFE_SATURATION` — never
        reach the estimator or the rate functions: the round holds the
        last-good weights instead, and normal control resumes only after
        :data:`SAFE_RECOVER_ROUNDS` consecutive healthy rounds. Adoptions are
        additionally filtered for A->B->A oscillation and capped at
        ``max_churn`` units of movement per round.
        """
        outcome = self._round(now, counters)
        primed = outcome == "primed"
        if not primed:
            self.rounds += 1
        if self._audit is not None:
            self._emit_audit(
                now, "periodic", outcome, -1 if primed else self.rounds - 1,
                counters=counters,
            )
        if primed or outcome == "all-quarantined":
            return None
        return self.weights

    def _round(self, now: float, counters: Sequence[float]) -> str:
        """The decision of one :meth:`update`; returns its audit outcome."""
        safe = self.config.safe_mode
        if safe and not self._counters_sane(now, counters):
            # Garbage in the control inputs would poison the estimator's
            # interval state and the rate functions; drop the sample.
            self._enter_hold()
            return "hold-degenerate"
        if safe:
            self._last_sample_time = now
        rates = self.estimator.sample(now, counters)
        if rates is None:
            return "primed"
        self.last_rates = rates
        if safe and any(not math.isfinite(r) for r in rates):
            # Sane counters can still difference to an absurd rate (a huge
            # delta over a tiny interval overflows); the rate functions
            # reject non-finite observations, so hold instead of crashing.
            self._enter_hold()
            return "hold-nonfinite-rates"
        if safe and self._all_saturated(rates):
            # Every live channel is blocking flat out: the *relative*
            # signal the minimax optimizer needs is gone (any allocation
            # blocks everywhere), so re-solving just chases noise.
            self._enter_hold()
            return "hold-saturated"
        # Every connection's rate is folded in at its current weight —
        # including zeros. Under drafting a zero can be misleading (the
        # draft leader absorbs everyone's blocking), but the per-cell
        # smoothing, the count-weighted monotone regression, and
        # re-observation when the leader rotates correct such cells, and
        # zeros below a connection's true service knee are genuine
        # capacity evidence the optimizer needs.
        quarantined = self._quarantined
        if len(quarantined) >= self.n_connections:
            # Every channel is quarantined: no survivor allocation exists
            # to solve for. Keep the last weights until a reintegration.
            return "all-quarantined"
        for j, rate in enumerate(rates):
            if j in quarantined:
                # A quarantined channel receives no tuples: its measured
                # rate carries no information, and its function is frozen
                # until reintegration decays it deliberately.
                continue
            self.functions[j].observe(self._weights[j], rate)
        if self.config.decay > 0.0:
            for j in range(self.n_connections):
                if j in quarantined:
                    continue
                self.functions[j].decay_above(self._weights[j], self.config.decay)
        if safe and self._safe_hold:
            # Healthy again, but require a streak before releasing the
            # hold: one good sample amid degenerate ones proves nothing.
            self._healthy_streak += 1
            if self._healthy_streak < SAFE_RECOVER_ROUNDS:
                self.safe_rounds += 1
                return "hold-recovering"
            self._safe_hold = False
            self._healthy_streak = 0
            self._flip_streak = 0
        candidate = self._solve()
        if not self._accept(candidate):
            if candidate == self._weights:
                return "no-change"
            return "rejected-hysteresis"
        trips = self.oscillation_trips
        adopted = self._guard_adoption(candidate) if safe else candidate
        if adopted != self._weights:
            self._prev_weights = list(self._weights)
            self._weights = adopted
        if self.oscillation_trips != trips:
            return "hold-oscillation"
        return "adopted"

    # ------------------------------------------------------------ safe mode

    def _counters_sane(self, now: float, counters: Sequence[float]) -> bool:
        if not math.isfinite(now):
            return False
        if any(not math.isfinite(c) or c < 0 for c in counters):
            return False
        # A repeated or rewound timestamp means the sampler is stale;
        # differencing against it would divide by (at best) zero.
        # Decreasing *counters* are legal — the transport layer's
        # periodic reset produces that sawtooth by design.
        if self._last_sample_time is not None and now <= self._last_sample_time:
            return False
        return True

    def _all_saturated(self, rates: Sequence[float]) -> bool:
        active = [
            rate
            for j, rate in enumerate(rates)
            if j not in self._quarantined
        ]
        return bool(active) and min(active) >= SAFE_SATURATION

    def _enter_hold(self) -> None:
        self._safe_hold = True
        self._healthy_streak = 0
        self.safe_rounds += 1

    def _guard_adoption(self, candidate: list[int]) -> list[int]:
        """Safe mode's adoption filter: oscillation trip, then churn cap."""
        if self._prev_weights is not None and candidate == self._prev_weights:
            self._flip_streak += 1
            if self._flip_streak >= SAFE_FLIP_LIMIT:
                # The optimizer is ping-ponging between two allocations
                # it cannot actually distinguish; stop following it.
                self.oscillation_trips += 1
                self._flip_streak = 0
                self._enter_hold()
                return list(self._weights)
        else:
            self._flip_streak = 0
        if self.config.max_churn is not None:
            return limit_weight_churn(
                self._weights, candidate, self.config.max_churn
            )
        return candidate

    def _accept(self, candidate: list[int]) -> bool:
        """Hysteresis gate: adopt only a meaningfully better allocation.

        Sparse, decayed functions often cannot distinguish allocations;
        without this gate the optimizer drifts between ties (Fox breaks
        ties toward low indices) and throughput suffers. The candidate is
        adopted when its predicted minimax objective beats the current
        allocation's by at least :data:`HYSTERESIS` (relatively), so
        decay-driven re-exploration still fires — just not every round.
        """
        if candidate == self._weights:
            return False
        current_objective = max(
            fn.value(w) for fn, w in zip(self.functions, self._weights)
        )
        candidate_objective = max(
            fn.value(w) for fn, w in zip(self.functions, candidate)
        )
        return candidate_objective < current_objective * (1.0 - HYSTERESIS)

    # ------------------------------------------------------------- solving

    def _member_constraints(self) -> WeightConstraints:
        constraints = WeightConstraints.incremental(
            self._weights,
            self.config.resolution,
            max_decrease=self.config.max_decrease,
            max_increase=self.config.max_increase,
            floor=self.config.weight_floor,
        )
        if self._quarantined:
            minima = list(constraints.minima)
            maxima = list(constraints.maxima)
            for j in self._quarantined:
                minima[j] = 0
                maxima[j] = 0
            constraints = WeightConstraints(
                minima=tuple(minima), maxima=tuple(maxima)
            )
        return constraints

    def _solve(self) -> list[int]:
        if self.config.clustering and self.n_connections > 1:
            return self._solve_clustered()
        return self._solve_direct()

    def _solve_direct(self) -> list[int]:
        constraints = self._member_constraints()
        # The solver reads a few weights per run, so each is evaluated from
        # the fit's breakpoints: no function builds its R + 1 entry table.
        evaluators = [fn.value for fn in self.functions]
        self.last_clusters = [[j] for j in range(self.n_connections)]
        return solve_minimax_fox(
            evaluators, self.config.resolution, constraints
        )

    def _solve_clustered(self) -> list[int]:
        clusters = cluster_functions(
            self.functions,
            self.config.cluster_threshold,
            delta=self.config.delta,
        )
        self.last_clusters = clusters
        member_bounds = self._member_constraints()

        pooled = [
            BlockingRateFunction.pooled([self.functions[j] for j in cluster])
            for cluster in clusters
        ]
        sizes = [len(cluster) for cluster in clusters]

        # Cluster-level function: the pooled per-connection function
        # evaluated at the cluster allocation split evenly among members.
        def cluster_eval(fn: BlockingRateFunction, size: int):
            resolution = self.config.resolution

            def evaluate(total_weight: int) -> float:
                return fn.value(min(resolution, total_weight / size))

            return evaluate

        evaluators = [
            cluster_eval(fn, size) for fn, size in zip(pooled, sizes)
        ]
        cluster_constraints = WeightConstraints(
            minima=tuple(
                sum(member_bounds.minima[j] for j in cluster)
                for cluster in clusters
            ),
            maxima=tuple(
                min(
                    self.config.resolution,
                    sum(member_bounds.maxima[j] for j in cluster),
                )
                for cluster in clusters
            ),
        )
        cluster_weights = solve_minimax_fox(
            evaluators, self.config.resolution, cluster_constraints
        )

        weights = [0] * self.n_connections
        for cluster, total in zip(clusters, cluster_weights):
            member_weights = distribute_evenly(
                total,
                [member_bounds.minima[j] for j in cluster],
                [member_bounds.maxima[j] for j in cluster],
            )
            for j, w in zip(cluster, member_weights):
                weights[j] = w
        return weights


def replay(
    records: Iterable[ControlRoundRecord | dict],
    config: BalancerConfig | None,
    n_connections: int,
) -> list[list[int]]:
    """Re-run an audit log; returns the weights after each record.

    ``records`` are :class:`~repro.obs.audit.ControlRoundRecord` objects
    or their dict form (``ObsReport.audit``, or the ``audit`` events of
    a parsed JSONL export). Each record's input is fed, in order, to a
    fresh ``LoadBalancer(n_connections, config)``: a periodic record's
    ``update(time, counters)``, a quarantine or reintegrate record's
    channel. The balancer is deterministic, so the result equals every
    record's ``new_weights`` — given the config the run used: the
    runner sets ``decay=0`` for ``lb-static``.

    Replay is open-loop. The counters were measured under the recorded
    weights, so replaying with another config tells what that
    controller would have decided on the same samples, not what a run
    with it would have measured.
    """
    balancer = LoadBalancer(n_connections, config)
    weights = []
    for record in records:
        if isinstance(record, ControlRoundRecord):
            record = record.as_dict()
        if record["trigger"] == "periodic":
            balancer.update(record["time"], record["counters"])
        elif record["trigger"] == "quarantine":
            # The all-quarantined record: the recorded call raised too.
            with suppress(RuntimeError):
                balancer.quarantine(record["channel"])
        else:
            balancer.reintegrate(record["channel"])
        weights.append(balancer.weights)
    return weights
