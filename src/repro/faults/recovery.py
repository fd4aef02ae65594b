"""The recovery coordinator: detection, failover, reintegration, metrics.

Detection (the liveness monitor) runs every ``check_interval`` seconds and
declares a channel dead when it has **work but no progress**: tuples are
queued on the connection (or the splitter is parked on it), its worker has
nothing in service, and the worker's processed count has not moved for
``staleness_timeout`` seconds. That is precisely the signature the paper's
model cannot produce — a loaded worker always progresses, only a dead one
stops — so false positives require a pathological slowdown, and a wrongly
quarantined channel is simply reintegrated by the heartbeat a few rounds
later.

Failover runs through the region in one step: quarantine the channel in
the balancer (weight pinned to zero, RAP re-solved over survivors —
bypassing the per-round movement bounds, this is an emergency), fail the
channel end to end, and route its unacknowledged tuples by the **gap
policy**:

* ``"replay"`` (default) — resend them to survivors; the merger's
  sequence stays gap-free and every tuple is emitted exactly once;
* ``"skip"`` — declare them lost after ``skip_timeout`` via
  :meth:`~repro.streams.merger.OrderedMerger.mark_lost`; the merger
  advances past the gap and counts ``tuples_lost``.

Reintegration is heartbeat-driven: once the worker process is up and its
transport unstalled for ``heartbeat_confirmations`` consecutive checks,
the channel is restored with its blocking rate function decayed so
exploration re-learns its capacity, and weight ramps back
under the balancer's usual incremental bounds — a slow-start.

The coordinator also keeps the recovery metrics the experiments report:
per-episode time-to-quarantine (anchored at the injected fault) and
time-to-reconverge (quarantine until the balancer's weights hold still
for ``STABLE_ROUNDS`` consecutive checks).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.balancer import LoadBalancer
    from repro.core.policies import WeightedPolicy
    from repro.faults.injector import FaultInjector
    from repro.sim.engine import Simulator
    from repro.streams.region import ParallelRegion

GAP_POLICIES = ("replay", "skip")
#: Consecutive checks with (near-)unchanged weights = reconverged.
STABLE_ROUNDS = 5
#: Per-channel weight movement (in resolution units) still counted as
#: stable — the adaptive balancer's exploration decay jiggles weights
#: by a few units forever, which is noise, not reconvergence failure.
STABILITY_TOLERANCE = 8


@dataclass(slots=True)
class RecoveryConfig:
    """Tunables for detection, failover, and reintegration."""

    #: Liveness monitor period in simulated seconds.
    check_interval: float = 0.25
    #: Work-but-no-progress duration that declares a channel dead.
    staleness_timeout: float = 1.0
    #: Consecutive healthy heartbeats before a channel is reintegrated.
    heartbeat_confirmations: int = 2
    #: ``"replay"`` resends unacknowledged tuples to survivors; ``"skip"``
    #: declares them lost after :attr:`skip_timeout`.
    gap_policy: str = "replay"
    #: Grace period before a skipped gap is marked lost at the merger.
    skip_timeout: float = 1.0

    def __post_init__(self) -> None:
        check_positive("check_interval", self.check_interval)
        check_positive("staleness_timeout", self.staleness_timeout)
        check_positive("heartbeat_confirmations", self.heartbeat_confirmations)
        check_positive("skip_timeout", self.skip_timeout)
        if self.gap_policy not in GAP_POLICIES:
            raise ValueError(
                f"unknown gap policy {self.gap_policy!r}; "
                f"choose from {GAP_POLICIES}"
            )


@dataclass(slots=True)
class ChannelRecovery:
    """One quarantine episode of one channel, start to finish."""

    channel: int
    #: When the liveness monitor failed the channel over.
    quarantined_at: float
    #: When the fault that caused it was injected (None if unknown).
    fault_at: float | None = None
    #: When the heartbeat reintegrated the channel (None while out).
    reintegrated_at: float | None = None
    #: When the balancer's weights settled after the failover.
    reconverged_at: float | None = None
    #: Unacknowledged tuples replayed to survivors at failover.
    replayed: int = 0
    #: Sequence numbers declared lost (skip policy / retransmit eviction).
    lost: int = 0

    def time_to_quarantine(self) -> float | None:
        """Detection latency: fault to failover."""
        if self.fault_at is None:
            return None
        return self.quarantined_at - self.fault_at

    def time_to_reconverge(self) -> float | None:
        """Failover to stable weights."""
        if self.reconverged_at is None:
            return None
        return self.reconverged_at - self.quarantined_at


def first_time_to_quarantine(episodes: Iterable[ChannelRecovery]) -> float | None:
    """Detection latency of the first fault-anchored episode (or None)."""
    latencies = (e.time_to_quarantine() for e in episodes)
    return next((t for t in latencies if t is not None), None)


def first_time_to_reconverge(episodes: Iterable[ChannelRecovery]) -> float | None:
    """Reconvergence time of the first episode that settled (or None)."""
    latencies = (e.time_to_reconverge() for e in episodes)
    return next((t for t in latencies if t is not None), None)


class RecoveryCoordinator:
    """Keeps an ordered region live through channel failures."""

    def __init__(
        self,
        sim: "Simulator",
        region: "ParallelRegion",
        *,
        balancer: "LoadBalancer | None" = None,
        routing: "WeightedPolicy | None" = None,
        injector: "FaultInjector | None" = None,
        config: RecoveryConfig | None = None,
    ) -> None:
        if not region.params.fault_tolerant:
            raise ValueError(
                "recovery requires RegionParams(fault_tolerant=True)"
            )
        self.sim = sim
        self.region = region
        self.balancer = balancer
        self.routing = routing
        self.injector = injector
        self.config = config or RecoveryConfig()
        #: Completed and in-progress quarantine episodes, in order.
        self.episodes: list[ChannelRecovery] = []
        n = region.n_workers
        self._last_processed = [w.tuples_processed for w in region.workers]
        self._last_progress_time = [0.0] * n
        self._healthy_checks = [0] * n
        self._open: dict[int, ChannelRecovery] = {}
        self._last_weights: list[int] | None = None
        self._stable_streak = 0
        self._cancel = None
        #: Observability hub (None = not recording).
        self._obs = None
        #: Open "quarantine" span per quarantined channel.
        self._quarantine_spans: dict[int, int] = {}

    def attach_observability(self, hub) -> None:
        """Register recovery instruments and arm episode spans.

        Three span kinds per episode, all derived from the same episode
        timestamps as the ttq/ttr metrics (so their durations agree by
        construction): ``detection`` (fault to failover), ``quarantine``
        (failover to reintegration), and ``reconvergence`` (failover to
        re-settled weights).
        """
        self._obs = hub
        registry = hub.registry
        registry.gauge_fn(
            "recovery_quarantines_total",
            lambda: len(self.episodes),
            help="Failover episodes opened",
        )
        registry.gauge_fn(
            "recovery_open_quarantines",
            lambda: len(self._open),
            help="Channels currently quarantined",
        )
        registry.gauge_fn(
            "recovery_tuples_lost_total",
            lambda: sum(e.lost for e in self.episodes),
            help="Sequence numbers declared lost at failover",
        )

    def start(self, first: float | None = None) -> None:
        """Begin the periodic liveness/heartbeat check."""
        if self._cancel is not None:
            raise RuntimeError("recovery coordinator already started")
        self._cancel = self.sim.call_every(
            self.config.check_interval, self._check, start=first
        )

    def stop(self) -> None:
        """Cancel the periodic check."""
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    # -------------------------------------------------------------- actions

    def quarantine(self, channel: int) -> ChannelRecovery | None:
        """Fail ``channel`` over now (also callable by external monitors).

        Returns the opened episode, or ``None`` if the channel was
        already quarantined.
        """
        region = self.region
        if not region.splitter.live[channel]:
            return None
        now = self.sim.now
        config = self.config
        if self.balancer is not None:
            try:
                weights = self.balancer.quarantine(channel)
            except RuntimeError:
                # Every channel is now quarantined: there is no survivor
                # allocation to solve for (and the routing policy needs at
                # least one positive weight). The channel is still recorded
                # as quarantined; the splitter's live mask stops routing,
                # and the splitter parks until a channel is restored.
                weights = None
            if weights is not None and self.routing is not None:
                self.routing.set_weights(weights)
        replay = config.gap_policy == "replay"
        replayed_before = region.splitter.tuples_replayed
        # allow_stall: quarantining the last live channel parks the
        # splitter, but this coordinator's heartbeat will reintegrate the
        # channel once it recovers — the stall is temporary by design.
        lost = region.fail_channel(channel, replay=replay, allow_stall=True)
        replayed = region.splitter.tuples_replayed - replayed_before
        if lost:
            # Bounded-timeout skip: give stragglers a grace period, then
            # release the merger from the gap.
            self.sim.call_after(
                config.skip_timeout,
                lambda seqs=tuple(lost): region.merger.mark_lost(seqs),
            )
        episode = ChannelRecovery(
            channel=channel,
            quarantined_at=now,
            fault_at=(
                self.injector.last_fault_time(channel, now)
                if self.injector is not None
                else None
            ),
            replayed=replayed,
            lost=len(lost),
        )
        self.episodes.append(episode)
        self._open[channel] = episode
        self._healthy_checks[channel] = 0
        self._stable_streak = 0
        self._last_weights = (
            self.balancer.weights if self.balancer is not None else None
        )
        if self._obs is not None:
            tracer = self._obs.tracer
            if episode.fault_at is not None:
                # Detection span: same endpoints as time_to_quarantine().
                tracer.record(
                    "detection", episode.fault_at, now, channel=channel
                )
            self._quarantine_spans[channel] = tracer.start(
                "quarantine", now,
                channel=channel, replayed=replayed, lost=len(lost),
            )
        return episode

    def reintegrate(self, channel: int) -> None:
        """Bring a quarantined ``channel`` back into rotation."""
        if self.balancer is not None:
            self.balancer.reintegrate(channel)
        self.region.restore_channel(channel)
        episode = self._open.pop(channel, None)
        if episode is not None:
            episode.reintegrated_at = self.sim.now
            if self._obs is not None:
                span_id = self._quarantine_spans.pop(channel, None)
                if span_id is not None:
                    self._obs.tracer.finish(span_id, self.sim.now)
        # Progress bookkeeping restarts fresh for the revived channel.
        self._last_processed[channel] = (
            self.region.workers[channel].tuples_processed
        )
        self._last_progress_time[channel] = self.sim.now
        self._stable_streak = 0

    # -------------------------------------------------------------- metrics

    @property
    def quarantines(self) -> int:
        """Total failover episodes so far."""
        return len(self.episodes)

    # ------------------------------------------------------------- internal

    def _check(self) -> None:
        now = self.sim.now
        region = self.region
        splitter = region.splitter
        staleness = self.config.staleness_timeout
        for j, worker in enumerate(region.workers):
            if not splitter.live[j]:
                self._heartbeat(j, worker)
                continue
            processed = worker.tuples_processed
            # A crash or a halt revokes the service, so a busy PE is a
            # live one working: a batched PE's count moves only when its
            # whole run completes, which can outlast the timeout.
            if processed != self._last_processed[j] or worker.busy:
                self._last_processed[j] = processed
                self._last_progress_time[j] = now
                continue
            has_work = (
                region.connections[j].queued_tuples() > 0
                or splitter.blocked_on() == j
            )
            if has_work and now - self._last_progress_time[j] >= staleness:
                self.quarantine(j)
        self._track_reconvergence()

    def _heartbeat(self, channel: int, worker) -> None:
        healthy = worker.alive and not self.region.connections[channel].stalled
        if not healthy:
            self._healthy_checks[channel] = 0
            return
        self._healthy_checks[channel] += 1
        if self._healthy_checks[channel] >= self.config.heartbeat_confirmations:
            self.reintegrate(channel)

    def _track_reconvergence(self) -> None:
        if self.balancer is None:
            return
        weights = self.balancer.weights
        if self._last_weights is not None and len(weights) == len(
            self._last_weights
        ) and all(
            abs(w - prev) <= STABILITY_TOLERANCE
            for w, prev in zip(weights, self._last_weights)
        ):
            self._stable_streak += 1
        else:
            self._stable_streak = 0
        self._last_weights = weights
        if self._stable_streak < STABLE_ROUNDS:
            return
        settled_at = self.sim.now - (
            self._stable_streak * self.config.check_interval
        )
        for episode in self.episodes:
            if (
                episode.reconverged_at is None
                and settled_at >= episode.quarantined_at
            ):
                episode.reconverged_at = max(settled_at, episode.quarantined_at)
                if self._obs is not None:
                    # Same endpoints as time_to_reconverge().
                    self._obs.tracer.record(
                        "reconvergence",
                        episode.quarantined_at,
                        episode.reconverged_at,
                        channel=episode.channel,
                    )
