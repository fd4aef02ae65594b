"""The recovery coordinator: detection, failover, reintegration, metrics.

Detection (the liveness monitor) runs every ``CHECK_INTERVAL`` seconds and
declares a channel dead when it has **work but no progress**: tuples are
queued on the connection (or the splitter is parked on it), its worker has
nothing in service, and the worker's processed count has not moved for
``STALENESS_TIMEOUT`` seconds. That is precisely the signature the paper's
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
* ``"skip"`` — declare them lost after ``SKIP_TIMEOUT`` via
  :meth:`~repro.streams.merger.OrderedMerger.mark_lost`; the merger
  advances past the gap and counts ``tuples_lost``.

Reintegration is heartbeat-driven: once the worker process is up and its
transport unstalled for ``HEARTBEAT_CONFIRMATIONS`` consecutive checks,
the channel is restored with its blocking rate function decayed so
exploration re-learns its capacity, and weight ramps back
under the balancer's usual incremental bounds — a slow-start.

The recovery metrics the experiments report live in a
:class:`RecoveryLedger`, the one episode bookkeeper of both backends (the
process supervisor holds one too): per-episode time-to-quarantine
(anchored at the injected fault, which the injector reports to the
ledger) and time-to-reconverge (here: quarantine until the balancer's
weights hold still for ``STABLE_ROUNDS`` consecutive checks).
"""

from __future__ import annotations

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
#: Liveness monitor period in simulated seconds.
CHECK_INTERVAL = 0.25
#: Work-but-no-progress duration that declares a channel dead.
STALENESS_TIMEOUT = 1.0
#: Consecutive healthy heartbeats before a channel is reintegrated.
HEARTBEAT_CONFIRMATIONS = 2
#: Grace period before a skipped gap is marked lost at the merger.
SKIP_TIMEOUT = 1.0
#: Consecutive checks with (near-)unchanged weights = reconverged.
STABLE_ROUNDS = 5
#: Per-channel weight movement (in resolution units) still counted as
#: stable — the adaptive balancer's exploration decay jiggles weights
#: by a few units forever, which is noise, not reconvergence failure.
STABILITY_TOLERANCE = 8


@dataclass(slots=True)
class RecoveryConfig:
    """The gap policy of failover; building one checks the detection timings."""

    #: ``"replay"`` resends unacknowledged tuples to survivors; ``"skip"``
    #: declares them lost after :data:`SKIP_TIMEOUT`.
    gap_policy: str = "replay"

    def __post_init__(self) -> None:
        if self.gap_policy not in GAP_POLICIES:
            raise ValueError(
                f"unknown gap policy {self.gap_policy!r}; "
                f"choose from {GAP_POLICIES}"
            )
        # The detection timings are module constants: an edit that makes
        # one non-positive or non-finite is refused here.
        check_positive("CHECK_INTERVAL", CHECK_INTERVAL)
        check_positive("STALENESS_TIMEOUT", STALENESS_TIMEOUT)
        check_positive("HEARTBEAT_CONFIRMATIONS", HEARTBEAT_CONFIRMATIONS)
        check_positive("SKIP_TIMEOUT", SKIP_TIMEOUT)


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


class RecoveryLedger:
    """Every recovery episode of one region, from fault to settled weights.

    The one bookkeeper of both backends: the simulator's coordinator and
    the process supervisor each hold one. :meth:`note_fault` keeps a
    channel's ttq anchor until :meth:`open` takes it at the failover;
    :meth:`close` (reintegration) drops an anchor noted while the channel
    was out, so it cannot blame the next death; :meth:`settle` marks
    episodes reconverged. With a ``tracer``, the same timestamps make the
    ``detection``, ``quarantine`` and ``reconvergence`` spans, whose
    durations are therefore ttq, the time out of rotation, and ttr. Not
    thread-safe: the supervisor calls it under the region lock.
    """

    def __init__(self) -> None:
        #: Opened episodes, closed or not, in failover order.
        self.episodes: list[ChannelRecovery] = []
        #: Span recorder (None = not tracing).
        self.tracer = None
        self._anchors: dict[int, float] = {}
        self._out: dict[int, ChannelRecovery] = {}
        self._spans: dict[int, int] = {}

    @property
    def open_count(self) -> int:
        """Channels whose episode is open."""
        return len(self._out)

    def note_fault(self, channel: int, at: float) -> None:
        """An injected fault hit ``channel`` at ``at``: its next ttq anchor."""
        self._anchors[channel] = at

    def open(
        self,
        channel: int,
        at: float,
        *,
        replayed: int | None = None,
        lost: int = 0,
        **labels,
    ) -> ChannelRecovery:
        """Start ``channel``'s episode: it was failed over at ``at``.

        ``labels`` go on its spans next to the channel. A failover that
        knows its counts as it opens passes ``replayed`` and ``lost``;
        they also label the quarantine span.
        """
        episode = ChannelRecovery(
            channel, at, fault_at=self._anchors.pop(channel, None)
        )
        quarantine_labels = labels
        if replayed is not None:
            episode.replayed, episode.lost = replayed, lost
            quarantine_labels = {**labels, "replayed": replayed, "lost": lost}
        self.episodes.append(episode)
        self._out[channel] = episode
        if self.tracer is not None:
            if episode.fault_at is not None:
                self.tracer.record(
                    "detection", episode.fault_at, at,
                    channel=channel, **labels,
                )
            self._spans[channel] = self.tracer.start(
                "quarantine", at, channel=channel, **quarantine_labels
            )
        return episode

    def close(self, channel: int, at: float, *, settled: bool = False) -> None:
        """End ``channel``'s open episode: it was reintegrated at ``at``.

        ``settled``: the reintegration is the reconvergence too (the
        process backend's, where the slot serving again is the measure).
        """
        episode = self._out.pop(channel, None)
        if episode is None:
            return
        self._anchors.pop(channel, None)
        episode.reintegrated_at = at
        if channel in self._spans:
            self.tracer.finish(self._spans.pop(channel), at)
        if settled:
            self._settle(episode, at)

    def settle(self, at: float) -> None:
        """Weights settled at ``at``: every unsettled episode opened by
        then has reconverged."""
        for episode in self.episodes:
            if episode.reconverged_at is None and at >= episode.quarantined_at:
                self._settle(episode, at)

    def _settle(self, episode: ChannelRecovery, at: float) -> None:
        episode.reconverged_at = at
        if self.tracer is not None:
            self.tracer.record(
                "reconvergence", episode.quarantined_at, at,
                channel=episode.channel,
            )

    def time_to_quarantine(self) -> float | None:
        """Detection latency of the first fault-anchored episode (or None)."""
        latencies = (e.time_to_quarantine() for e in self.episodes)
        return next((t for t in latencies if t is not None), None)

    def time_to_reconverge(self) -> float | None:
        """Reconvergence time of the first episode that settled (or None)."""
        latencies = (e.time_to_reconverge() for e in self.episodes)
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
        self.config = config or RecoveryConfig()
        self.ledger = RecoveryLedger()
        if injector is not None:
            injector.on_fault = self.ledger.note_fault
        n = region.n_workers
        self._last_processed = [w.tuples_processed for w in region.workers]
        self._last_progress_time = [0.0] * n
        self._healthy_checks = [0] * n
        self._last_weights: list[int] | None = None
        self._stable_streak = 0
        self._cancel = None

    def attach_observability(self, hub) -> None:
        """Register recovery instruments and trace the ledger's episodes."""
        ledger = self.ledger
        ledger.tracer = hub.tracer
        registry = hub.registry
        registry.gauge_fn(
            "recovery_quarantines_total",
            lambda: len(ledger.episodes),
            help="Failover episodes opened",
        )
        registry.gauge_fn(
            "recovery_open_quarantines",
            lambda: ledger.open_count,
            help="Channels currently quarantined",
        )
        registry.gauge_fn(
            "recovery_tuples_lost_total",
            lambda: sum(e.lost for e in ledger.episodes),
            help="Sequence numbers declared lost at failover",
        )

    def start(self, first: float | None = None) -> None:
        """Begin the periodic liveness/heartbeat check."""
        if self._cancel is not None:
            raise RuntimeError("recovery coordinator already started")
        self._cancel = self.sim.call_every(
            CHECK_INTERVAL, self._check, start=first
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
                SKIP_TIMEOUT,
                lambda seqs=tuple(lost): region.merger.mark_lost(seqs),
            )
        episode = self.ledger.open(
            channel, now, replayed=replayed, lost=len(lost)
        )
        self._healthy_checks[channel] = 0
        self._stable_streak = 0
        self._last_weights = (
            self.balancer.weights if self.balancer is not None else None
        )
        return episode

    def reintegrate(self, channel: int) -> None:
        """Bring a quarantined ``channel`` back into rotation."""
        if self.balancer is not None:
            self.balancer.reintegrate(channel)
        self.region.restore_channel(channel)
        self.ledger.close(channel, self.sim.now)
        # Progress bookkeeping restarts fresh for the revived channel.
        self._last_processed[channel] = (
            self.region.workers[channel].tuples_processed
        )
        self._last_progress_time[channel] = self.sim.now
        self._stable_streak = 0

    # ------------------------------------------------------------- internal

    def _check(self) -> None:
        now = self.sim.now
        region = self.region
        splitter = region.splitter
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
            if has_work and now - self._last_progress_time[j] >= STALENESS_TIMEOUT:
                self.quarantine(j)
        self._track_reconvergence()

    def _heartbeat(self, channel: int, worker) -> None:
        healthy = worker.alive and not self.region.connections[channel].stalled
        if not healthy:
            self._healthy_checks[channel] = 0
            return
        self._healthy_checks[channel] += 1
        if self._healthy_checks[channel] >= HEARTBEAT_CONFIRMATIONS:
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
        if self._stable_streak >= STABLE_ROUNDS:
            self.ledger.settle(
                self.sim.now - self._stable_streak * CHECK_INTERVAL
            )
