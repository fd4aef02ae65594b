"""The fault injector: applies scheduled faults to a live region.

Each public method models one physical failure as the rest of the region
would experience it:

* :meth:`FaultInjector.crash` — the PE process dies. The run in service
  is revoked and *redelivered* to the head of its receive queue (it was
  never acknowledged; if the channel is later failed over the replay path
  sweeps it up instead), and the connection stalls exactly the way a dead
  peer's TCP connection does: the splitter keeps landing tuples in the
  send buffer until it fills, then blocks.
* :meth:`FaultInjector.restart` — the process is back. A restart that
  beats the liveness monitor's detection resumes from the intact buffers
  (nothing was lost); a restart of an already-failed-over channel brings
  up a fresh transport and waits for the recovery layer to reintegrate.
* :meth:`FaultInjector.stall` / :meth:`FaultInjector.unstall` — the
  connection wedges / recovers (a flap); the worker process is fine.
* :meth:`FaultInjector.overload_burst` /
  :meth:`FaultInjector.end_overload_burst` — the offered arrival rate
  multiplies (the demand-side fault).

Every action is appended to :attr:`FaultInjector.log`. A crash or a
stall is also reported through :attr:`FaultInjector.on_fault`, which the
recovery coordinator points at its ledger: time-to-quarantine is
measured from the *fault*, not from the detection round that noticed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.streams.region import ParallelRegion


@dataclass(slots=True, frozen=True)
class FaultRecord:
    """One fault-related action, as it happened."""

    time: float
    kind: str
    channel: int | None = None
    detail: str = ""


class FaultInjector:
    """Applies faults to a :class:`~repro.streams.region.ParallelRegion`."""

    def __init__(self, sim: "Simulator", region: "ParallelRegion") -> None:
        if not region.params.fault_tolerant:
            raise ValueError(
                "fault injection requires RegionParams(fault_tolerant=True)"
            )
        self.sim = sim
        self.region = region
        #: Chronological record of every injected fault and recovery step.
        self.log: list[FaultRecord] = []
        #: Crash / restart / stall counts (diagnostics).
        self.crashes = 0
        self.restarts = 0
        self.stalls = 0
        #: ``(channel, time)`` callback for each crash and stall: the
        #: ttq anchor (None = nobody listens).
        self.on_fault = None
        #: Observability hub (None = not recording).
        self._obs = None

    def attach_observability(self, hub) -> None:
        """Register fault counters and mirror the log into ``hub``."""
        self._obs = hub
        registry = hub.registry
        registry.gauge_fn(
            "fault_crashes_total",
            lambda: self.crashes,
            help="PE crashes injected",
        )
        registry.gauge_fn(
            "fault_restarts_total",
            lambda: self.restarts,
            help="PE restarts injected",
        )
        registry.gauge_fn(
            "fault_stalls_total",
            lambda: self.stalls,
            help="Connection stalls injected",
        )

    @property
    def n_channels(self) -> int:
        """Width of the region under fault."""
        return self.region.n_workers

    # --------------------------------------------------------------- faults

    def crash(
        self, worker: int, restart_after: float | None = None
    ) -> None:
        """Kill PE ``worker`` now; optionally restart it after a delay."""
        pe = self.region.workers[worker]
        if not pe.alive:
            return
        revoked = pe.crash()
        connection = self.region.connections[worker]
        if revoked is not None:
            # The half-processed run goes back where it came from:
            # unacknowledged, so either the restarted PE re-services it or
            # the failover replay sends it to a survivor — never both.
            # Requeue it back to front so the head keeps the oldest tuple.
            for block in reversed(revoked):
                connection.requeue_front_run(block)
        connection.stall()
        self.crashes += 1
        self._record("crash", worker)
        if self.on_fault is not None:
            self.on_fault(worker, self.sim.now)
        if restart_after is not None:
            self.sim.call_after(restart_after, lambda: self.restart(worker))

    def restart(self, worker: int) -> None:
        """Bring PE ``worker``'s process back up."""
        pe = self.region.workers[worker]
        if pe.alive:
            return
        connection = self.region.connections[worker]
        if self.region.splitter.live[worker]:
            # Restarted before the liveness monitor failed the channel
            # over: the buffered tuples are intact, resume consuming them.
            pe.restart()
            connection.unstall()
        else:
            # Already failed over: fresh transport, empty buffers (the
            # unacknowledged tuples were replayed). No traffic arrives —
            # the channel is not live — until the recovery layer's
            # heartbeat notices the PE is back and reintegrates it.
            connection.reset()
            pe.restart()
        self.restarts += 1
        self._record("restart", worker)

    def stall(self, worker: int) -> None:
        """Wedge ``worker``'s connection (the PE itself is fine)."""
        self.region.connections[worker].stall()
        self.stalls += 1
        self._record("stall", worker)
        if self.on_fault is not None:
            self.on_fault(worker, self.sim.now)

    def unstall(self, worker: int) -> None:
        """Recover ``worker``'s connection from a stall."""
        self.region.connections[worker].unstall()
        self._record("unstall", worker)

    def overload_burst(self, factor: float) -> None:
        """Multiply the offered arrival rate by ``factor`` (burst start).

        The demand-side fault: nothing inside the region breaks, but the
        open-loop source now offers ``factor`` times the load. Requires a
        :class:`~repro.streams.sources.RatedSource` at the front.
        """
        check_positive("factor", factor)
        self._rated_source().scale_rate(factor)
        self._record("overload", None, detail=f"x{factor:g}")

    def end_overload_burst(self, factor: float) -> None:
        """Undo a previous :meth:`overload_burst` of the same ``factor``."""
        check_positive("factor", factor)
        self._rated_source().scale_rate(1.0 / factor)
        self._record("overload_end", None, detail=f"/{factor:g}")

    # ------------------------------------------------------------- internal

    def _rated_source(self):
        source = self.region.splitter.source
        if not hasattr(source, "scale_rate"):
            raise ValueError(
                "overload bursts require an open-loop RatedSource at the "
                "region's front (set ExperimentConfig.arrival_rate)"
            )
        return source

    def _record(
        self, kind: str, channel: int | None, detail: str = ""
    ) -> None:
        self.log.append(
            FaultRecord(self.sim.now, kind, channel, detail)
        )
        if self._obs is not None:
            self._obs.event(
                "fault",
                kind=kind,
                channel=-1 if channel is None else channel,
                detail=detail,
            )
