"""Lightweight performance counters for the simulator and model layer.

Two kinds of instrumentation, both cheap enough to stay on permanently:

* :class:`PerfCounters` — an immutable snapshot of one simulator's event
  statistics, assembled on demand by :attr:`repro.sim.engine.Simulator.perf`
  from plain integer attributes (no per-event overhead beyond the existing
  ``events_processed`` increment).
* :data:`COUNTERS` — process-global tallies for the model layer (RAP solver
  invocations, rate-function fits and table builds). The solvers and
  :class:`~repro.core.rate_function.BlockingRateFunction` bump these on
  every call; benches read them to report solver calls per second and to
  verify caching actually short-circuits work.

``COUNTERS`` is per-process: parallel sweep workers each count their own
work. Call :func:`reset_counters` at the start of a measurement window.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True, slots=True)
class PerfCounters:
    """Snapshot of one simulator's event-engine statistics."""

    #: Events fired by the run loop.
    events_processed: int
    #: Events ever scheduled (fired + cancelled + still queued).
    events_scheduled: int
    #: Events cancelled before firing.
    events_cancelled: int
    #: Heap rebuilds triggered by cancelled-entry pile-up.
    heap_compactions: int
    #: Events currently scheduled and live.
    live_events: int
    #: Per-tuple events the batched dataplane avoided scheduling: a batch
    #: of ``k`` tuples handled by one event chain contributes ``k - 1``.
    events_coalesced: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form for JSON reports."""
        return asdict(self)


@dataclass(slots=True)
class BatchStats:
    """Occupancy tally for one batched stage (splitter dispatch, worker runs).

    ``record(n)`` per batch; ``mean_occupancy`` is the average tuples per
    batch actually realized — the amortization factor the batched fast
    path achieves, as opposed to the configured ``batch_size`` ceiling
    (early in a run, or when the pipeline runs dry, batches are smaller).
    """

    #: Batches processed.
    batches: int = 0
    #: Tuples carried by those batches.
    tuples: int = 0

    def record(self, n: int) -> None:
        self.batches += 1
        self.tuples += n

    @property
    def mean_occupancy(self) -> float:
        """Average tuples per batch (0.0 before the first batch)."""
        return self.tuples / self.batches if self.batches else 0.0

    def as_dict(self) -> dict[str, float]:
        out = asdict(self)
        out["mean_occupancy"] = self.mean_occupancy
        return out


@dataclass(slots=True)
class ModelCounters:
    """Process-global model-layer work tallies (mutable, additive)."""

    #: Minimax RAP solver invocations (any algorithm).
    solver_calls: int = 0
    #: Monotone-regression fits of a blocking rate function.
    fits: int = 0
    #: Full ``[F(0)..F(R)]`` table materializations.
    table_builds: int = 0

    def reset(self) -> None:
        self.solver_calls = 0
        self.fits = 0
        self.table_builds = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


#: The process-global model-layer counters.
COUNTERS = ModelCounters()


def reset_counters() -> None:
    """Zero the process-global model-layer counters."""
    COUNTERS.reset()
