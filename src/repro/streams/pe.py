"""Worker processing elements.

A worker PE is a *stateless* operator replica (Section 2: "stateless PEs
are pure functions"). It consumes tuples from its connection's receive
buffer one at a time; the service time of a tuple is

    cost_multiplies * load_multiplier / host.per_pe_speed()

``load_multiplier`` models the paper's "simulated external load" — e.g. a
value of 100 makes every tuple take 100x longer, exactly how the paper
loads half its PEs. It can change mid-run (the experiments remove the load
an eighth of the way through); the new value applies from the next tuple.

Fault support: a PE can **crash** (process dies; the tuple in service is
lost — it was never acknowledged, so the splitter's retransmit buffer
still holds it), be **halted** (quarantined by the recovery layer while
the process may still be up, e.g. after a connection stall), **restart**
(process back up, idle), and **resume** (reintegrated into the region).
A fault-tolerant PE schedules its completions on one heap cell it owns and
re-arms per service, so a crash can cancel the in-service completion;
plain PEs keep the engine's recycled, handle-less cells.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.streams.tuples import StreamTuple, TupleBlock
from repro.util.perf import BatchStats
from repro.util.validation import check_fraction, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.connection import SimulatedConnection
    from repro.sim.engine import Simulator
    from repro.streams.hosts import Host
    from repro.streams.merger import OrderedMerger


class WorkerPE:
    """One parallel worker in the data-parallel region."""

    def __init__(
        self,
        sim: "Simulator",
        pe_id: int,
        connection: "SimulatedConnection",
        host: "Host",
        merger: "OrderedMerger",
        *,
        load_multiplier: float = 1.0,
        service_jitter: float = 0.0,
        seed: int = 0,
        fault_tolerant: bool = False,
        batch_size: int = 1,
    ) -> None:
        check_positive("load_multiplier", load_multiplier)
        check_fraction("service_jitter", service_jitter)
        check_positive("batch_size", batch_size)
        self.sim = sim
        self.pe_id = pe_id
        self.connection = connection
        self.host = host
        self.merger = merger
        self._load_multiplier = float(load_multiplier)
        #: Relative service-time noise: each service is scaled by a
        #: uniform factor in ``[1 - j, 1 + j]``. The real cluster the
        #: paper measured has such noise everywhere (cache effects, OS
        #: scheduling); a perfectly deterministic simulator produces
        #: artifacts like a draft leader that never rotates at a 50/50
        #: split. Seeded, so runs stay reproducible.
        self.service_jitter = float(service_jitter)
        self._rng = random.Random((seed << 16) ^ (pe_id * 2_654_435_761))
        self._busy = False
        # One tuple is in service at a time (_busy guards), so the PE can
        # park it on self and schedule one prebound callback instead of a
        # fresh closure per tuple.
        # Per-tuple mode parks one StreamTuple; block mode parks the whole
        # in-service run as a list of TupleBlocks.
        self._in_service: StreamTuple | list[TupleBlock] | None = None
        self._complete_cb = self._complete
        #: Tuples fully processed by this PE.
        self.tuples_processed = 0
        #: Seconds this PE has spent servicing tuples.
        self.busy_seconds = 0.0
        #: Fault-tolerant mode: completions are cancellable so a crash can
        #: revoke the tuple in service.
        self.fault_tolerant = bool(fault_tolerant)
        #: Whether the PE process is up (heartbeat signal for recovery).
        self.alive = True
        #: Quarantined by the recovery layer: do not consume even if up.
        self._halted = False
        #: Fault-tolerant mode's completion: one heap cell this PE owns,
        #: re-armed for every service (``Simulator.repush``) and dropped
        #: when a revoke cancels it. ``None`` until the first service.
        self._cell: list | None = None
        #: Called ``(pe_id, seq)`` after a tuple is accepted by the merger
        #: — the acknowledgement the splitter's retransmit buffer consumes.
        self.on_processed = None
        #: Block-mode acknowledgement hook: called ``(pe_id, runs)`` once
        #: per completed service run, with the run's blocks in order.
        self.on_processed_run = None
        #: Batched fast path: service up to this many queued tuples with a
        #: single completion event (their service times still accrue per
        #: tuple). 1 = the per-tuple path, byte-identical to pre-batching.
        self.batch_size = int(batch_size)
        #: Realized service-run occupancy (batched mode only).
        self.service_stats = BatchStats()
        if self.batch_size > 1:
            # Instance attribute shadows the per-tuple method, so every
            # internal consumer (_on_deliver, restart, resume) takes the
            # block-native path without a per-call branch. Requires the
            # connection to be in block mode (the region wires both).
            self._start_next = self._start_next_run
            self._complete_run_cb = self._complete_run
            # The connection never swaps its buffers (fail/reset clear in
            # place), so the block-mode delivery/completion path reads the
            # receive occupancy straight off the RunBuffer instead of
            # paying a method call plus ``__len__`` per check.
            self._recv_runs = connection._recv_buffer
            self._take_runs = connection.take_runs
            connection.on_deliver = self._on_deliver_run
        else:
            connection.on_deliver = self._on_deliver
        host.place(self)

    @property
    def load_multiplier(self) -> float:
        """Current external-load cost multiplier."""
        return self._load_multiplier

    def set_load_multiplier(self, multiplier: float) -> None:
        """Change the external load; applies from the next tuple started."""
        check_positive("multiplier", multiplier)
        self._load_multiplier = float(multiplier)

    @property
    def busy(self) -> bool:
        """Whether a tuple is currently in service."""
        return self._busy

    def service_time(self, tup: StreamTuple) -> float:
        """Seconds this PE would take to process ``tup`` right now."""
        base = (
            tup.cost_multiplies
            * self._load_multiplier
            / self.host.per_pe_speed()
        )
        if self.service_jitter == 0.0:
            return base
        factor = 1.0 + self.service_jitter * (2.0 * self._rng.random() - 1.0)
        return base * factor

    # --------------------------------------------------------------- faults

    def crash(self) -> "StreamTuple | list[StreamTuple] | None":
        """Kill the PE process mid-run; returns what was in service.

        Per-tuple mode returns the single tuple whose service died; a
        batched PE returns the whole in-service run (oldest first). The
        revoked tuples were never acknowledged, so the splitter's
        retransmit buffer still holds them for replay. Requires
        ``fault_tolerant`` (plain regions have no cancellable completions).
        """
        self.alive = False
        return self._revoke_service()

    def halt(self) -> "StreamTuple | list[StreamTuple] | None":
        """Quarantine a (possibly still live) PE: stop consuming now.

        Used when the recovery layer fails a channel whose worker process
        may be fine (connection stall): the in-service tuple is revoked so
        its replay to a survivor cannot produce a duplicate emission.
        """
        self._halted = True
        return self._revoke_service()

    def restart(self) -> None:
        """The PE process is back up.

        If the channel was never failed over (a restart quicker than the
        liveness monitor's detection window), consumption resumes directly
        from the intact receive buffer; a quarantined PE stays halted
        until the recovery layer resumes it.
        """
        self.alive = True
        if (
            not self._halted
            and not self._busy
            and self.connection.recv_available() > 0
        ):
            self._start_next()

    def resume(self) -> None:
        """Reintegrate: start consuming again from the (reset) connection."""
        self._halted = False
        if self.alive and not self._busy and self.connection.recv_available() > 0:
            self._start_next()

    def _revoke_service(self) -> "StreamTuple | list[StreamTuple] | None":
        if not self.fault_tolerant:
            raise RuntimeError(
                f"PE {self.pe_id} is not fault-tolerant; build the region "
                "with RegionParams(fault_tolerant=True) to inject faults"
            )
        revoked = self._in_service
        self._in_service = None
        self._busy = False
        cell = self._cell
        if cell is not None:
            # A cancelled cell stays in the heap until popped, so it can
            # never be re-armed: the next service takes a fresh one.
            self._cell = None
            self.sim.cancel_cell(cell)
        return revoked

    def _arm_completion(self, duration: float, callback) -> None:
        """Schedule a fault-tolerant service's completion on the PE's cell.

        A fresh cell and a re-armed one each take one sequence number, as
        a fresh ``call_after`` event would, so event order is unchanged.
        """
        sim = self.sim
        if self._cell is None:
            self._cell = sim.new_cell(sim.now + duration, callback, self)
        else:
            sim.repush(self._cell, sim.now + duration)

    # ------------------------------------------------------------- internal

    def _on_deliver(self) -> None:
        if not self._busy and self.connection.recv_available() > 0:
            if self._halted or not self.alive:
                return
            self._start_next()

    def _on_deliver_run(self) -> None:
        if not self._busy and self._recv_runs._tuples > 0:
            if self._halted or not self.alive:
                return
            self._start_next_run()

    def _start_next(self) -> None:
        self._busy = True
        tup = self.connection.take()
        duration = self.service_time(tup)
        self.busy_seconds += duration
        self._in_service = tup
        if self.fault_tolerant:
            self._arm_completion(duration, self._complete_cb)
        else:
            self.sim.schedule_after(duration, self._complete_cb)

    def _complete(self) -> None:
        tup = self._in_service
        self._in_service = None
        self.tuples_processed += 1
        self.merger.accept(self.pe_id, tup)
        if self.on_processed is not None:
            self.on_processed(self.pe_id, tup.seq)
        if self._halted or not self.alive:
            self._busy = False
        elif self.connection.recv_available() > 0:
            self._start_next()
        else:
            self._busy = False

    # ---------------------------------------------------- batched fast path

    def _start_next_run(self) -> None:
        """Service a whole queued run of blocks with one completion event.

        The block-native path: a jitter-free PE charges each block's
        aggregate cost in one multiply (no per-tuple arithmetic at all);
        with jitter the per-tuple draws still happen in take order so the
        noise stream is independent of how tuples were grouped into
        blocks. Either way the simulator schedules one event per run.
        """
        self._busy = True
        runs = self._take_runs(self.batch_size)
        scale = self._load_multiplier / self.host.per_pe_speed()
        jitter = self.service_jitter
        duration = 0.0
        n = 0
        if jitter == 0.0:
            for block in runs:
                cost = block.cost
                if cost is not None:
                    # A uniform block's whole cost in one multiply.
                    duration += cost * block.count * scale
                else:
                    duration += sum(block.costs.tolist()) * scale
                n += block.count
        else:
            rng_random = self._rng.random
            for block in runs:
                n += block.count
                costs = block.costs
                if costs is None:
                    base = block.cost * scale
                    for _ in range(block.count):
                        duration += base * (
                            1.0 + jitter * (2.0 * rng_random() - 1.0)
                        )
                else:
                    for cost in costs:
                        duration += (cost * scale) * (
                            1.0 + jitter * (2.0 * rng_random() - 1.0)
                        )
        self.busy_seconds += duration
        self._in_service = runs
        stats = self.service_stats
        stats.batches += 1
        stats.tuples += n
        sim = self.sim
        sim.events_coalesced += n - 1
        if self.fault_tolerant:
            self._arm_completion(duration, self._complete_run_cb)
        else:
            sim.schedule_after(duration, self._complete_run_cb)

    def _complete_run(self) -> None:
        runs = self._in_service
        self._in_service = None
        processed = 0
        for block in runs:
            processed += block.count
        self.tuples_processed += processed
        self.merger.accept_runs(self.pe_id, runs)
        if self.on_processed_run is not None:
            self.on_processed_run(self.pe_id, runs)
        if self._halted or not self.alive:
            self._busy = False
        elif self._recv_runs._tuples > 0:
            self._start_next_run()
        else:
            self._busy = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WorkerPE(id={self.pe_id}, host={self.host.name!r}, "
            f"load={self._load_multiplier:g}, processed={self.tuples_processed})"
        )
