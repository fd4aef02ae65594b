"""The single-threaded splitter at the front of a parallel region.

The splitter routes each tuple to one worker connection according to a
routing policy, and — crucially — it *elects to block* when the chosen
connection cannot accept the tuple (Section 4.4): it detects would-block
with a non-blocking send, parks on that connection, and charges the wait to
the connection's blocking counter. Having a single thread of control is
what produces drafting (Section 4.2): while the splitter is parked on one
connection, every other connection drains, so the same "draft leader"
tends to absorb all observed blocking.

Policies that set ``allows_reroute`` get the Section 4.4 transport-level
re-routing behaviour instead: on would-block the tuple is offered to
alternate connections, and the splitter blocks only when *every* buffer is
full. The paper shows why that baseline fails; we reproduce the failure.
Re-routing is per tuple: such a policy is refused on the block path.

Two paths, one rule
-------------------

The splitter runs one of two send loops, chosen by its connections'
``block_mode`` (which :class:`~repro.streams.region.ParallelRegion` sets
for ``batch_size > 1`` or fault tolerance). The **per-tuple** loop serves
plain ``batch_size = 1`` regions: one tuple, one ``next_connection``
pick, one send. The **block** loop pulls up to ``batch_size`` tuples as
:class:`~repro.streams.tuples.TupleBlock` columns, apportions them with
one ``allocate_batch`` call and pushes each connection's share. A batch of
one is exactly a per-tuple step: ``allocate_batch(1)`` is the
``next_connection`` pick and the cycle schedules the same events.

Failure recovery (fault-tolerant mode, block loop only)
-------------------------------------------------------

The paper assumes workers slow down but never die; a crashed PE would park
the splitter forever and deadlock the ordered merger on the lost sequence
numbers. In fault-tolerant mode the splitter therefore keeps a
**retransmit buffer** of in-flight (sent but unacknowledged) blocks per
connection, and never evicts from it: the connection's bounded buffers
already stop the splitter long before the buffer could grow without
bound. A worker acknowledges each service run once it has processed it.
When the recovery layer declares a channel dead, :meth:`fail_channel`

* takes the dead channel's undelivered share of the current batch back to
  the head of the replay queue, un-parking the splitter if it was blocked
  on that channel (charging the real blocking time),
* marks the channel non-live so no apportionment can land on it (its
  share is redirected to the cyclically-next live channel and counted in
  ``fault_reroutes``),
* queues the channel's unacknowledged tuples for **replay** to survivors
  (the default gap policy), or hands their sequence numbers back to the
  caller for a bounded-timeout **skip** at the merger.

Replayed tuples retain their original sequence numbers and birth stamps,
so sequential semantics and latency accounting survive the failure: the
merger still emits every tuple exactly once, in order.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.util.perf import BatchStats
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Iterable

    from repro.net.connection import SimulatedConnection
    from repro.sim.engine import Simulator
    from repro.streams.sources import TupleSource
    from repro.streams.tuples import StreamTuple, TupleBlock


class RegionStalledError(RuntimeError):
    """The region can make no progress: every channel is dead.

    Raised by :meth:`Splitter.fail_channel` when failing a channel would
    leave no live survivor to carry traffic (pass ``allow_stall=True``
    when a recovery layer will restore one later), and by the process
    region when no worker accepts a tuple or a drain misses its deadline.
    """


@runtime_checkable
class RoutingPolicy(Protocol):
    """What the splitter needs from a routing policy.

    Implementations live in :mod:`repro.core.policies`.
    """

    #: Whether the splitter should try alternate connections on would-block.
    allows_reroute: bool

    def next_connection(self) -> int:
        """Connection index for the next tuple."""

    def reroute_candidates(self, blocked: int) -> "Iterable[int]":
        """Alternate connections to try when ``blocked`` is full."""

    def allocate_batch(self, count: int) -> list[int]:
        """Per-connection tuple counts for the next ``count`` tuples."""


class Splitter:
    """Routes the ordered tuple stream across the worker connections."""

    def __init__(
        self,
        sim: "Simulator",
        source: "TupleSource",
        connections: list["SimulatedConnection"],
        policy: RoutingPolicy,
        *,
        send_overhead: float = 1e-5,
        fault_tolerant: bool = False,
        batch_size: int = 1,
    ) -> None:
        if not connections:
            raise ValueError("splitter needs at least one connection")
        check_positive("send_overhead", send_overhead)
        check_positive("batch_size", batch_size)
        block_mode = connections[0].block_mode
        if fault_tolerant and not block_mode:
            raise ValueError(
                "fault tolerance runs the block path: build the "
                "connections with block_mode=True"
            )
        if policy.allows_reroute and block_mode:
            raise ValueError(
                "re-routing is a per-tuple behaviour: a policy with "
                "allows_reroute needs batch_size=1 and no fault tolerance"
            )
        self.sim = sim
        self.source = source
        self.connections = connections
        self.policy = policy
        self.send_overhead = float(send_overhead)
        #: Tuples sent per connection (by where they actually went).
        self.sent_per_connection = [0] * len(connections)
        #: Tuples sent to a different connection than the policy chose.
        self.rerouted = 0
        #: Total blocking episodes across all connections.
        self.block_events = 0
        #: True once the source is drained and the last tuple sent.
        self.finished = False
        #: Which channels are currently live (all, until a failure).
        self.live = [True] * len(connections)
        #: Tuples queued for replay after a channel failure.
        self.tuples_replayed = 0
        #: Policy picks redirected away from a dead channel.
        self.fault_reroutes = 0
        #: Simulated seconds spent paused by merger flow control.
        self.flow_paused_seconds = 0.0
        #: Per-tuple loop: the tuple parked on a full connection.
        self._pending: "StreamTuple | None" = None
        #: The connection either loop is parked on (``None`` otherwise).
        self._target: int | None = None
        self._block_start: float | None = None
        self._started = False
        self._parked_no_live = False
        #: Parked because an open-loop source is between arrivals.
        self._parked_idle = False
        #: Merger->splitter backpressure gate (overload protection only).
        self._flow_gate = None
        self._parked_flow = False
        self._flow_park_start: float | None = None
        #: Replay queue of TupleBlocks, consumed before the source.
        self._replay: "deque[TupleBlock]" = deque()
        #: Per-connection sent-but-unacknowledged blocks (FIFO in send
        #: order, which is also each worker's processing order).
        self._inflight: "list[deque[TupleBlock]] | None" = (
            [deque() for _ in connections] if fault_tolerant else None
        )
        #: Tuples (not blocks) in each connection's retransmit buffer.
        self._inflight_tuples: "list[int] | None" = (
            [0] * len(connections) if fault_tolerant else None
        )
        #: Block loop: pull up to this many tuples per dispatch cycle,
        #: apportion them with one policy call, and push each
        #: connection's share with one bulk send.
        self.batch_size = int(batch_size)
        #: Realized dispatch-batch occupancy (batched mode only).
        self.dispatch_stats = BatchStats()
        #: Apportioned pieces of the batch not yet delivered, in send
        #: order: ``(connection, block)``. While the splitter is parked on
        #: a full connection, the head piece is the one waiting.
        self._chunks: "deque[tuple[int, TupleBlock]]" = deque()
        self._batch_tuple_count = 0
        #: Connection the current batch's head run goes to, advanced per
        #: batch so head-of-line duty at the ordered merger rotates.
        self._batch_rotation = 0
        # Prebound once: the send loop is scheduled per tuple (or per
        # batch), and rebinding the method per send is measurable on the
        # hot path.
        self._try_send_cb = (
            self._try_send_batch if block_mode else self._try_send
        )
        #: Observability hub (None = not recording). Checked only on
        #: episodic branches — blocking, flow pauses, the end of a
        #: dispatch cycle — never per tuple. Only a cycle that waited
        #: records a ``batch_dispatch`` span.
        self._obs = None
        self._block_hist = None
        self._block_span = -1
        self._batch_span = -1
        self._flow_span = -1

    @property
    def tuples_sent(self) -> int:
        """Total tuples pushed into connections so far."""
        return sum(self.sent_per_connection)

    def attach_observability(self, hub) -> None:
        """Register instruments and start recording episode spans."""
        self._obs = hub
        registry = hub.registry
        self._block_hist = registry.histogram(
            "splitter_blocking_seconds",
            help="Per-episode splitter blocking durations",
        )
        registry.gauge_fn(
            "splitter_tuples_sent_total",
            lambda: self.tuples_sent,
            help="Tuples pushed into connections",
        )
        for j in range(len(self.connections)):
            registry.gauge_fn(
                "splitter_connection_tuples_sent_total",
                (lambda jj: lambda: self.sent_per_connection[jj])(j),
                help="Tuples pushed into one connection",
                connection=str(j),
            )
        registry.gauge_fn(
            "splitter_block_events_total",
            lambda: self.block_events,
            help="Blocking episodes across all connections",
        )
        registry.gauge_fn(
            "splitter_rerouted_total",
            lambda: self.rerouted,
            help="Tuples re-routed away from the policy's pick",
        )
        registry.gauge_fn(
            "splitter_fault_reroutes_total",
            lambda: self.fault_reroutes,
            help="Policy picks redirected away from a dead channel",
        )
        registry.gauge_fn(
            "splitter_tuples_replayed_total",
            lambda: self.tuples_replayed,
            help="Tuples queued for replay after channel failures",
        )
        registry.gauge_fn(
            "splitter_flow_paused_seconds",
            lambda: self.flow_paused_seconds,
            help="Seconds paused by merger flow control",
        )
        registry.gauge_fn(
            "splitter_batches_dispatched_total",
            lambda: self.dispatch_stats.batches,
            help="Batched dispatch cycles completed",
        )
        registry.gauge_fn(
            "splitter_batch_mean_occupancy",
            lambda: self.dispatch_stats.mean_occupancy,
            help="Mean tuples per dispatched batch",
        )

    def start(self, at: float = 0.0) -> None:
        """Begin the send loop at simulated time ``at``."""
        if self._started:
            raise RuntimeError("splitter already started")
        self._started = True
        self.sim.call_at(at, self._try_send_cb)

    # ------------------------------------------------- overload protection

    def attach_flow_gate(self, gate) -> None:
        """Install a merger->splitter backpressure gate.

        While the gate is paused the splitter stops *pulling* new tuples
        (a tuple already pending is still delivered — pausing mid-send
        would strand it); the gate's resume edge restarts the loop.
        """
        self._flow_gate = gate
        gate.on_resume = self._flow_resumed

    def notify_available(self) -> None:
        """Wake a splitter parked on an idle (between-arrivals) source."""
        if self._parked_idle:
            self._parked_idle = False
            self.sim.schedule_after(0.0, self._try_send_cb)

    def _flow_resumed(self) -> None:
        # A failover may have woken the splitter mid-pause to send its
        # replay; the pause still ends here, on the gate's resume edge.
        if self._flow_park_start is not None:
            self.flow_paused_seconds += self.sim.now - self._flow_park_start
            self._flow_park_start = None
            if self._obs is not None and self._flow_span >= 0:
                self._obs.tracer.finish(self._flow_span, self.sim.now)
                self._flow_span = -1
        if self._parked_flow:
            self._parked_flow = False
            self.sim.schedule_after(0.0, self._try_send_cb)

    # ------------------------------------------------------------- recovery

    def blocked_on(self) -> int | None:
        """Connection the splitter is parked on, or ``None`` if not blocked."""
        return self._target if self._block_start is not None else None

    def inflight_count(self, connection: int) -> int:
        """Unacknowledged tuples currently charged to ``connection``."""
        if self._inflight_tuples is None:
            return 0
        return self._inflight_tuples[connection]

    def acknowledge_runs(
        self, connection: int, runs: "list[TupleBlock]"
    ) -> None:
        """Retire one completed service run's blocks.

        The worker acknowledges each service run once, its blocks in
        processing order. The retransmit buffer holds blocks split at
        send-accept boundaries, so one run may retire several front
        blocks, or only part of one (whose unacked tail is cut off and
        retained).
        """
        buffer = self._inflight[connection]
        retired = 0
        for block in runs:
            seq = block.start
            end = seq + block.count
            while seq < end:
                if not buffer or buffer[0].start != seq:
                    raise RuntimeError(
                        f"ack for seq {seq} does not match connection "
                        f"{connection}'s retransmit buffer (front: "
                        f"{buffer[0].start if buffer else 'empty'})"
                    )
                front = buffer[0]
                front_end = seq + front.count
                if front_end > end:
                    buffer[0] = front.cut(end - seq, front_end - end)
                    break
                buffer.popleft()
                seq = front_end
            retired += block.count
        self._inflight_tuples[connection] -= retired

    def fail_channel(
        self, channel: int, *, replay: bool = True, allow_stall: bool = False
    ) -> tuple[int, list[int]]:
        """Declare ``channel`` dead and recover its in-flight tuples.

        Returns ``(replayed, lost_seqs)``: how many unacknowledged tuples
        were queued for replay to survivors, and the sequence numbers that
        will not be replayed — empty unless ``replay=False`` (the *skip*
        gap policy), which gives up every unacknowledged tuple. The caller
        routes ``lost_seqs`` to
        :meth:`~repro.streams.merger.OrderedMerger.mark_lost` so the merger
        never waits forever on them.

        Failing the *last* live channel raises
        :class:`RegionStalledError` before any state changes: without a
        survivor there is nowhere to replay and the splitter would park
        forever with no prospect of waking. A recovery layer that will
        restore a channel later (so the park is temporary) passes
        ``allow_stall=True`` to opt in.

        The dead channel's transport is untouched here; callers that want
        the buffers dropped use
        :meth:`~repro.streams.region.ParallelRegion.fail_channel`, which
        also halts the worker and fails the connection.
        """
        if self._inflight is None:
            raise RuntimeError(
                "fail_channel requires a fault-tolerant splitter "
                "(RegionParams(fault_tolerant=True))"
            )
        if not self.live[channel]:
            return (0, [])
        if not allow_stall and sum(self.live) <= 1:
            raise RegionStalledError(
                f"failing channel {channel} leaves no live channel: the "
                "region is stalled. Restore another channel first, or pass "
                "allow_stall=True if a recovery layer will restore one "
                "later."
            )
        self.live[channel] = False
        self._reclaim_chunks(channel)

        unacked = self._inflight[channel]
        lost: list[int] = []
        replayed = 0
        if replay:
            replayed = self._inflight_tuples[channel]
            self.tuples_replayed += replayed
            self._replay.extend(unacked)
        else:
            for block in unacked:
                lost.extend(range(block.start, block.end))
        unacked.clear()
        self._inflight_tuples[channel] = 0
        if replayed and self.finished:
            # The source had drained but replay revives the send loop.
            self.finished = False
            self.sim.schedule_after(0.0, self._try_send_cb)
        elif replayed and (self._parked_idle or self._parked_flow):
            # Parked between arrivals of an open-loop source, or on the
            # merger's flow gate: the replay queue has work now, so wake
            # up rather than wait for the next arrival (which may never
            # come) or the gate's resume (which waits on these very
            # tuples). Clearing the flag keeps that resume edge from
            # starting a second send loop.
            self._parked_idle = False
            self._parked_flow = False
            self.sim.schedule_after(0.0, self._try_send_cb)
        return (replayed, lost)

    def restore_channel(self, channel: int) -> None:
        """Mark a recovered ``channel`` live again.

        The caller is responsible for having reset the transport; routing
        resumes the next time the policy picks the channel.
        """
        if self.live[channel]:
            return
        self.live[channel] = True
        if self._parked_no_live:
            self._parked_no_live = False
            self.sim.schedule_after(0.0, self._try_send_cb)

    # ------------------------------------------------------------- internal

    def _try_send(self) -> None:
        gate = self._flow_gate
        if gate is not None and gate.paused:
            self._park_flow()
            return
        tup = self.source.next_tuple()
        if tup is None:
            self._park_drained()
            return
        if tup.born_at is None:
            tup.born_at = self.sim.now
        target = self.policy.next_connection()
        if not 0 <= target < len(self.connections):
            raise ValueError(f"policy routed to invalid connection {target}")
        if self.connections[target].send_nowait(tup):
            self._sent(target)
            return

        if self.policy.allows_reroute:
            for alt in self.policy.reroute_candidates(target):
                if alt != target and self.connections[alt].send_nowait(tup):
                    self.rerouted += 1
                    self._sent(alt)
                    return

        # Elect to block on the originally chosen connection, recording for
        # how long (the MSG_DONTWAIT + select dance of Section 3).
        self._pending = tup
        self._target = target
        self._begin_block(target)
        self.connections[target].wait_for_send_space(self._on_send_space)

    def _park_flow(self) -> None:
        """Merger backpressure: hold off before pulling more tuples.

        The gate's resume edge restarts the loop.
        """
        self._parked_flow = True
        if self._flow_park_start is None:
            self._flow_park_start = self.sim.now
            if self._obs is not None:
                self._flow_span = self._obs.tracer.start(
                    "flow_pause", self._flow_park_start
                )

    def _park_drained(self) -> None:
        """The source returned nothing: park idle, or finish.

        An open-loop source between arrivals parks the splitter until
        :meth:`notify_available` wakes it; an exhausted one finishes it.
        """
        if self.source.idle():
            self._parked_idle = True
        else:
            self.finished = True

    def _live_alternative(self, dead: int) -> int | None:
        """The cyclically-next live channel after ``dead`` (or ``None``)."""
        n = len(self.connections)
        for offset in range(1, n):
            candidate = (dead + offset) % n
            if self.live[candidate]:
                return candidate
        return None

    def _begin_block(self, target: int) -> None:
        """Open a blocking episode on ``target`` (span + counters)."""
        self.block_events += 1
        self._block_start = self.sim.now
        obs = self._obs
        if obs is not None:
            self._block_span = obs.tracer.start(
                "blocking", self._block_start, connection=target
            )

    def _end_block(self, target: int) -> None:
        """Close the open blocking episode, charging ``target``."""
        blocked = self.sim.now - self._block_start
        self._block_start = None
        self.connections[target].blocking.add(blocked)
        obs = self._obs
        if obs is not None:
            self._block_hist.observe(blocked)
            if self._block_span >= 0:
                obs.tracer.finish(self._block_span, self.sim.now)
                self._block_span = -1

    def _on_send_space(self) -> None:
        target = self._target
        assert target is not None and self._block_start is not None
        self._end_block(target)
        sent = self.connections[target].send_nowait(self._pending)
        if not sent:  # pragma: no cover - wakeup guarantees space
            raise RuntimeError("woken without send space")
        self._sent(target)

    def _sent(self, connection: int) -> None:
        self.sent_per_connection[connection] += 1
        self.sim.schedule_after(self.send_overhead, self._try_send_cb)

    # ------------------------------------------------------------ block loop

    def _try_send_batch(self) -> None:
        """Block-native dispatch cycle: pull, apportion, and push runs.

        One cycle pulls up to ``batch_size`` tuples as contiguous
        :class:`~repro.streams.tuples.TupleBlock` columns (replay queue
        first), apportions them across connections with a single policy
        call, and pushes the pieces in order. The per-tuple send cost
        still accrues — the cycle ends by sleeping ``send_overhead *
        batch`` in one event — and blocking is charged per episode to the
        connection that filled up, so the blocking-rate samples the
        balancer reads keep their meaning (at batch, rather than tuple,
        granularity). A cycle parked on a full connection resumes here
        with the undelivered pieces still queued.
        """
        chunks = self._chunks
        if not chunks and not self._pull_batch():
            return  # parked (flow/idle/no-live) or finished
        connections = self.connections
        sent_per = self.sent_per_connection
        inflight = self._inflight
        inflight_tuples = self._inflight_tuples
        while chunks:
            target, block = chunks[0]
            accepted = connections[target].send_run(block)
            if accepted == block.count:
                chunks.popleft()
            elif accepted:
                # Partial accept: the bulk send's own flow-control pump
                # may have drained tuples onward and freed send space;
                # split at the accepted boundary and retry the tail
                # before electing to block.
                block, tail = block.split(accepted)
                chunks[0] = (target, tail)
            else:
                # Elect to block on this connection until it has space
                # (the MSG_DONTWAIT + select dance of Section 3, once per
                # full buffer instead of once per tuple).
                self._target = target
                obs = self._obs
                if obs is not None and self._batch_span < 0:
                    # The cycle's first wait opens its span. That wait
                    # comes in the callback that pulled the batch, so the
                    # span starts at the cycle's start, in its round.
                    self._batch_span = obs.tracer.start(
                        "batch_dispatch",
                        self.sim.now,
                        tuples=self._batch_tuple_count,
                    )
                self._begin_block(target)
                connections[target].wait_for_send_space(
                    self._on_send_space_batch
                )
                return
            sent_per[target] += accepted
            if inflight is not None:
                inflight[target].append(block)
                inflight_tuples[target] += accepted
        # Batch fully dispatched: charge the per-tuple send cost in one
        # event and record the realized occupancy.
        n = self._batch_tuple_count
        self._batch_tuple_count = 0
        stats = self.dispatch_stats
        stats.batches += 1
        stats.tuples += n
        self.sim.events_coalesced += n - 1
        obs = self._obs
        if obs is not None and self._batch_span >= 0:
            obs.tracer.finish(self._batch_span, self.sim.now)
            self._batch_span = -1
        self.sim.schedule_after(self.send_overhead * n, self._try_send_cb)

    def _pull_batch(self) -> bool:
        """Pull and apportion the next batch; ``False`` = parked/finished.

        While the flow gate is paused only the replay queue is sent: those
        tuples are already sequenced, and the merger drains on them.
        """
        gate = self._flow_gate
        replay = self._replay
        paused = gate is not None and gate.paused
        if paused and not replay:
            self._park_flow()
            return False
        limit = self.batch_size
        if not replay:
            # Steady state: no replayed blocks queued, so the batch is one
            # contiguous pull from the source.
            block = self.source.next_block(limit)
            if block is None:
                self._park_drained()
                return False
            if block.born is None and block.borns is None:
                block.born = self.sim.now
            return self._apportion([block], block.count)
        blocks: "list[TupleBlock]" = []
        total = 0
        while replay and total < limit:
            block = replay[0]
            if total + block.count <= limit:
                replay.popleft()
            else:
                block, tail = block.split(limit - total)
                replay[0] = tail
            blocks.append(block)
            total += block.count
        if total < limit and not paused:
            block = self.source.next_block(limit - total)
            if block is not None:
                blocks.append(block)
                total += block.count
        if not blocks:
            self._park_drained()
            return False
        now = self.sim.now
        for block in blocks:
            if block.born is None and block.borns is None:
                block.born = now
        return self._apportion(blocks, total)

    def _apportion(self, blocks: "list[TupleBlock]", total: int) -> bool:
        """Carve the pulled blocks into per-connection runs by weight."""
        n = len(self.connections)
        alloc = self.policy.allocate_batch(total)
        if len(alloc) != n or sum(alloc) != total or min(alloc) < 0:
            raise ValueError(
                f"policy allocated {alloc} for a batch of "
                f"{total} tuples over {n} connections"
            )
        if not all(self.live):
            for j in range(n):
                if alloc[j] and not self.live[j]:
                    alt = self._live_alternative(j)
                    if alt is None:
                        # Every channel is dead: stash the batch back and
                        # park until one is restored.
                        self._replay.extendleft(reversed(blocks))
                        self._parked_no_live = True
                        return False
                    self.fault_reroutes += alloc[j]
                    alloc[alt] += alloc[j]
                    alloc[j] = 0
        self._batch_tuple_count = total
        start = self._batch_rotation
        self._batch_rotation = (start + 1) % n
        chunks = self._chunks
        # Walk the pulled blocks once, cutting only at share boundaries:
        # each connection's share stays a handful of column blocks however
        # large the batch, and each piece is one new block (or the pulled
        # block itself when a share takes all of it).
        block_i = 0
        n_blocks = len(blocks)
        current = blocks[0]
        offset = 0  # tuples of ``current`` already handed out
        for k in range(n):
            j = (start + k) % n
            count = alloc[j]
            while count:
                left = current.count - offset
                if left > count:
                    chunks.append((j, current.cut(offset, count)))
                    offset += count
                    break
                chunks.append(
                    (j, current.cut(offset, left) if offset else current)
                )
                count -= left
                block_i += 1
                if block_i == n_blocks:
                    # The shares sum to the batch: every tuple is carved.
                    return True
                current = blocks[block_i]
                offset = 0
        return True

    def _on_send_space_batch(self) -> None:
        target = self._target
        assert target is not None and self._block_start is not None
        self._end_block(target)
        self._target = None
        self._try_send_batch()

    def _reclaim_chunks(self, channel: int) -> None:
        """Take ``channel``'s undelivered share of the batch back.

        After a channel failure its undelivered chunk blocks go back to
        the head of the replay queue, to be re-apportioned over the live
        channels on a later cycle; the other channels' chunks stay where
        they are. A splitter parked on the dead channel is un-parked with
        its elapsed blocking charged (the wait really happened); one
        parked on a live channel stays parked. A batch left with nothing
        to deliver ends as an aborted ``batch_dispatch`` span: a cycle
        with undelivered pieces has waited, so its span is open.
        """
        reclaimed: "list[TupleBlock]" = []
        if self._block_start is not None and self._target == channel:
            # Parked on the dead channel: the wait would never end.
            self.connections[channel].cancel_wait()
            self._end_block(channel)
            self._target = None
            self.sim.schedule_after(0.0, self._try_send_cb)
        chunks = self._chunks
        for _ in range(len(chunks)):
            target, block = chunks.popleft()
            if target == channel:
                reclaimed.append(block)
            else:
                chunks.append((target, block))
        if not reclaimed:
            return
        self._batch_tuple_count -= sum(block.count for block in reclaimed)
        if not self._batch_tuple_count:
            obs = self._obs
            if obs is not None and self._batch_span >= 0:
                obs.tracer.finish(self._batch_span, self.sim.now, aborted=True)
                self._batch_span = -1
        self._replay.extendleft(reversed(reclaimed))
