"""Integration tests for the multi-process dataplane.

Every test here spawns real worker processes and kills some of them with
real signals. They are the acceptance tests for the process backend:

* ordered, gap-free, exactly-once output on the happy path;
* a deterministic SIGKILL mid-batch with recovery (retransmit replay,
  supervised restart, ttq/ttr episodes, detection/quarantine/restart
  spans in the observability export);
* SIGSTOP detected via missed heartbeats on the data channel;
* a crash-looping worker tripping the restart-budget circuit breaker
  while the survivors still finish the run;
* repeated SIGKILLs (the CI ``process-chaos`` job's smoke case).

The flush-rule, wake-up, send-blocking and receiver-list classes at the
end use no processes at all: :class:`tests.proc.fakewire.FakeWire` plays
the workers over socketpairs, so what is on the wire is an exact question.

Everything is bounded by internal deadlines (``drain(timeout=...)``), so
a hung dataplane fails the assertion instead of hanging pytest.
"""

import os
import select
import signal
import socket
import threading
import time

import pytest

from repro.faults.recovery import first_time_to_reconverge
from repro.faults.schedule import FaultSchedule
from repro.net import framing
from repro.obs.hub import ObservabilityConfig, ObservabilityHub
from repro.proc.faults import RealFaultDriver
from repro.proc.region import ProcessRegion, send_measured
from repro.proc.supervisor import (
    DRAIN_TIMEOUT,
    QUARANTINED,
    STARTING,
    UP,
    SupervisorConfig,
)
from tests.proc.fakewire import FakeWire

pytestmark = pytest.mark.sockets

# Fast supervision for tests: tight heartbeats, quick restarts.
FAST = SupervisorConfig(
    heartbeat_interval=0.02,
    heartbeat_timeout=0.25,
    monitor_interval=0.01,
    backoff_start=0.02,
    backoff_max=0.1,
    restart_budget=5,
    restart_window=30.0,
)


def run_region(
    region, costs, *, bodies=None, timeout=30.0, schedule=None, ready=False
):
    """Run ``region`` to completion with an optional real-fault schedule.

    ``ready=True`` waits for every worker before the first submit, so
    the load spreads evenly from tuple 0 (otherwise the first worker up
    takes a whole window and the rest idle behind its backpressure).
    """
    driver = None
    outputs = None
    try:
        region.start()
        if ready:
            region.wait_ready(timeout=30.0)
        if schedule is not None:
            driver = RealFaultDriver(region, poll_interval=0.002)
            schedule.arm_real(driver)
            driver.start()
        stats = region.run(costs, bodies=bodies, timeout=timeout)
        outputs = list(region.outputs)
    finally:
        if driver is not None:
            driver.stop()
        region.close()
    return stats, outputs


def expect_ordered(outputs, n, make_body=None):
    """Assert gap-free, duplicate-free, ordered output of ``n`` tuples."""
    assert [seq for seq, _ in outputs] == list(range(n))
    if make_body is not None:
        assert [body for _, body in outputs] == [make_body(i) for i in range(n)]


class TestHappyPath:
    def test_ordered_gap_free_output(self):
        region = ProcessRegion(3, supervisor_config=FAST, window=16)
        n = 120
        stats, outputs = run_region(
            region,
            [0.0005] * n,
            bodies=[b"t%d" % i for i in range(n)],
        )
        expect_ordered(outputs, n, lambda i: b"t%d" % i)
        assert stats.results == n
        assert stats.restarts == 0
        assert stats.quarantined == []
        assert stats.duplicates_dropped == 0
        assert sum(stats.per_worker_results) == n

    def test_weighted_split_respects_multipliers(self):
        # Worker 0 is 8x slower; with 1/multiplier weights it should get
        # far fewer tuples than the two fast workers.
        region = ProcessRegion(
            3, multipliers=[8.0, 1.0, 1.0], supervisor_config=FAST, window=8
        )
        n = 150
        stats, outputs = run_region(region, [0.001] * n)
        expect_ordered(outputs, n)
        per_worker = stats.per_worker_results
        assert per_worker[0] < per_worker[1]
        assert per_worker[0] < per_worker[2]

    def test_close_is_idempotent(self):
        region = ProcessRegion(2, supervisor_config=FAST)
        region.start()
        region.run([0.0] * 10, timeout=20.0)
        first = region.close()
        assert region.close() == first


class TestBlockingReflectsCapacity:
    """The paper's counter, on real processes: it tracks who is slow."""

    def test_blocking_concentrates_on_slow_worker(self):
        # Equal weights against a 20x slower worker: the splitter keeps
        # offering it half the stream, and waits on it for nearly all of
        # the run.
        region = ProcessRegion(
            2, multipliers=[1, 20], initial_weights=[1, 1],
            supervisor_config=FAST, window=8,
        )
        stats, outputs = run_region(region, [0.001] * 120, ready=True)
        expect_ordered(outputs, 120)
        blocked = stats.blocked_seconds
        assert blocked[1] > blocked[0]
        assert blocked[1] > 0.5 * sum(blocked)

    def test_even_capacity_small_blocking(self):
        region = ProcessRegion(
            2, multipliers=[1, 1], initial_weights=[1, 1],
            supervisor_config=FAST, window=8,
        )
        stats, outputs = run_region(region, [0.0002] * 200, ready=True)
        expect_ordered(outputs, 200)
        # Workers keep up with the sender; blocking should be minimal.
        assert sum(stats.blocked_seconds) < 1.0


class TestKillRecovery:
    """The ISSUE's acceptance scenario: SIGKILL mid-batch, full recovery."""

    def test_deterministic_sigkill_mid_batch(self):
        n = 400
        region = ProcessRegion(4, supervisor_config=FAST, window=16)
        hub = ObservabilityHub(region.clock, ObservabilityConfig())
        region.attach_observability(hub)
        # Deterministic trigger: worker 1 dies the instant the merger has
        # emitted tuple #50, regardless of host speed.
        schedule = FaultSchedule.crash_after_emitted(1, 50)
        driver = RealFaultDriver(region, poll_interval=0.002)
        schedule.arm_real(driver)
        try:
            # Every worker serving before tuple 0, so the victim holds
            # its share of the window when the kill lands (a submit no
            # longer sleeps out a poll period while the rest connect).
            region.start().wait_ready(timeout=30.0)
            driver.start()
            # Submit + drain by hand (run() would close the region): the
            # region must stay open so the replacement incarnation can
            # rejoin even if the batch drains first.
            for i in range(n):
                region.submit(0.001, b"payload-%d" % i)
            region.drain(timeout=60.0)
            # Wait for the rejoin: it closes the episode (ttr) and emits
            # the "restart" span.
            deadline = time.monotonic() + 20.0
            while (
                first_time_to_reconverge(region.supervisor.episodes) is None
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            stats = region.stats()
            outputs = list(region.outputs)
        finally:
            driver.stop()
            region.close()
        expect_ordered(outputs, n, lambda i: b"payload-%d" % i)
        assert stats.results == n
        assert stats.restarts >= 1
        assert stats.episodes >= 1
        # In-flight tuples on the dead incarnation were replayed from the
        # retransmit buffer, not lost.
        assert stats.replayed >= 1
        # Fault-to-detection (ttq) is recorded and small.
        assert stats.time_to_quarantine is not None
        assert stats.time_to_quarantine < 5.0
        # Fault-to-rejoin (ttr) is recorded once the replacement serves.
        assert stats.time_to_reconverge is not None
        hub.finalize(region.clock())
        report = hub.report()
        kinds = {span["kind"] for span in report.spans}
        assert {"detection", "quarantine", "restart"} <= kinds
        restart_spans = report.spans_of_kind("restart")
        assert restart_spans and all(
            s["end"] >= s["start"] for s in restart_spans
        )

    def test_restarted_worker_rejoins_and_serves(self):
        # A longer run so the restarted incarnation has time to reconnect
        # and take traffic again (ttr is only defined if it rejoins).
        n = 600
        region = ProcessRegion(3, supervisor_config=FAST, window=16)
        schedule = FaultSchedule.crash_after_emitted(2, 40)
        stats, outputs = run_region(
            region, [0.002] * n, timeout=90.0, schedule=schedule
        )
        expect_ordered(outputs, n)
        assert stats.restarts >= 1
        assert stats.time_to_reconverge is not None
        # The restarted worker produced results after rejoining.
        assert stats.per_worker_results[2] > 0


class TestStallDetection:
    def test_sigstop_is_detected_via_missed_heartbeats(self):
        n = 300
        region = ProcessRegion(3, supervisor_config=FAST, window=16)
        region.start()
        try:
            # Freeze worker 0 once it is serving (STARTING slots enjoy a
            # long spawn grace; the heartbeat timeout only guards UP
            # slots). The socket stays open, so only heartbeat staleness
            # can catch the freeze.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if region.slots[0].state == UP and region.supervisor.kill(
                    0, signal.SIGSTOP
                ):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("worker 0 never came up")
            stats = region.run([0.001] * n, timeout=60.0)
            outputs = list(region.outputs)
        finally:
            region.close()
        expect_ordered(outputs, n)
        assert stats.results == n
        # The stopped incarnation was declared dead without the socket
        # ever closing, and replaced.
        assert stats.episodes >= 1
        assert stats.restarts >= 1


class TestCircuitBreaker:
    def test_crash_loop_quarantines_but_run_completes(self):
        # Worker 1 is configured (via extra_args) to exit nonzero after
        # every single tuple, forever. The budget of 2 restarts in the
        # window trips the breaker; the survivors absorb its share. The
        # run is long enough (wall-clock) for three crash cycles, each
        # dominated by interpreter startup of the replacement process.
        config = SupervisorConfig(
            heartbeat_interval=0.02,
            heartbeat_timeout=0.25,
            monitor_interval=0.01,
            backoff_start=0.01,
            backoff_max=0.02,
            restart_budget=2,
            restart_window=30.0,
        )
        region = ProcessRegion(3, supervisor_config=config, window=8)
        region.slots[1].extra_args = ["--exit-after", "1", "--exit-code", "3"]
        n = 400
        stats, outputs = run_region(region, [0.008] * n, timeout=120.0)
        expect_ordered(outputs, n)
        assert stats.results == n
        assert 1 in stats.quarantined
        assert region.slots[1].state == QUARANTINED
        # Budget spent before the breaker tripped.
        assert region.slots[1].restarts == 2


class TestChaos:
    """The CI ``process-chaos`` job's case: kills in a loop, still exact."""

    def test_repeated_sigkills_preserve_exactly_once(self):
        n = 500
        region = ProcessRegion(4, supervisor_config=FAST, window=16)
        region.start()
        stop = False
        try:
            import threading

            def chaos():
                rounds = 0
                victim = 0
                while not stop and rounds < 3:
                    time.sleep(0.4)
                    if region.supervisor.kill(victim, signal.SIGKILL):
                        region.supervisor.note_fault(victim)
                        rounds += 1
                    victim = (victim + 1) % 4

            monkey = threading.Thread(target=chaos, daemon=True)
            monkey.start()
            stats = region.run([0.002] * n, timeout=120.0)
            stop = True
            monkey.join(timeout=5.0)
            outputs = list(region.outputs)
        finally:
            stop = True
            region.close()
        expect_ordered(outputs, n)
        assert stats.results == n
        # Exactly-once held: any retransmit race resolved via dedup.
        assert stats.results + stats.duplicates_dropped >= n


class TestBatchedWire:
    """The batched wire protocol: DATA_BATCH runs, cumulative acks."""

    def test_batched_happy_path_ordered_gap_free(self):
        region = ProcessRegion(
            3, supervisor_config=FAST, window=64, batch_size=8
        )
        n = 240
        stats, outputs = run_region(
            region,
            [0.0005] * n,
            bodies=[b"t%d" % i for i in range(n)],
        )
        expect_ordered(outputs, n, lambda i: b"t%d" % i)
        assert stats.results == n
        assert stats.duplicates_dropped == 0
        # The whole point: far fewer flushes (sendall calls) than tuples.
        assert stats.data_flushes < n // 2
        assert stats.mean_batch_occupancy > 1.5
        assert stats.wire_frames_received < n

    def test_batch_size_one_keeps_per_tuple_wire(self):
        region = ProcessRegion(
            2, supervisor_config=FAST, window=16, batch_size=1
        )
        n = 60
        stats, outputs = run_region(region, [0.0005] * n)
        expect_ordered(outputs, n)
        # One flush per tuple, occupancy exactly 1: B=1 is the old wire.
        assert stats.data_flushes == n
        assert stats.mean_batch_occupancy == 1.0

    def test_batched_sigkill_mid_batch_gap_free_zero_duplicates(self):
        # The acceptance scenario: a worker dies holding a partially
        # acked DATA_BATCH run; its unacked entries are re-batched to
        # survivors, and the merged output has no gap and no duplicate.
        n = 400
        region = ProcessRegion(
            4, supervisor_config=FAST, window=64, batch_size=16
        )
        schedule = FaultSchedule.crash_after_emitted(1, 50)
        # All four workers serving before tuple 0: the victim then holds
        # a window's worth of unacked runs when the kill lands, instead
        # of idling behind the first-up worker's backpressure.
        stats, outputs = run_region(
            region,
            [0.001] * n,
            bodies=[b"payload-%d" % i for i in range(n)],
            timeout=90.0,
            schedule=schedule,
            ready=True,
        )
        expect_ordered(outputs, n, lambda i: b"payload-%d" % i)
        assert stats.results == n
        assert stats.restarts >= 1
        assert stats.episodes >= 1
        assert stats.replayed >= 1

    def test_batched_paced_sigkill_lands_among_idle_flushes(self):
        # A paced source (about 1 k tuples/s against four workers that
        # could take 4 k) keeps every wire mostly idle, so the frames in
        # flight when the kill lands are idle flushes — short runs — not
        # full ones. Exactly-once must not depend on runs being full.
        n = 600
        region = ProcessRegion(
            4, supervisor_config=FAST, window=64, batch_size=16
        )
        driver = RealFaultDriver(region, poll_interval=0.002)
        FaultSchedule.crash_after_emitted(1, 150).arm_real(driver)
        try:
            region.start().wait_ready(timeout=30.0)
            driver.start()
            start = time.monotonic()
            for i in range(n):
                delay = start + i / 1000.0 - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                region.submit(0.001, b"payload-%d" % i)
            region.drain(timeout=60.0)
            stats = region.stats()
            outputs = list(region.outputs)
        finally:
            driver.stop()
            region.close()
        expect_ordered(outputs, n, lambda i: b"payload-%d" % i)
        assert stats.results == n
        assert stats.episodes >= 1
        reasons = stats.flushes_by_reason
        assert sum(reasons.values()) == stats.data_flushes
        assert reasons["idle"] > reasons["full"]

    def test_result_batch_overlapping_replay_dedups(self):
        # Unit-level: a replayed RESULT_BATCH overlapping already-acked
        # seqs must count duplicates, not double-emit. No processes —
        # results are injected through _handle_message directly.
        from repro.net import framing

        region = ProcessRegion(
            2, supervisor_config=FAST, window=16, batch_size=4
        )
        try:
            slot = region.slots[0]
            entries = [(seq, 0.0, b"x%d" % seq) for seq in range(4)]
            with region._cv:
                for seq, cost, body in entries:
                    region._owner[seq] = 0
                    slot.unacked[seq] = (cost, body)
            [batch] = framing.MessageAssembler().feed(
                framing.encode_result_batch(entries)
            )
            region._handle_message(slot, slot.incarnation, batch)
            assert region.results == 4
            assert region.outputs == [
                (seq, b"x%d" % seq) for seq in range(4)
            ]
            # The replayed copy overlaps all four: every entry dedups.
            region._handle_message(slot, slot.incarnation, batch)
            assert region.results == 4
            assert region.stats().duplicates_dropped == 4
            assert len(region.outputs) == 4
            assert slot.unacked == {}
        finally:
            region._listener_sock.close()

    def test_wait_ready_blocks_until_all_slots_serve(self):
        region = ProcessRegion(2, supervisor_config=FAST, window=8)
        try:
            region.start().wait_ready(timeout=30.0)
            assert all(s.state == UP for s in region.slots)
            assert all(sock is not None for sock in region._socks)
        finally:
            region.close()

    def test_wait_ready_requires_start(self):
        region = ProcessRegion(1, supervisor_config=FAST)
        try:
            with pytest.raises(RuntimeError, match="not started"):
                region.wait_ready(timeout=0.1)
        finally:
            region._listener_sock.close()


class TestNodelay:
    """TCP_NODELAY must be on at both ends of every worker connection."""

    def test_parent_accept_socket_has_nodelay(self):
        import socket as socket_module

        region = ProcessRegion(2, supervisor_config=FAST, window=8)
        try:
            region.start().wait_ready(timeout=30.0)
            for sock in region._socks:
                assert sock is not None
                assert sock.getsockopt(
                    socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY
                ) != 0
        finally:
            region.close()


class TestPromptShutdown:
    def test_close_races_pending_restart_without_stalling(self):
        # Kill a worker, then close while its replacement is still
        # STARTING (spawned, pre-HELLO). The replacement never received
        # EOS and cannot drain, so shutdown must not spend the full
        # drain_timeout waiting for it — only UP slots are waited on.
        region = ProcessRegion(2, supervisor_config=FAST, window=8)
        region.start()
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if all(s.state == UP for s in region.slots):
                    break
                time.sleep(0.01)
            assert all(s.state == UP for s in region.slots)
            assert region.supervisor.kill(1, signal.SIGKILL)
            # Catch the replacement in STARTING: detection + backoff
            # take ~0.03s with FAST, interpreter boot ~0.3s more.
            deadline = time.monotonic() + 5.0
            seen_starting = False
            while time.monotonic() < deadline:
                slot = region.slots[1]
                if slot.incarnation >= 1 and slot.state == STARTING:
                    seen_starting = True
                    break
                time.sleep(0.001)
            assert seen_starting, "replacement never entered STARTING"
            t0 = time.monotonic()
        finally:
            region.close()
        close_seconds = time.monotonic() - t0
        assert close_seconds < 3.0, (
            f"close stalled {close_seconds:.2f}s on an undrainable "
            f"STARTING replacement (DRAIN_TIMEOUT is {DRAIN_TIMEOUT:g}s)"
        )


class TestGracefulDegradation:
    def test_sigterm_drains_in_flight_tuples(self):
        # SIGTERM a worker directly (not via the supervisor's shutdown):
        # it must finish what it already read, send BYE, and exit 0 —
        # which the monitor then treats as a death and replaces.
        region = ProcessRegion(2, supervisor_config=FAST, window=8)
        region.start()
        try:
            deadline = time.monotonic() + 5.0
            pid = None
            while time.monotonic() < deadline:
                slot = region.slots[0]
                if slot.state == UP and slot.pid:
                    pid = slot.pid
                    break
                time.sleep(0.01)
            assert pid is not None
            os.kill(pid, signal.SIGTERM)
            n = 150
            stats = region.run([0.001] * n, timeout=60.0)
            outputs = list(region.outputs)
        finally:
            region.close()
        expect_ordered(outputs, n)
        assert stats.results == n


def seqs(frame):
    return [seq for seq, _cost, _body in frame]


class TestIdleFlush:
    """``batch_size`` is a cap: a run leaves as soon as its wire is idle.

    No processes, no sleeps — :class:`FakeWire` is the worker. One
    worker, so every tuple routes to slot 0.
    """

    def test_idle_flush_sends_first_tuple_to_an_idle_slot_at_once(self):
        with FakeWire(1, batch_size=16, window=64) as wire:
            wire.region.submit(0.0, b"a")
            # (a) one DATA_BATCH frame carrying exactly that tuple.
            assert wire.read(0) == [[(0, 0.0, b"a")]]
            assert wire.raw[0] == framing.encode_data_batch([(0, 0.0, b"a")])
            assert wire.region.stats().flushes_by_reason["idle"] == 1

    def test_idle_flush_releases_the_run_behind_an_ack(self):
        with FakeWire(1, batch_size=16, window=64) as wire:
            region = wire.region
            region.submit(0.0, b"t0")
            wire.read(0)
            # (b) k < B more tuples: nothing reaches the wire.
            for i in range(1, 6):
                region.submit(0.0, b"t%d" % i)
            assert wire.read(0) == []
            assert len(region.slots[0].outbox) == 5
            # (c) the ack that empties the wire releases exactly one
            # frame carrying those k tuples in routing order.
            wire.ack(0)
            assert [seqs(f) for f in wire.read(0)] == [[1, 2, 3, 4, 5]]
            assert region.slots[0].outbox == []
            assert region.stats().flushes_by_reason == {
                "full": 0, "idle": 2, "backpressure": 0,
                "drain": 0, "failover": 0,
            }

    def test_batch_fills_to_the_cap_while_acks_are_withheld(self):
        with FakeWire(1, batch_size=16, window=256) as wire:
            for i in range(1 + 16 * 5):
                wire.region.submit(0.0, b"")
            frames = wire.read(0)
            # (d) after the lone first tuple every frame carries B.
            assert [len(f) for f in frames] == [1] + [16] * 5
            assert seqs(sum(frames, [])) == list(range(81))
            reasons = wire.region.stats().flushes_by_reason
            assert (reasons["idle"], reasons["full"]) == (1, 5)

    def test_idle_flush_never_overtakes_a_popped_but_unsent_run(self):
        with FakeWire(1, batch_size=4, window=64) as wire:
            region = wire.region
            region.submit(0.0, b"")  # seq 0: in flight
            # Route a full run but hold its flush order back, as a
            # submitter descheduled between the pop and the send.
            order = None
            for seq in range(1, 5):
                _, order = region._route_one(seq, 0.0, b"", replay=False)
            region._next_seq = 5
            assert order is not None and order[3] == "full"
            region.submit(0.0, b"")  # seq 5: buffered behind it
            region.submit(0.0, b"")  # seq 6
            assert [seqs(f) for f in wire.read(0)] == [[0]]
            # (e) seq 0's ack leaves nothing of ours on the socket, but
            # the popped run still counts as in flight: no idle flush.
            wire.ack(0)
            assert wire.read(0) == []
            assert seqs(region.slots[0].outbox) == [5, 6]
            region._dispatch_entries(*order)
            assert [seqs(f) for f in wire.read(0)] == [[1, 2, 3, 4]]
            wire.ack(0)
            assert [seqs(f) for f in wire.read(0)] == [[5, 6]]

    def test_batch_size_one_wire_is_byte_identical_per_tuple(self):
        with FakeWire(1, batch_size=1, window=64) as wire:
            bodies = [b"p%d" % i for i in range(10)]
            for i, body in enumerate(bodies):
                wire.region.submit(0.5 * i, body)
                if i % 3 == 0:
                    wire.read(0)
                    wire.ack(0, batched=False)
            wire.read(0)
            # (f) one DATA frame per tuple, the pre-batching bytes.
            assert wire.raw[0] == b"".join(
                framing.encode_data(i, 0.5 * i, body)
                for i, body in enumerate(bodies)
            )
            stats = wire.region.stats()
            assert stats.data_flushes == 10
            assert stats.flushes_by_reason["full"] == 10
            assert stats.mean_batch_occupancy == 1.0

    def test_idle_flush_is_not_a_stale_receivers_business(self):
        with FakeWire(2, batch_size=16, window=64) as wire:
            region = wire.region
            for _ in range(6):
                region.submit(0.0, b"")
            wire.read_all()
            old = region.slots[0].incarnation
            wire.down(0)
            wire.up(0)
            wire.read_all()
            for _ in range(6):
                region.submit(0.0, b"")
            wire.read_all()
            assert region.slots[0].outbox
            # The dead incarnation's last results arrive late: they may
            # dedupe, but the sending is the live receiver's business.
            _, frames = wire.orphans[0]
            wire.inject(0, sum(frames, []), incarnation=old)
            assert wire.read(0) == []

    def test_idle_flush_survives_a_stale_outbox_entry(self):
        # A replayed tuple waiting in a survivor's outbox can be acked
        # by its dead owner's last breath before the failover's own
        # flush ships it: it stays in the outbox but leaves ``unacked``.
        # The rule must read that as "one entry fewer owed", not as
        # "something is in flight".
        with FakeWire(1, batch_size=16, window=64) as wire:
            region = wire.region
            # The race, frozen: seq 1 arrives as a replay (its trailing
            # failover flush not yet run) behind seq 0 in flight, and is
            # then acked by another road.
            region.submit(0.0, b"")
            region._next_seq = 2
            _, order = region._route_one(1, 0.0, b"", replay=True)
            assert order is None
            with region._lock:
                region._owner.pop(1)
                region.slots[0].unacked.pop(1)
            wire.ack(0)  # the wire falls silent over a stale outbox
            wire.read(0)
            seq = region.submit(0.0, b"fresh")
            assert seq in seqs(sum(wire.read(0), []))

    def test_idle_flush_and_other_reasons_feed_the_hub(self):
        with FakeWire(1, batch_size=4, window=64) as wire:
            region = wire.region
            hub = ObservabilityHub(region.clock, ObservabilityConfig())
            region.attach_observability(hub)
            for _ in range(1 + 4 + 2):
                region.submit(0.0, b"")
            region._flush_outboxes("drain")
            read = hub.registry.read
            assert read("process_region_flushes_total", reason="idle") == 1
            assert read("process_region_flushes_total", reason="full") == 1
            assert read("process_region_flushes_total", reason="drain") == 1
            stats = region.stats()
            assert sum(stats.flushes_by_reason.values()) == stats.data_flushes

    def test_stranded_lone_tuple_reaches_the_sink_without_drain(self):
        # (g) B = 16, one tuple, nobody calls drain: real processes.
        seen = threading.Event()
        region = ProcessRegion(
            2, supervisor_config=FAST, window=64, batch_size=16,
            sink=lambda seq, body: seen.set(),
        )
        try:
            region.start().wait_ready(timeout=30.0)
            region.submit(0.0, b"lonely")
            assert seen.wait(timeout=10.0), (
                "a lone tuple sat in its outbox with both workers idle"
            )
        finally:
            region.close()


class TestPick:
    def test_one_pass_pick_replays_the_two_pass_sequence_exactly(self):
        # The reference is the scheduler as it was written before it
        # was fused into one pass: same float operations, same order,
        # so choices *and* residual scores must match bit for bit —
        # through full windows, dead slots and a weight change.
        def reference(weights, wrr, eligible, full):
            total, best, best_score = 0.0, None, 0.0
            for j in eligible:
                w = max(weights[j], 1e-9)
                total += w
                score = wrr[j] + w
                if best is None or score > best_score:
                    best, best_score = j, score
            if best is None or best in full:
                return None
            for j in eligible:
                wrr[j] += max(weights[j], 1e-9)
            wrr[best] -= total
            return best

        weights = [0.05, 0.45, 0.0, 0.3, 0.2]
        with FakeWire(5, initial_weights=weights, window=3) as wire:
            region = wire.region
            expected_wrr = [0.0] * 5
            norm = [w / sum(weights) for w in weights]
            for step in range(600):
                if step == 200:
                    wire.down(1)
                if step == 300:
                    norm = [0.5, 0.1, 0.1, 0.2, 0.1]
                    region._set_route_weights(norm)
                if step == 400:
                    wire.up(1)
                eligible = [j for j in range(5) if wire.is_up(j)]
                full = {
                    j for j in eligible
                    if len(region.slots[j].unacked) >= region.window
                }
                want = reference(norm, expected_wrr, eligible, full)
                if want is None:
                    # The weighted choice is full and the reference left
                    # its state alone; so must the real pick.
                    with region._lock:
                        slot, blocked_on = region._pick_locked()
                    assert slot is None and blocked_on in full
                    assert region._wrr == expected_wrr
                    wire.read(blocked_on)
                    while wire.in_flight[blocked_on]:
                        wire.ack(blocked_on)
                    want = reference(norm, expected_wrr, eligible, set())
                seq = region.submit(0.0, b"")
                assert region._owner[seq] == want
                assert region._wrr == expected_wrr


class WaitSpy:
    """Records what every ``Condition.wait`` on the region was given/got."""

    def __init__(self, region):
        self.entered = threading.Event()
        self.calls = []
        real_wait = region._cv.wait

        def wait(timeout=None):
            self.entered.set()
            woken = real_wait(timeout)
            self.calls.append((timeout, woken))
            return woken

        region._cv.wait = wait


def run_blocked(target):
    """Run ``target`` on a thread; return ``(thread, errors)``."""
    errors = []

    def body():
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            errors.append(exc)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, errors


class TestNoPolling:
    """Waiters sleep until notified or until the caller's own deadline."""

    def assert_released(self, spy, thread, errors, deadline):
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "the waiter was never woken"
        assert errors == []
        assert spy.calls, "the waiter never had to wait"
        # Never a timed-out wait, and never a poll period: the timeout
        # handed to Condition.wait is the caller's deadline itself.
        for timeout, woken in spy.calls:
            assert woken is True
            if deadline is None:
                assert timeout is None
            else:
                # (t0 + deadline) - t1 can round an ulp above deadline.
                assert deadline - 5.0 < timeout <= deadline + 1e-9

    def test_submit_blocked_on_full_window_is_released_by_an_ack(self):
        with FakeWire(1, batch_size=1, window=4,
                      send_stall_timeout=60.0) as wire:
            region = wire.region
            for _ in range(4):
                region.submit(0.0, b"")
            spy = WaitSpy(region)
            thread, errors = run_blocked(lambda: region.submit(0.0, b""))
            assert spy.entered.wait(timeout=10.0)
            wire.ack(0, batched=False)
            self.assert_released(spy, thread, errors, 60.0)
            assert region.stats().tuples == 5
            assert region.block_counters[0].lifetime_seconds > 0.0

    def test_drain_is_released_by_the_last_ack(self):
        with FakeWire(1, batch_size=16, window=64) as wire:
            region = wire.region
            for _ in range(3):
                region.submit(0.0, b"")
            spy = WaitSpy(region)
            thread, errors = run_blocked(region.drain)
            assert spy.entered.wait(timeout=10.0)
            while thread.is_alive() and (wire.read(0) or wire.in_flight[0]):
                wire.ack(0)
            self.assert_released(spy, thread, errors, None)
            assert region.results == 3

    def test_wait_ready_is_released_by_the_slot_coming_up(self):
        with FakeWire(2, batch_size=1) as wire:
            wire.down(1)
            spy = WaitSpy(wire.region)
            thread, errors = run_blocked(
                lambda: wire.region.wait_ready(timeout=60.0)
            )
            assert spy.entered.wait(timeout=10.0)
            wire.up(1)
            self.assert_released(spy, thread, errors, 60.0)

    def test_stall_deadline_still_raises(self):
        from repro.streams.splitter import RegionStalledError

        with FakeWire(1, batch_size=1, window=1,
                      send_stall_timeout=0.05) as wire:
            wire.region.submit(0.0, b"")
            with pytest.raises(RegionStalledError, match="blocked_on=0"):
                wire.region.submit(0.0, b"")


#: Larger than a shrunk kernel buffer (about 8 KiB in one send), smaller
#: than a default one: its sender parks on slot 0 and nowhere else.
BIG = bytes(range(256)) * 128


class TestSendMeasured:
    """The paper's section 3 write, on a bare socketpair."""

    def pair(self, sndbuf=None):
        ours, peer = socket.socketpair()
        if sndbuf is not None:
            ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
        return ours, peer

    def test_no_pressure_means_no_blocking(self):
        ours, peer = self.pair()
        with ours, peer:
            assert send_measured(ours, b"x" * 64, 5.0) == (True, 0.0)
            assert peer.recv(64) == b"x" * 64

    def test_full_buffer_blocks_until_the_peer_reads(self):
        ours, peer = self.pair(sndbuf=4096)
        with ours, peer:
            result = []
            thread, errors = run_blocked(
                lambda: result.append(send_measured(ours, BIG, 30.0))
            )
            received = bytearray()
            peer.settimeout(10.0)
            while len(received) < len(BIG):
                received += peer.recv(1024)
            thread.join(timeout=10.0)
            assert not thread.is_alive() and errors == []
            [(sent, blocked)] = result
            assert sent and blocked > 0.0
            assert bytes(received) == BIG

    def test_deadline_gives_up_and_reports_the_wait(self):
        ours, peer = self.pair(sndbuf=4096)
        with ours, peer:
            sent, blocked = send_measured(ours, BIG, 0.05)
            assert not sent
            assert 0.045 <= blocked < 5.0

    def test_dead_peer_fails_the_send(self):
        ours, peer = self.pair()
        with ours:
            peer.close()
            assert send_measured(ours, b"x" * 64, 5.0) == (False, 0.0)

    def test_peer_dying_mid_wait_releases_the_sender(self):
        ours, peer = self.pair(sndbuf=4096)
        with ours:
            result = []
            thread, errors = run_blocked(
                lambda: result.append(send_measured(ours, BIG, 30.0))
            )
            # Bytes at the peer: the sender is inside the frame.
            assert select.select([peer], [], [], 10.0)[0]
            peer.close()
            thread.join(timeout=10.0)
            assert not thread.is_alive() and errors == []
            [(sent, blocked)] = result
            assert not sent and blocked > 0.0


class TestSendBlocking:
    """A full kernel buffer is backpressure too, and is charged as such.

    :class:`FakeWire` with slot 0's buffer shrunk; ``BIG`` bodies do not
    fit it, so a submit routed there parks until the test reads.
    """

    def park(self, wire):
        """Submit ``BIG`` on a thread; return once it is mid-frame."""
        done = threading.Event()

        def submit():
            wire.region.submit(0.0, BIG)
            done.set()

        thread, errors = run_blocked(submit)
        wire.wait_readable(0)
        return thread, errors, done

    def release(self, wire, thread, errors, index=0):
        while thread.is_alive():
            wire.read(index)
        thread.join(timeout=10.0)
        assert errors == []
        wire.read(index)

    def test_no_pressure_charges_nothing(self):
        with FakeWire(1, batch_size=1, window=64) as wire:
            wire.shrink(0)
            for i in range(20):
                wire.region.submit(0.0, b"t%d" % i)
                wire.ack(0, batched=False)
            counter = wire.region.block_counters[0]
            assert counter.lifetime_seconds == 0.0
            assert counter.lifetime_episodes == 0

    def test_park_on_a_full_kernel_buffer_is_charged(self):
        with FakeWire(1, batch_size=1, window=64) as wire:
            wire.shrink(0)
            thread, errors, done = self.park(wire)
            # The frame does not fit and nobody is reading: the sender
            # stays parked for as long as the test cares to look.
            park = 0.1
            assert not done.wait(park + 0.05)
            self.release(wire, thread, errors)
            assert wire.raw[0] == framing.encode_data(0, 0.0, BIG)
            counter = wire.region.block_counters[0]
            assert counter.lifetime_seconds >= park

    def test_one_parked_frame_is_one_episode(self):
        with FakeWire(1, batch_size=1, window=64) as wire:
            wire.shrink(0)
            thread, errors, _done = self.park(wire)
            # Dribble the frame out: every read makes room for one more
            # partial send.
            reads = 0
            while thread.is_alive() or wire.unread(0):
                wire.read(0, limit=512)
                reads += 1
            thread.join(timeout=10.0)
            assert errors == [] and reads > 8
            assert wire.in_flight[0] == [[(0, 0.0, BIG)]]
            assert wire.region.block_counters[0].lifetime_episodes == 1

    def test_window_full_and_send_full_share_a_counter(self):
        with FakeWire(1, batch_size=1, window=1) as wire:
            region = wire.region
            hub = ObservabilityHub(region.clock, ObservabilityConfig())
            region.attach_observability(hub)
            wire.shrink(0)
            region.submit(0.0, b"small")
            spy = WaitSpy(region)
            thread, errors = run_blocked(lambda: region.submit(0.0, BIG))
            # First the window: seq 0 is unacked and the window is 1.
            assert spy.entered.wait(timeout=10.0)
            wire.ack(0, batched=False)
            # Then the kernel buffer: seq 1 is routed but does not fit.
            wire.wait_readable(0)
            self.release(wire, thread, errors)
            counter = region.block_counters[0]
            assert counter.lifetime_episodes == 2
            assert region.stats().blocked_seconds == [counter.lifetime_seconds]
            hub.finalize(region.clock())
            spans = hub.report().spans_of_kind("blocking")
            assert [span["attrs"] for span in spans] == [{"channel": 0}] * 2
            assert sum(
                span["end"] - span["start"] for span in spans
            ) == pytest.approx(counter.lifetime_seconds)
            histogram = hub.registry.get("process_region_block_seconds")
            assert histogram.count == 2
            assert histogram.sum == pytest.approx(counter.lifetime_seconds)

    def test_slot_death_releases_a_parked_sender_and_still_charges(self):
        with FakeWire(2, batch_size=1, window=64) as wire:
            region = wire.region
            wire.shrink(0)
            thread, errors, done = self.park(wire)
            assert region._owner[0] == 0 and not done.is_set()
            wire.down(0, drain=False)
            thread.join(timeout=10.0)
            assert not thread.is_alive(), "the parked sender was not released"
            assert errors == [] and done.is_set()
            # Replayed to the survivor exactly once, by the failover: the
            # released sender finds nothing left to re-route.
            assert wire.read(1) == [[(0, 0.0, BIG)]]
            wire.ack(1, batched=False)
            assert region.outputs == [(0, BIG)]
            stats = region.stats()
            assert (stats.replayed, stats.duplicates_dropped) == (1, 0)
            counter = region.block_counters[0]
            assert counter.lifetime_episodes == 1
            assert counter.lifetime_seconds > 0.0

    def test_send_stall_timeout_ends_in_the_death_path(self):
        with FakeWire(2, batch_size=1, window=64,
                      send_stall_timeout=0.1) as wire:
            region = wire.region
            wire.shrink(0)
            # On this thread: a hang would hang the test, an exception
            # escaping submit would fail it.
            assert region.submit(0.0, BIG) == 0
            assert not wire.is_up(0)
            assert region.stats().episodes == 1
            assert wire.read(1) == [[(0, 0.0, BIG)]]
            counter = region.block_counters[0]
            assert counter.lifetime_episodes == 1
            assert counter.lifetime_seconds >= 0.09


class TestReceiverThreads:
    def test_finished_receivers_are_dropped_on_reconnect(self):
        n_workers = 2
        region = ProcessRegion(n_workers, supervisor_config=FAST)
        region._started = True
        peers = []
        try:
            for kill in range(20):
                index = kill % n_workers
                slot = region.slots[index]
                with region._lock:
                    slot.incarnation += 1
                    slot.state = STARTING
                ours, peer = socket.socketpair()
                peers.append(peer)
                peer.sendall(framing.encode_hello(index, slot.incarnation))
                region._admit(ours)
                assert slot.state == UP
                assert len(region._recv_threads) <= n_workers
                # The kill: EOF ends this receiver, which declares the
                # slot dead itself (the third detection prong).
                receiver = region._recv_threads[-1]
                peer.close()
                receiver.join(timeout=10.0)
                assert not receiver.is_alive()
                assert slot.state != UP
            assert region.stats().episodes == 20
        finally:
            region.close()
            for peer in peers:
                peer.close()
