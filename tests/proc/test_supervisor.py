"""Unit tests for the supervisor's state machine, without any dataplane.

The supervisor's process-management logic — idempotent death handling,
capped jittered backoff, the restart-budget circuit breaker, stale
incarnation rejection — is exercised against a recording listener and a
controllable clock. No sockets, no subprocesses: ``_launch`` returns a
placeholder parked process (or raises what ``launch_error`` holds) and
``_spawn`` is just an incarnation bump that records which process it
released. Monitor passes are run by hand (``_tick``).
"""

import errno
import io
import threading

import pytest

from repro.obs.hub import ObservabilityHub
from repro.proc.supervisor import (
    DOWN,
    QUARANTINED,
    RESTART_WINDOW,
    STARTING,
    UP,
    Supervisor,
    SupervisorConfig,
    WorkerSlot,
)


class RecordingListener:
    def __init__(self):
        self.downs = []
        self.ups = []
        self.quarantined = []

    def on_slot_down(self, slot, reason):
        self.downs.append((slot.index, reason))

    def on_slot_up(self, slot):
        self.ups.append(slot.index)

    def on_slot_quarantined(self, slot):
        self.quarantined.append(slot.index)


class ParkedProcess:
    """A placeholder parked interpreter: alive until given a returncode."""

    def __init__(self):
        self.returncode = None
        self.stdin = io.BytesIO()

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        return self.returncode

    def kill(self):
        self.returncode = -9


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_supervisor(n=2, **config_overrides):
    settings = {
        "backoff_start": 0.1,
        "backoff_max": 1.0,
        "backoff_jitter": 0.0,  # deterministic backoff for assertions
        "restart_budget": 3,
    }
    settings.update(config_overrides)
    config = SupervisorConfig(**settings)
    clock = FakeClock()
    listener = RecordingListener()
    slots = [WorkerSlot(index=j) for j in range(n)]
    supervisor = Supervisor(
        slots,
        port=1,
        listener=listener,
        lock=threading.RLock(),
        clock=clock,
        config=config,
    )
    # No real processes in these tests: a launch returns a placeholder
    # (or raises ``supervisor.launch_error``), a release (spawn) is an
    # incarnation bump.
    launches = []
    spawns = []

    def fake_launch():
        if supervisor.launch_error is not None:
            raise supervisor.launch_error
        launches.append(ParkedProcess())
        return launches[-1]

    def fake_spawn(slot, process=None):
        slot.process = process
        slot.incarnation += 1
        if slot.incarnation > 0:
            slot.restarts += 1
            slot.restart_times.append(clock())
        slot.state = STARTING
        slot.spawned_at = clock()
        spawns.append((slot.index, slot.incarnation))

    supervisor._launch = fake_launch
    supervisor._spawn = fake_spawn
    supervisor.launch_error = None
    supervisor.launches = launches
    supervisor.spawns = spawns
    return supervisor, clock, listener


class TestDeclareDead:
    def test_first_death_schedules_an_immediate_restart(self):
        # A serving worker's death is no crash loop: no backoff.
        supervisor, clock, listener = make_supervisor()
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        supervisor.on_connected(0, 0)
        clock.now = 5.0
        assert supervisor.declare_dead(0, "kill test")
        assert slot.state == DOWN
        assert slot.restart_at == 5.0
        assert listener.downs == [(0, "kill test")]
        assert len(supervisor.episodes) == 1

    def test_death_is_idempotent_per_incarnation(self):
        supervisor, clock, listener = make_supervisor()
        supervisor._spawn(supervisor.slots[0])
        supervisor.on_connected(0, 0)
        assert supervisor.declare_dead(0, "first")
        assert not supervisor.declare_dead(0, "second caller loses")
        assert len(listener.downs) == 1
        assert len(supervisor.episodes) == 1

    def test_stale_incarnation_is_rejected(self):
        supervisor, clock, listener = make_supervisor()
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        supervisor.on_connected(0, 0)
        # A receiver thread for incarnation 0 reports after incarnation 1
        # spawned: its death claim is stale and must be ignored.
        supervisor.declare_dead(0, "real death")
        supervisor._spawn(slot)
        supervisor.on_connected(0, 1)
        assert not supervisor.declare_dead(0, "ghost", incarnation=0)
        assert slot.state == UP

    def test_backoff_doubles_up_to_cap(self):
        # A crash loop: every release dies again before its HELLO, so
        # consecutive_failures keeps growing. The first death waits for
        # nothing; the k-th (k >= 2) waits backoff_start * 2^(k-2).
        supervisor, clock, listener = make_supervisor(restart_budget=100)
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        supervisor.on_connected(0, slot.incarnation)
        delays = []
        for round_no in range(7):
            clock.now += 10.0
            supervisor.declare_dead(0, f"death {round_no}")
            delays.append(slot.restart_at - clock.now)
            supervisor._spawn(slot)
        assert delays == pytest.approx([0.0, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0])

    def test_reconnect_resets_consecutive_failures(self):
        supervisor, clock, listener = make_supervisor(restart_budget=100)
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        supervisor.on_connected(0, 0)
        supervisor.declare_dead(0, "one")
        supervisor._spawn(slot)
        supervisor.on_connected(0, slot.incarnation)
        assert slot.consecutive_failures == 0
        clock.now = 50.0
        supervisor.declare_dead(0, "two")
        # A first failure again: released at once, not backed off.
        assert slot.restart_at == clock.now
        supervisor._spawn(slot)
        clock.now = 60.0
        supervisor.declare_dead(0, "three, before a HELLO")
        assert slot.restart_at - clock.now == pytest.approx(0.1)


class TestCircuitBreaker:
    def test_budget_exhaustion_quarantines(self):
        supervisor, clock, listener = make_supervisor(restart_budget=3)
        slot = supervisor.slots[0]
        supervisor._spawn(slot)  # initial spawn: not a restart
        for i in range(10):
            supervisor.on_connected(0, slot.incarnation)
            clock.now += 1.0
            supervisor.declare_dead(0, f"crash {i}")
            if slot.state == QUARANTINED:
                break
            supervisor._spawn(slot)
        assert slot.state == QUARANTINED
        # 3 restarts spent the budget; the 4th death trips the breaker.
        assert slot.restarts == 3
        # Nothing is ever released for a quarantined slot.
        clock.now += 1000.0
        supervisor._tick()
        assert (slot.state, slot.incarnation) == (QUARANTINED, 3)
        assert listener.quarantined == [0]
        assert supervisor.quarantined == [0]

    def test_old_restarts_age_out_of_the_window(self):
        supervisor, clock, listener = make_supervisor(restart_budget=2)
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        for _ in range(2):
            supervisor.on_connected(0, slot.incarnation)
            clock.now += 1.0
            supervisor.declare_dead(0, "early crash")
            supervisor._spawn(slot)
        # Both restarts are inside the window; one more death would
        # quarantine. But far in the future they have aged out:
        clock.now += 1000.0 + RESTART_WINDOW
        supervisor.on_connected(0, slot.incarnation)
        supervisor.declare_dead(0, "much later crash")
        assert slot.state == DOWN  # restarted, not quarantined
        assert listener.quarantined == []

    def test_quarantined_slot_rejects_reconnection(self):
        supervisor, clock, listener = make_supervisor(restart_budget=1)
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        supervisor.on_connected(0, 0)
        supervisor.declare_dead(0, "crash 0")
        supervisor._spawn(slot)
        supervisor.on_connected(0, slot.incarnation)
        supervisor.declare_dead(0, "crash 1")
        assert slot.state == QUARANTINED
        assert not supervisor.on_connected(0, slot.incarnation)


class TestSpare:
    """One booted interpreter per region, taken by the next release."""

    def test_release_launches_when_no_spare_is_parked(self):
        supervisor, clock, listener = make_supervisor(n=1)
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        supervisor.on_connected(0, 0)
        clock.now = 5.0
        assert supervisor.declare_dead(0, "kill")
        assert not supervisor.declare_dead(0, "second caller loses")
        # The death launches nothing; the incarnation waits for the
        # release, which launches the interpreter it starts.
        assert supervisor.launches == []
        assert (slot.state, slot.incarnation, slot.restarts) == (DOWN, 0, 0)
        supervisor._tick()
        assert len(supervisor.launches) == 1
        assert slot.process is supervisor.launches[0]
        assert (slot.state, slot.incarnation, slot.restarts) == (
            STARTING, 1, 1
        )

    def test_release_takes_the_parked_spare(self):
        supervisor, clock, listener = make_supervisor(n=1)
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        supervisor.on_connected(0, 0)
        spare = supervisor._spare = ParkedProcess()
        assert supervisor.declare_dead(0, "kill")
        assert supervisor._spare is spare  # the death leaves it parked
        supervisor._tick()
        assert slot.process is spare
        assert (slot.state, slot.incarnation) == (STARTING, 1)
        assert supervisor._spare is None
        assert supervisor.launches == []

    def test_dead_spare_is_reaped_and_the_release_launches(self):
        supervisor, clock, listener = make_supervisor(n=1)
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        # Killed while parked; or exited 0 at boot, its connect refused.
        for incarnation, returncode in enumerate((-9, 0), start=1):
            supervisor.on_connected(0, incarnation - 1)
            spare = supervisor._spare = ParkedProcess()
            spare.returncode = returncode
            assert supervisor.declare_dead(0, "kill")
            supervisor._tick()
            assert spare.stdin.closed
            assert supervisor._spare is None
            assert len(supervisor.launches) == incarnation
            assert slot.process is supervisor.launches[-1]
            assert (slot.state, slot.incarnation) == (STARTING, incarnation)

    def test_monitor_parks_a_spare_after_a_death_once_all_serve(self):
        supervisor, clock, listener = make_supervisor(n=3)
        for slot in supervisor.slots:
            supervisor._spawn(slot)
        supervisor.on_connected(0, 0)
        supervisor.on_connected(1, 0)
        supervisor.on_connected(2, 0)
        supervisor._tick()
        assert supervisor.launches == []  # no death yet: no spare
        supervisor.declare_dead(0, "kill")
        supervisor._tick()  # the release: slot 0 is STARTING
        supervisor._tick()
        assert len(supervisor.launches) == 1
        assert supervisor._spare is None
        supervisor.slots[2].state = QUARANTINED  # does not count
        supervisor.on_connected(0, 1)
        supervisor._tick()
        supervisor._tick()
        assert len(supervisor.launches) == 2
        assert supervisor._spare is supervisor.launches[1]

    def test_release_waits_for_the_failover_to_return(self):
        # The failover detaches the dead connection; a release before it
        # returns would let the next incarnation connect beside it. No
        # clock reading may release the slot early.
        supervisor, clock, listener = make_supervisor(n=1)
        entered, leave = threading.Event(), threading.Event()

        def blocking_down(slot, reason):
            entered.set()
            assert leave.wait(10.0)

        listener.on_slot_down = blocking_down
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        supervisor.on_connected(0, 0)
        clock.now = 5.0
        failover = threading.Thread(
            target=supervisor.declare_dead, args=(0, "kill")
        )
        failover.start()
        try:
            assert entered.wait(10.0)
            clock.now = 1000.0  # far past restart_at
            assert slot.restart_at < clock.now
            supervisor._tick()
            with supervisor.lock:
                # Not a due release either: the monitor sleeps a tick.
                assert supervisor._wait_s() == pytest.approx(0.05)
            assert (slot.state, slot.incarnation) == (DOWN, 0)
            assert supervisor.spawns == [(0, 0)]
        finally:
            leave.set()
            failover.join(timeout=10.0)
        assert not failover.is_alive()
        # Returning wakes the monitor, whose next pass releases.
        assert supervisor._kick.is_set()
        supervisor._tick()
        assert (slot.state, slot.incarnation) == (STARTING, 1)

    def test_monitor_sleeps_to_the_tick_or_the_earliest_due_release(self):
        supervisor, clock, listener = make_supervisor(
            n=3, monitor_interval=0.05
        )
        for slot in supervisor.slots:
            supervisor._spawn(slot)
            supervisor.on_connected(slot.index, 0)
        clock.now = 10.0
        with supervisor.lock:
            assert supervisor._wait_s() == pytest.approx(0.05)
        for index, due in ((0, 10.03), (1, 10.01), (2, 10.2)):
            supervisor.slots[index].state = DOWN
            supervisor.slots[index].restart_at = due
        with supervisor.lock:
            assert supervisor._wait_s() == pytest.approx(0.01)
            supervisor._failing.add(1)  # failover in flight: not due
            assert supervisor._wait_s() == pytest.approx(0.03)
            clock.now = 10.04  # overdue: no sleep at all
            assert supervisor._wait_s() == 0.0
            supervisor.slots[0].state = QUARANTINED
            assert supervisor._wait_s() == pytest.approx(0.05)


class TestMonitor:
    def test_failed_launch_keeps_slot_down_and_the_monitor_running(self):
        # Out of descriptors at the release: the slot stays DOWN, is
        # retried after the crash-loop backoff, and the same pass still
        # detects a death on another slot.
        supervisor, clock, listener = make_supervisor()
        for slot in supervisor.slots:
            supervisor._spawn(slot)
            supervisor.on_connected(slot.index, 0)
        slot = supervisor.slots[1]
        clock.now = 5.0
        supervisor.heartbeat(1, 0)
        assert supervisor.declare_dead(1, "SIGKILL")
        supervisor.launch_error = OSError(errno.EMFILE, "Too many open files")
        clock.now = 5.0 + supervisor.config.heartbeat_timeout + 0.01
        supervisor._tick()  # slot 0 has been silent since 0.0
        assert (slot.state, slot.incarnation) == (DOWN, 0)
        assert slot.restart_at == pytest.approx(clock.now + 0.1)
        assert [e.channel for e in supervisor.episodes] == [1, 0]
        # Launches work again; the release waits out the backoff.
        supervisor.launch_error = None
        supervisor._tick()
        assert (slot.state, slot.incarnation) == (DOWN, 0)
        clock.now += 0.1
        supervisor._tick()
        assert (slot.state, slot.incarnation) == (STARTING, 1)
        assert slot.process is supervisor.launches[-1]


class TestEpisodes:
    def test_note_fault_anchors_time_to_quarantine(self):
        supervisor, clock, listener = make_supervisor()
        supervisor._spawn(supervisor.slots[0])
        supervisor.on_connected(0, 0)
        clock.now = 10.0
        supervisor.note_fault(0)
        clock.now = 10.25
        supervisor.declare_dead(0, "injected kill")
        assert supervisor.ledger.time_to_quarantine() == pytest.approx(0.25)

    def test_reconnection_closes_the_episode(self):
        supervisor, clock, listener = make_supervisor()
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        supervisor.on_connected(0, 0)
        clock.now = 10.0
        supervisor.declare_dead(0, "kill")
        supervisor._spawn(slot)
        clock.now = 12.5
        supervisor.on_connected(0, slot.incarnation)
        assert supervisor.ledger.time_to_reconverge() == pytest.approx(2.5)
        assert listener.ups == [0, 0]

    def test_fault_noted_while_down_does_not_anchor_the_next_death(self):
        # The note-then-kill pattern on a slot that is already DOWN kills
        # nothing; the next, unrelated death must not be blamed on it.
        supervisor, clock, listener = make_supervisor()
        hub = ObservabilityHub(clock)
        supervisor.attach_observability(hub)
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        supervisor.on_connected(0, 0)
        clock.now = 1.0
        supervisor.note_fault(0)
        clock.now = 1.1
        supervisor.declare_dead(0, "injected kill")
        clock.now = 1.3
        supervisor.note_fault(0)
        supervisor._spawn(slot)
        clock.now = 1.5
        supervisor.on_connected(0, slot.incarnation)
        clock.now = 2.5
        supervisor.declare_dead(0, "raw kill")
        second = supervisor.episodes[1]
        assert second.fault_at is None
        assert second.time_to_quarantine() is None
        detections = [s for s in hub.tracer.spans if s.kind == "detection"]
        assert [s.start for s in detections] == [1.0]

    def test_unanchored_episode_has_no_ttq(self):
        supervisor, clock, listener = make_supervisor()
        supervisor._spawn(supervisor.slots[0])
        supervisor.on_connected(0, 0)
        supervisor.declare_dead(0, "spontaneous death")
        assert supervisor.ledger.time_to_quarantine() is None


class TestConfigValidation:
    def test_rejects_backoff_max_below_backoff_start(self):
        # Every backoff would be capped below the configured start.
        with pytest.raises(ValueError, match="backoff_max.*backoff_start"):
            SupervisorConfig(backoff_start=0.5, backoff_max=0.1)
        SupervisorConfig(backoff_start=0.5, backoff_max=0.5)

    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError, match="backoff_jitter"):
            SupervisorConfig(backoff_jitter=1.5)

    @pytest.mark.parametrize("timeout", [0.1, 0.2])
    def test_rejects_heartbeat_timeout_not_above_interval(self, timeout):
        # A timeout at or below the beat period declares every healthy
        # worker dead between two of its own heartbeats.
        with pytest.raises(
            ValueError, match="heartbeat_timeout.*heartbeat_interval"
        ):
            SupervisorConfig(
                heartbeat_interval=0.2,
                heartbeat_timeout=timeout,
                monitor_interval=0.01,
            )

    def test_rejects_unknown_worker_mode(self):
        with pytest.raises(ValueError, match="worker_mode"):
            SupervisorConfig(worker_mode="warp")

    def test_rejects_empty_slots(self):
        with pytest.raises(ValueError, match="at least one"):
            Supervisor(
                [],
                port=1,
                listener=RecordingListener(),
                lock=threading.RLock(),
                clock=FakeClock(),
            )
