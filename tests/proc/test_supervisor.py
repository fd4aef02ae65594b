"""Unit tests for the supervisor's state machine, without any dataplane.

The supervisor's process-management logic — idempotent death handling,
capped jittered backoff, the restart-budget circuit breaker, stale
incarnation rejection — is exercised against a recording listener and a
controllable clock. No sockets, no subprocesses: ``_spawn`` is stubbed
so each "process" is just an incarnation bump.
"""

import threading

import pytest

from repro.faults.recovery import (
    first_time_to_quarantine,
    first_time_to_reconverge,
)
from repro.proc.supervisor import (
    DOWN,
    QUARANTINED,
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
        "restart_window": 100.0,
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
    # No real processes in these tests: a spawn is an incarnation bump.
    spawns = []

    def fake_spawn(slot):
        slot.incarnation += 1
        if slot.incarnation > 0:
            slot.restarts += 1
            slot.restart_times.append(clock())
        slot.process = None
        slot.state = STARTING
        slot.spawned_at = clock()
        spawns.append((slot.index, slot.incarnation))

    supervisor._spawn = fake_spawn
    supervisor.spawns = spawns
    return supervisor, clock, listener


class TestDeclareDead:
    def test_first_death_schedules_backoff_restart(self):
        supervisor, clock, listener = make_supervisor()
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        supervisor.on_connected(0, 0)
        clock.now = 5.0
        assert supervisor.declare_dead(0, "kill test")
        assert slot.state == DOWN
        assert slot.restart_at == pytest.approx(5.1)  # backoff_start
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
        supervisor, clock, listener = make_supervisor(restart_budget=100)
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        delays = []
        for _ in range(6):
            supervisor.on_connected(0, slot.incarnation)
            # Reconnection resets consecutive_failures; simulate a
            # crash-loop by never reconnecting between deaths instead.
            break
        supervisor.on_connected(0, slot.incarnation)
        for round_no in range(6):
            clock.now += 10.0
            # Each death is followed by a respawn but no reconnect, so
            # consecutive_failures keeps growing.
            if slot.state != UP and round_no > 0:
                slot.state = UP  # pretend the monitor saw it STARTING->UP
            supervisor.declare_dead(0, f"death {round_no}")
            delays.append(slot.restart_at - clock.now)
            supervisor._spawn(slot)
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.0, 1.0])

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
        # Back to the initial backoff, not the doubled one.
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
        assert listener.quarantined == [0]
        assert supervisor.quarantined == [0]

    def test_old_restarts_age_out_of_the_window(self):
        supervisor, clock, listener = make_supervisor(
            restart_budget=2, restart_window=10.0
        )
        slot = supervisor.slots[0]
        supervisor._spawn(slot)
        for _ in range(2):
            supervisor.on_connected(0, slot.incarnation)
            clock.now += 1.0
            supervisor.declare_dead(0, "early crash")
            supervisor._spawn(slot)
        # Both restarts are inside the window; one more death would
        # quarantine. But far in the future they have aged out:
        clock.now += 1000.0
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


class TestEpisodes:
    def test_note_fault_anchors_time_to_quarantine(self):
        supervisor, clock, listener = make_supervisor()
        supervisor._spawn(supervisor.slots[0])
        supervisor.on_connected(0, 0)
        clock.now = 10.0
        supervisor.note_fault(0)
        clock.now = 10.25
        supervisor.declare_dead(0, "injected kill")
        assert first_time_to_quarantine(supervisor.episodes) == pytest.approx(
            0.25
        )

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
        assert first_time_to_reconverge(supervisor.episodes) == pytest.approx(
            2.5
        )
        assert listener.ups == [0, 0]

    def test_unanchored_episode_has_no_ttq(self):
        supervisor, clock, listener = make_supervisor()
        supervisor._spawn(supervisor.slots[0])
        supervisor.on_connected(0, 0)
        supervisor.declare_dead(0, "spontaneous death")
        assert first_time_to_quarantine(supervisor.episodes) is None


class TestConfigValidation:
    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError, match="backoff_jitter"):
            SupervisorConfig(backoff_jitter=1.5)

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
