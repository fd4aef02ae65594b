"""Recovery coordinator tests: detection, failover, reintegration, metrics.

The final class is the acceptance test of the fault-tolerance work: a
4-PE region with one PE crashing mid-run and restarting later completes
with the merger emitting every tuple exactly once in order, the weights
reconverging, and the ``RunResult`` carrying nonzero recovery metrics —
deterministically.
"""

import dataclasses

import pytest

from repro.experiments.config import (
    ExperimentConfig,
    HostSpec,
    fault_recovery_scenario,
)
from repro.experiments.figures import fig09_config
from repro.experiments.runner import run_experiment
from repro.faults import FaultSchedule, RecoveryConfig
from repro.faults.recovery import (
    first_time_to_quarantine,
    first_time_to_reconverge,
)
from repro.streams.region import RegionParams


class TestConfigValidation:
    def test_defaults_are_valid(self):
        RecoveryConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"check_interval": 0.0},
            {"staleness_timeout": -1.0},
            {"heartbeat_confirmations": 0},
            {"gap_policy": "retry"},
            {"skip_timeout": 0.0},
            {"check_interval": float("nan")},
            {"staleness_timeout": float("inf")},
            {"heartbeat_confirmations": -2},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryConfig(**kwargs)


class TestDetection:
    def test_crash_is_detected_within_staleness_window(self, rig_factory):
        rig = rig_factory(n=4)
        rig.sim.call_at(2.0, lambda: rig.injector.crash(1))
        rig.run(8.0)
        assert rig.recovery.quarantines == 1
        episode = rig.recovery.episodes[0]
        assert episode.channel == 1
        assert episode.fault_at == pytest.approx(2.0)
        # Detection needs staleness_timeout (1 s) of no progress, rounded
        # up to the next 0.25 s check.
        assert 1.0 <= episode.time_to_quarantine() <= 1.5

    def test_long_stall_is_detected(self, rig_factory):
        rig = rig_factory(n=4)
        rig.sim.call_at(2.0, lambda: rig.injector.stall(2))
        rig.run(8.0)
        assert rig.recovery.quarantines == 1
        assert rig.recovery.episodes[0].channel == 2

    def test_healthy_run_never_quarantines(self, rig_factory):
        rig = rig_factory(n=4)
        rig.run(10.0)
        assert rig.recovery.quarantines == 0

    def test_short_flap_beats_the_monitor(self, rig_factory):
        """A stall shorter than the staleness window is absorbed silently."""
        total = 800
        rig = rig_factory(n=4, total=total)
        rig.sim.call_at(2.0, lambda: rig.injector.stall(0))
        rig.sim.call_at(2.5, lambda: rig.injector.unstall(0))
        merger = rig.run(60.0, stop_on_total=total)
        assert rig.recovery.quarantines == 0
        assert merger.emitted == total


class TestFailover:
    def test_quarantine_pins_weight_to_zero(self, rig_factory):
        rig = rig_factory(n=4)
        rig.sim.call_at(2.0, lambda: rig.injector.crash(1))
        rig.run(6.0)
        assert rig.balancer.weights[1] == 0
        assert rig.routing.weights[1] == 0
        assert 1 in rig.balancer.quarantined
        assert not rig.region.splitter.live[1]

    def test_replay_policy_keeps_sequence_gap_free(self, rig_factory):
        total = 1500
        rig = rig_factory(n=4, total=total)
        rig.sim.call_at(2.0, lambda: rig.injector.crash(1))
        merger = rig.run(120.0, stop_on_total=total)
        assert merger.emitted == total
        assert merger.tuples_lost == 0
        assert rig.recovery.episodes[0].replayed > 0
        assert rig.region.splitter.tuples_replayed > 0

    def test_skip_policy_bounds_the_gap(self, rig_factory):
        total = 1500
        rig = rig_factory(
            n=4, total=total, recovery_config=RecoveryConfig(gap_policy="skip")
        )
        rig.sim.call_at(2.0, lambda: rig.injector.crash(1))
        merger = rig.run(120.0, stop_on_total=total)
        episode = rig.recovery.episodes[0]
        assert episode.lost > 0
        assert merger.tuples_lost == episode.lost
        assert merger.emitted + merger.tuples_lost == total
        assert rig.region.splitter.tuples_replayed == 0

    def test_survivors_absorb_the_dead_channels_share(self, rig_factory):
        rig = rig_factory(n=4)
        rig.sim.call_at(2.0, lambda: rig.injector.crash(0))
        rig.run(20.0)
        sent = rig.region.splitter.sent_per_connection
        # After the failover everything routes to the three survivors.
        survivors = sent[1] + sent[2] + sent[3]
        assert survivors > 3 * sent[0]


class TestReintegration:
    def test_restarted_channel_is_reintegrated(self, rig_factory):
        rig = rig_factory(n=4)
        rig.sim.call_at(2.0, lambda: rig.injector.crash(1, restart_after=4.0))
        rig.run(30.0)
        episode = rig.recovery.episodes[0]
        assert episode.reintegrated_at is not None
        assert episode.reintegrated_at >= 6.0
        assert rig.region.splitter.live[1]
        assert 1 not in rig.balancer.quarantined
        # The channel earns traffic again after reintegration.
        assert rig.balancer.weights[1] > 0

    def test_dead_channel_stays_quarantined(self, rig_factory):
        rig = rig_factory(n=4)
        rig.sim.call_at(2.0, lambda: rig.injector.crash(1))
        rig.run(30.0)
        episode = rig.recovery.episodes[0]
        assert episode.reintegrated_at is None
        assert not rig.region.splitter.live[1]
        assert rig.balancer.weights[1] == 0

    def test_metrics_are_populated(self, rig_factory):
        rig = rig_factory(n=4)
        rig.sim.call_at(2.0, lambda: rig.injector.crash(1, restart_after=4.0))
        rig.run(60.0)
        episodes = rig.recovery.episodes
        assert first_time_to_quarantine(episodes) == pytest.approx(
            1.0, abs=0.5
        )
        ttr = first_time_to_reconverge(episodes)
        assert ttr is not None and ttr > 0.0


class TestAllChannelsDead:
    def test_splitter_parks_and_resumes(self, rig_factory):
        total = 600
        rig = rig_factory(n=2, total=total)
        rig.sim.call_at(1.0, lambda: rig.injector.crash(0, restart_after=6.0))
        rig.sim.call_at(1.1, lambda: rig.injector.crash(1, restart_after=6.0))
        merger = rig.run(120.0, stop_on_total=total)
        # Both channels died; both restarted; the run still drains fully.
        assert merger.emitted == total
        assert merger.tuples_lost == 0


class TestAcceptance:
    """The issue's acceptance criteria, via the experiment runner."""

    @staticmethod
    def _config(total=6000):
        speed = 2e5
        return ExperimentConfig(
            name="acceptance-fault",
            n_workers=4,
            tuple_cost=10_000,
            host_specs=[HostSpec("slow", thread_speed=speed)],
            worker_host=[0, 0, 0, 0],
            total_tuples=total,
            duration=400.0,
            splitter_cost_multiplies=2_000,
            fault_schedule=FaultSchedule.crash(1, at=15.0, restart_after=30.0),
        )

    def test_crash_restart_run_meets_acceptance(self):
        total = 6000
        result = run_experiment(self._config(total), "lb-adaptive")
        # Every tuple exactly once, in order: the merger raises on any
        # duplicate or out-of-order emission, so completion == exactly-once.
        assert result.completed
        assert result.emitted == total
        assert result.tuples_lost == 0
        # Nonzero recovery metrics.
        assert result.quarantines == 1
        assert result.time_to_quarantine is not None
        assert result.time_to_quarantine > 0.0
        assert result.time_to_reconverge is not None
        assert result.time_to_reconverge > 0.0
        assert result.tuples_replayed > 0
        # Weights reconverge: the crashed channel carries real weight again.
        assert result.final_weights[1] > 0

    def test_early_crash_in_block_mode_loses_nothing(self):
        # A worker in block mode holds a whole run (up to batch_size
        # tuples) unacknowledged in service; the default retransmit buffer
        # must cover it, or a crash loses the evicted tail of that run
        # under the replay policy.
        total = 5000
        config = dataclasses.replace(
            fig09_config(8, dynamic=True, total_tuples=total),
            region=RegionParams(fault_tolerant=True, batch_size=16),
            fault_schedule=FaultSchedule.crash(1, at=1.25, restart_after=0.83),
        )
        result = run_experiment(config, "lb-adaptive")
        # The ordered merger raises on a duplicate or out-of-order tuple,
        # so a completed run that emitted the whole budget with nothing
        # lost is ordered, gap-free and exactly-once.
        assert result.completed
        assert result.tuples_lost == 0
        assert result.emitted == total
        assert result.tuples_replayed > 0

    @pytest.mark.parametrize("batch_size", [1, 4, 16, 32, 64])
    def test_one_episode_at_any_batch_size(self, batch_size):
        # A worker in block mode counts a run as processed only when the
        # whole run completes; a 32-tuple run at 0.05 s a tuple outlasts
        # the 1 s staleness timeout, and a live PE in service must not be
        # mistaken for a dead one.
        config = (
            fault_recovery_scenario()
            .with_batch_size(batch_size)
            .with_observability()
        )
        result = run_experiment(config, "lb-adaptive")
        quarantined = [
            span["attrs"]["channel"]
            for span in result.obs.spans_of_kind("quarantine")
        ]
        assert quarantined == [1]
        assert result.quarantines == 1
        assert result.tuples_lost == 0
        assert result.sim_time == config.duration
        if batch_size == 1:
            assert result.time_to_quarantine == 1.0
            assert result.time_to_reconverge == 4.0
            assert result.tuples_replayed == 65
            assert result.emitted == 8689

    def test_fault_run_is_deterministic(self):
        first = run_experiment(self._config(), "lb-adaptive")
        second = run_experiment(self._config(), "lb-adaptive")
        assert first.emitted == second.emitted
        assert first.events_processed == second.events_processed
        assert first.final_weights == second.final_weights
        assert first.time_to_quarantine == second.time_to_quarantine
        assert first.time_to_reconverge == second.time_to_reconverge
        assert first.tuples_replayed == second.tuples_replayed

    def test_scenario_builder_round_trips(self):
        config = fault_recovery_scenario(gap_policy="skip")
        assert config.region.fault_tolerant
        assert not config.fault_schedule.empty()
        assert config.recovery.gap_policy == "skip"
        copy = dataclasses.replace(config, name="renamed")
        assert copy.name == "renamed"
        assert not copy.fault_schedule.empty()
