"""Unit tests for experiment configuration."""

import pytest

from repro.experiments.config import ExperimentConfig, HostSpec
from repro.workloads.external_load import LoadSchedule


def minimal(**overrides):
    defaults = dict(
        name="test",
        n_workers=2,
        tuple_cost=1000.0,
        host_specs=[HostSpec("h", thread_speed=1e5)],
        duration=10.0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestHostSpec:
    def test_build_creates_fresh_hosts(self):
        spec = HostSpec("h", cores=4, thread_speed=100.0)
        assert spec.build() is not spec.build()

    def test_slow_factory(self):
        spec = HostSpec.slow(1e5)
        assert spec.cores == 8
        assert spec.smt_per_core == 1

    def test_fast_factory_speed_ratio(self):
        spec = HostSpec.fast(1e5)
        assert spec.smt_per_core == 2
        assert spec.thread_speed == pytest.approx(1.857e5)

    def test_validation(self):
        with pytest.raises(ValueError):
            HostSpec("h", cores=0)


class TestExperimentConfig:
    def test_default_placement_fills_cores(self):
        config = minimal(
            n_workers=10,
            host_specs=[HostSpec("a", cores=8, thread_speed=1e5),
                        HostSpec("b", cores=8, thread_speed=1e5)],
        )
        assert config.worker_host == [0] * 8 + [1] * 2

    def test_worker_host_length_checked(self):
        with pytest.raises(ValueError):
            minimal(worker_host=[0])

    def test_worker_host_bounds_checked(self):
        with pytest.raises(ValueError):
            minimal(worker_host=[0, 5])

    def test_needs_budget_or_horizon(self):
        with pytest.raises(ValueError):
            minimal(duration=None)

    def test_splitter_cost_sets_send_overhead(self):
        config = minimal(splitter_cost_multiplies=200.0)
        assert config.region.send_overhead == pytest.approx(200.0 / 1e5)

    def test_splitter_thread_speed_override(self):
        config = minimal(
            splitter_cost_multiplies=200.0, splitter_thread_speed=2e5
        )
        assert config.region.send_overhead == pytest.approx(200.0 / 2e5)

    def test_explicit_send_overhead_when_cost_disabled(self):
        from repro.streams.region import RegionParams

        config = minimal(
            splitter_cost_multiplies=None,
            region=RegionParams(send_overhead=0.25),
        )
        assert config.region.send_overhead == 0.25

    def test_horizon_uses_duration_when_set(self):
        assert minimal(duration=42.0).horizon() == 42.0

    def test_horizon_bounds_finite_runs(self):
        config = minimal(
            duration=None,
            total_tuples=100,
            load_schedule=LoadSchedule.static_load([0], 10.0),
        )
        # 100 tuples, 1000 multiplies, 10x load, 1e5 speed:
        # worst 0.1 s/tuple -> horizon >= 2 * 100 * 0.1.
        assert config.horizon() >= 20.0

    def test_build_placement_shares_host_objects(self):
        config = minimal(n_workers=2)
        placement = config.build_placement()
        assert placement[0] is placement[1]

