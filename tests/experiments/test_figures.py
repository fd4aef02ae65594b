"""Sanity tests for the per-figure experiment builders.

Full shape checks live in ``benchmarks/``; here we verify the builders
produce internally consistent configurations (separation of time scales,
load classes, placements) without running the heavy experiments.
"""

import pytest

from repro.experiments import figures


class TestScalingDiscipline:
    """Every figure must respect interval >> heaviest service time."""

    @pytest.mark.parametrize(
        "config,heavy_multiplier",
        [
            (figures.fig08_top_config(), 100.0),
            (figures.fig08_bottom_config(), 1.0),
            (figures.fig09_config(8, dynamic=True), 10.0),
            (figures.fig10_config(8, dynamic=True), 100.0),
            (figures.fig11_top_config(), 1.0),
            (figures.fig12_config(), 100.0),
            (figures.fig13_config(32), 100.0),
        ],
    )
    def test_heavy_service_fits_in_interval(self, config, heavy_multiplier):
        slowest_thread = min(s.thread_speed for s in config.host_specs)
        heavy_service = config.tuple_cost * heavy_multiplier / slowest_thread
        assert heavy_service <= config.sample_interval / 5.0, config.name


class TestFig08:
    def test_top_has_one_loaded_pe_removed_at_eighth(self):
        config = figures.fig08_top_config(duration=400.0)
        assert config.load_schedule.initial_multipliers(3) == [100.0, 1.0, 1.0]
        assert config.load_schedule.change_times() == [50.0]

    def test_bottom_has_equal_capacity(self):
        config = figures.fig08_bottom_config()
        assert config.load_schedule.initial_multipliers(3) == [1.0, 1.0, 1.0]


class TestFig09Fig10:
    def test_half_loaded(self):
        config = figures.fig09_config(8, dynamic=False)
        multipliers = config.load_schedule.initial_multipliers(8)
        assert multipliers == [10.0] * 4 + [1.0] * 4

    def test_dynamic_removal_at_eighth_of_budget(self):
        config = figures.fig09_config(4, dynamic=True, total_tuples=8000)
        assert all(e.emitted == 1000 for e in config.load_schedule.count_events)

    def test_fig09_splitter_knee_at_8_pes(self):
        config = figures.fig09_config(8, dynamic=False)
        per_pe = figures.SLOW_SPEED / config.tuple_cost
        assert 1.0 / config.region.send_overhead == pytest.approx(8 * per_pe)

    def test_fig10_load_is_100x(self):
        config = figures.fig10_config(4, dynamic=False)
        assert config.load_schedule.initial_multipliers(4)[:2] == [100.0, 100.0]

    def test_no_oversubscription(self):
        for n in (2, 4, 8, 16):
            config = figures.fig09_config(n, dynamic=False)
            assert config.host_specs[0].cores >= n


class TestFig11:
    def test_top_places_connection1_on_fast_host(self):
        config = figures.fig11_top_config()
        assert config.host_specs[config.worker_host[0]].smt_per_core == 2
        assert config.host_specs[config.worker_host[1]].smt_per_core == 1

    def test_even_placement_fills_slow_then_fast(self):
        config = figures.fig11_bottom_config(24, "even")
        slow_count = sum(1 for h in config.worker_host if h == 0)
        fast_count = sum(1 for h in config.worker_host if h == 1)
        assert slow_count == 8
        assert fast_count == 16

    def test_even_placement_half_half_at_16(self):
        config = figures.fig11_bottom_config(16, "even")
        assert sum(1 for h in config.worker_host if h == 0) == 8

    def test_all_fast_and_all_slow(self):
        fast = figures.fig11_bottom_config(8, "all-fast")
        slow = figures.fig11_bottom_config(8, "all-slow")
        assert set(fast.worker_host) == {1}
        assert set(slow.worker_host) == {0}

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            figures.fig11_bottom_config(8, "scattered")


class TestFig12Fig13:
    def test_fig12_three_load_classes(self):
        config = figures.fig12_config()
        multipliers = config.load_schedule.initial_multipliers(64)
        assert multipliers.count(100.0) == 20
        assert multipliers.count(5.0) == 20
        assert multipliers.count(1.0) == 24

    def test_fig12_clustering_enabled(self):
        assert figures.fig12_config().balancer.clustering

    def test_fig12_trickle_safe_sigma(self):
        # sigma must stay below resolution x the 100x PEs' service rate so
        # a 0.1% residual weight cannot gate the region (see DESIGN.md).
        config = figures.fig12_config()
        heavy_rate = config.host_specs[0].thread_speed / (
            config.tuple_cost * 100.0
        )
        assert 1.0 / config.region.send_overhead <= 1000 * heavy_rate

    def test_fig13_half_loaded_with_progress_removal(self):
        config = figures.fig13_config(32, total_tuples=80_000)
        multipliers = config.load_schedule.initial_multipliers(32)
        assert multipliers[:16] == [100.0] * 16
        assert all(e.emitted == 10_000 for e in config.load_schedule.count_events)


class TestSec44:
    def test_one_pe_100x(self):
        config = figures.sec44_config(1000)
        assert config.load_schedule.initial_multipliers(2) == [100.0, 1.0]

    def test_figure_index_covers_all_figures(self):
        figures_listed = {f.figure for f in figures.FIGURES}
        assert {"Fig. 2", "Fig. 5", "Fig. 7", "Fig. 8 top", "Fig. 8 bottom",
                "Fig. 9", "Fig. 10", "Fig. 11 top", "Fig. 11 bottom",
                "Fig. 12", "Fig. 13", "Sec. 4.4"} == figures_listed
