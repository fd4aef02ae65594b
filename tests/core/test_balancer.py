"""Unit tests for the load-balancing controller.

Dataplane-free: the controller sees only counter values, so tests feed it
synthetic counters (or drive it against the fluid model) and inspect the
weights it emits.
"""

import pytest

from repro.core.balancer import (
    BalancerConfig,
    LoadBalancer,
    distribute_evenly,
    even_split,
)
from repro.sim.fluid import FluidRegion


class TestHelpers:
    def test_even_split_sums_to_resolution(self):
        assert even_split(1000, 3) == [334, 333, 333]
        assert sum(even_split(1000, 7)) == 1000

    def test_even_split_requires_connections(self):
        with pytest.raises(ValueError):
            even_split(1000, 0)

    def test_distribute_evenly_balanced(self):
        assert distribute_evenly(10, [0, 0, 0], [10, 10, 10]) == [4, 3, 3]

    def test_distribute_evenly_respects_maxima(self):
        assert distribute_evenly(10, [0, 0], [2, 10]) == [2, 8]

    def test_distribute_evenly_starts_at_minima(self):
        assert distribute_evenly(10, [5, 0], [10, 10]) == [5, 5]

    def test_distribute_evenly_infeasible_total(self):
        with pytest.raises(ValueError):
            distribute_evenly(10, [0], [5])
        with pytest.raises(ValueError):
            distribute_evenly(3, [2, 2], [5, 5])


class TestConfig:
    def test_lb_adaptive_uses_paper_decay(self):
        assert BalancerConfig().decay == 0.1

    def test_invalid_decay_rejected(self):
        with pytest.raises(ValueError):
            BalancerConfig(decay=1.0)

    def test_invalid_hysteresis_rejected(self):
        with pytest.raises(ValueError):
            BalancerConfig(hysteresis=1.0)


class TestControlLoop:
    def test_starts_with_even_split(self):
        balancer = LoadBalancer(4)
        assert balancer.weights == [250, 250, 250, 250]

    def test_priming_sample_returns_none(self):
        balancer = LoadBalancer(2)
        assert balancer.update(0.0, [0.0, 0.0]) is None
        assert balancer.rounds == 0

    def test_weights_always_sum_to_resolution(self):
        balancer = LoadBalancer(3, BalancerConfig(max_increase=50))
        counters = [0.0, 0.0, 0.0]
        for step in range(1, 20):
            counters[step % 3] += 0.3
            weights = balancer.update(float(step), list(counters))
            if weights is not None:
                assert sum(weights) == 1000
                assert all(w >= 0 for w in weights)

    def test_blocked_connection_loses_weight(self):
        balancer = LoadBalancer(2)
        balancer.update(0.0, [0.0, 0.0])
        weights = balancer.update(1.0, [0.9, 0.0])
        assert weights[0] < 500
        assert weights[1] > 500

    def test_no_signal_means_no_movement(self):
        # The hysteresis gate: with all-zero rates the functions cannot
        # distinguish allocations, so the weights must not drift.
        balancer = LoadBalancer(3)
        for step in range(5):
            balancer.update(float(step), [0.0, 0.0, 0.0])
        assert balancer.weights == even_split(1000, 3)

    def test_static_config_never_decays(self):
        balancer = LoadBalancer(2, BalancerConfig(decay=0.0))
        balancer.update(0.0, [0.0, 0.0])
        balancer.update(1.0, [0.8, 0.0])
        frozen = balancer.functions[0].raw_value(500)
        for step in range(2, 30):
            balancer.update(float(step), [0.8 * step, 0.0])
        # The raw point at the old weight is never decayed.
        assert balancer.functions[0].raw_value(500) == frozen

    def test_movement_bounds_respected(self):
        balancer = LoadBalancer(
            2, BalancerConfig(max_increase=50, max_decrease=50, hysteresis=0.0)
        )
        balancer.update(0.0, [0.0, 0.0])
        weights = balancer.update(1.0, [0.9, 0.0])
        assert weights == [450, 550]

    def test_counter_length_checked(self):
        balancer = LoadBalancer(2)
        with pytest.raises(ValueError):
            balancer.update(0.0, [0.0])


class TestAgainstFluidModel:
    def run_loop(self, balancer, region, rounds):
        for _ in range(rounds):
            region.advance(1.0)
            counters = [c.read() for c in region.blocking_counters]
            weights = balancer.update(region.time, counters)
            if weights is not None:
                region.set_weights(weights)

    def test_capacity_imbalance_detected(self):
        # Worker 0 can do 10/s, worker 1 can do 90/s; splitter 120/s.
        region = FluidRegion([10.0, 90.0], splitter_rate=120.0)
        balancer = LoadBalancer(2)
        self.run_loop(balancer, region, 120)
        weights = balancer.weights
        assert weights[0] < 250, weights
        assert region.throughput() > 80.0

    def test_equal_capacity_stays_near_even(self):
        region = FluidRegion([50.0, 50.0, 50.0], splitter_rate=180.0)
        balancer = LoadBalancer(3)
        self.run_loop(balancer, region, 150)
        assert max(balancer.weights) - min(balancer.weights) < 350

    def test_adapts_when_capacity_returns(self):
        region = FluidRegion([5.0, 50.0], splitter_rate=70.0)
        balancer = LoadBalancer(2)
        self.run_loop(balancer, region, 80)
        assert balancer.weights[0] < 200
        throughput_before = region.throughput()
        region.set_service_rate(0, 50.0)
        self.run_loop(balancer, region, 300)
        # LB-adaptive re-explores and rediscovers worker 0's capacity;
        # the climb stops once blocking vanishes, so assert the recovered
        # share and throughput rather than a full return to even.
        assert balancer.weights[0] > 150, balancer.weights
        assert region.throughput() > throughput_before

    def test_static_never_rediscovers(self):
        region = FluidRegion([5.0, 50.0], splitter_rate=70.0)
        balancer = LoadBalancer(2, BalancerConfig(decay=0.0))
        self.run_loop(balancer, region, 80)
        stuck = balancer.weights[0]
        region.set_service_rate(0, 50.0)
        self.run_loop(balancer, region, 300)
        assert balancer.weights[0] <= stuck + 50


class TestClusteredSolve:
    def test_cluster_snapshot_recorded(self):
        balancer = LoadBalancer(4, BalancerConfig(clustering=True))
        balancer.update(0.0, [0.0] * 4)
        balancer.update(1.0, [0.5, 0.5, 0.0, 0.0])
        assert sorted(j for c in balancer.last_clusters for j in c) == [0, 1, 2, 3]

    def test_clustered_weights_sum_to_resolution(self):
        balancer = LoadBalancer(8, BalancerConfig(clustering=True))
        counters = [0.0] * 8
        for step in range(1, 15):
            for j in range(4):
                counters[j] += 0.2
            weights = balancer.update(float(step), list(counters))
            if weights is not None:
                assert sum(weights) == 1000

    def test_similar_channels_grouped(self):
        balancer = LoadBalancer(4, BalancerConfig(clustering=True))
        balancer.update(0.0, [0.0] * 4)
        counters = [0.0] * 4
        for step in range(1, 25):
            counters[0] += 0.8
            counters[1] += 0.8
            balancer.update(float(step), list(counters))
        clusters = balancer.last_clusters
        cluster_of = {j: tuple(c) for c in clusters for j in c}
        assert cluster_of[0] == cluster_of[1]
