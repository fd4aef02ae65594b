"""Edge-case tests for the controller: bounds and clustering paths."""

import pytest

from repro.core.balancer import BalancerConfig, LoadBalancer, distribute_evenly


class TestBoundsInteraction:
    def test_weight_floor_keeps_everyone_probed(self):
        balancer = LoadBalancer(4, BalancerConfig(weight_floor=20))
        balancer.update(0.0, [0.0] * 4)
        counters = [0.0] * 4
        for step in range(1, 30):
            counters[0] += 0.9
            weights = balancer.update(float(step), list(counters))
        assert min(weights) >= 20

    def test_single_connection_degenerate(self):
        balancer = LoadBalancer(1)
        balancer.update(0.0, [0.0])
        weights = balancer.update(1.0, [0.7])
        assert weights == [1000]

    def test_symmetric_decrease_bound(self):
        balancer = LoadBalancer(
            2, BalancerConfig(max_decrease=30, max_increase=30, hysteresis=0.0)
        )
        balancer.update(0.0, [0.0, 0.0])
        weights = balancer.update(1.0, [0.9, 0.0])
        assert weights == [470, 530]


class TestClusteredEdgeCases:
    def test_clustering_single_connection(self):
        balancer = LoadBalancer(1, BalancerConfig(clustering=True))
        balancer.update(0.0, [0.0])
        assert balancer.update(1.0, [0.3]) == [1000]

    def test_clustered_with_movement_bounds(self):
        balancer = LoadBalancer(
            6,
            BalancerConfig(
                clustering=True, max_increase=40, max_decrease=40,
                hysteresis=0.0,
            ),
        )
        balancer.update(0.0, [0.0] * 6)
        counters = [0.0] * 6
        previous = balancer.weights
        for step in range(1, 12):
            counters[step % 3] += 0.4
            weights = balancer.update(float(step), list(counters))
            assert sum(weights) == 1000
            for old, new in zip(previous, weights):
                assert old - 40 <= new <= old + 40
            previous = weights

    def test_cluster_threshold_zero_keeps_singletons(self):
        balancer = LoadBalancer(
            3, BalancerConfig(clustering=True, cluster_threshold=0.0)
        )
        balancer.update(0.0, [0.0] * 3)
        balancer.update(1.0, [0.5, 0.5, 0.0])
        assert all(len(c) == 1 for c in balancer.last_clusters)


class TestDistributeEvenlyBounds:
    """Infeasible totals are refused up front, whatever the unit count."""

    def test_total_above_maxima_raises_before_granting(self):
        # A billion units of headroom short by one: refused at once, not
        # after a billion grants.
        with pytest.raises(ValueError, match="exceeds the sum of maxima"):
            distribute_evenly(10**9 + 1, [0, 0], [10**9 - 5, 5])

    def test_total_below_minima_raises(self):
        with pytest.raises(ValueError, match="below the sum of minima"):
            distribute_evenly(10**9 - 1, [10**9 - 4, 4], [10**9, 10**9])

    def test_cost_does_not_grow_with_the_total(self):
        assert distribute_evenly(10**9, [0, 7, 0], [10**9, 10**9, 3]) == [
            499999999, 499999998, 3,
        ]

    def test_empty_membership(self):
        assert distribute_evenly(0, [], []) == []
        with pytest.raises(ValueError, match="exceeds the sum of maxima"):
            distribute_evenly(1, [], [])


class TestHysteresisBehaviour:
    def test_zero_hysteresis_adopts_any_improvement(self):
        balancer = LoadBalancer(2, BalancerConfig(hysteresis=0.0))
        balancer.update(0.0, [0.0, 0.0])
        first = balancer.update(1.0, [0.2, 0.0])
        assert first != [500, 500]

    def test_rounds_counted(self):
        balancer = LoadBalancer(2)
        balancer.update(0.0, [0.0, 0.0])
        balancer.update(1.0, [0.1, 0.0])
        balancer.update(2.0, [0.2, 0.0])
        assert balancer.rounds == 2

    def test_last_rates_exposed(self):
        balancer = LoadBalancer(2, BalancerConfig(rate_alpha=1.0))
        balancer.update(0.0, [0.0, 0.0])
        balancer.update(1.0, [0.25, 0.0])
        assert balancer.last_rates == pytest.approx([0.25, 0.0])
