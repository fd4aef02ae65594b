"""Construction-time validation of BalancerConfig and LoadBalancer.

Every bad tunable must fail loudly at construction, not rounds later as
a solver crash or a silently skewed allocation. The smoothing factors and
the safe-mode thresholds are module constants: the tests below hold each
to the range that validated the field it replaced, one check a constant.
"""

import pytest

from repro.core import balancer
from repro.core.balancer import BalancerConfig, LoadBalancer
from repro.core.blocking_rate import RATE_ALPHA


class TestAlphaValidation:
    def test_rate_alpha_must_be_positive_fraction(self):
        assert 0.0 < RATE_ALPHA <= 1.0

    def test_function_alpha_must_be_positive_fraction(self):
        assert 0.0 < balancer.FUNCTION_ALPHA <= 1.0

    def test_boundary_one_is_legal(self):
        # The rates are taken as measured: the boundary is the constant.
        assert RATE_ALPHA == 1.0


class TestMovementBounds:
    @pytest.mark.parametrize("value", [0, -10])
    def test_max_increase_must_be_positive_when_set(self, value):
        with pytest.raises(ValueError):
            BalancerConfig(max_increase=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_max_decrease_must_be_positive_when_set(self, value):
        with pytest.raises(ValueError):
            BalancerConfig(max_decrease=value)

    def test_none_means_unlimited(self):
        BalancerConfig(max_increase=None, max_decrease=None)


class TestWeightFloor:
    def test_negative_floor_rejected(self):
        with pytest.raises(ValueError):
            BalancerConfig(weight_floor=-1)

    def test_floor_above_resolution_rejected(self):
        with pytest.raises(ValueError):
            BalancerConfig(weight_floor=1001, resolution=1000)

    def test_infeasible_floor_across_connections_rejected(self):
        # 300 x 4 = 1200 > 1000: no allocation grants every floor.
        config = BalancerConfig(weight_floor=300, resolution=1000)
        with pytest.raises(ValueError):
            LoadBalancer(4, config)

    def test_feasible_floor_accepted(self):
        LoadBalancer(3, BalancerConfig(weight_floor=300, resolution=1000))


class TestClusteringKnobs:
    def test_cluster_threshold_zero_is_legal(self):
        BalancerConfig(cluster_threshold=0.0)

    def test_negative_cluster_threshold_rejected(self):
        with pytest.raises(ValueError):
            BalancerConfig(cluster_threshold=-0.1)

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            BalancerConfig(delta=0.0)


class TestSafeModeKnobs:
    def test_safe_saturation_must_be_fraction(self):
        assert 0.0 <= balancer.SAFE_SATURATION <= 1.0

    def test_safe_recover_rounds_must_be_positive(self):
        assert balancer.SAFE_RECOVER_ROUNDS > 0

    def test_max_churn_must_be_positive_when_set(self):
        with pytest.raises(ValueError):
            BalancerConfig(max_churn=0)

    def test_safe_flip_limit_must_be_positive(self):
        assert balancer.SAFE_FLIP_LIMIT > 0

    def test_safe_mode_defaults_off(self):
        assert not BalancerConfig().safe_mode
