"""Construction-time validation of BalancerConfig and LoadBalancer.

Every bad tunable must fail loudly at construction, not rounds later as
a solver crash or a silently skewed allocation. The smoothing factors and
the safe-mode thresholds are module constants: ``LoadBalancer`` checks
each against the range that validated the field it replaced, and the
tests below set one constant at a time to values outside it.
"""

import math

import pytest

from repro.core import balancer, blocking_rate
from repro.core.balancer import BalancerConfig, LoadBalancer


def assert_refused(monkeypatch, module, name, *values):
    """Set ``module.name`` to each of ``values`` in turn: a balancer
    refuses every one, naming the constant."""
    for value in values:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, value)
            with pytest.raises(ValueError, match=name):
                LoadBalancer(2)


class TestAlphaValidation:
    def test_rate_alpha_must_be_positive_fraction(self, monkeypatch):
        assert_refused(
            monkeypatch, blocking_rate, "RATE_ALPHA", 0.0, -0.5, 1.5, math.nan
        )

    def test_function_alpha_must_be_positive_fraction(self, monkeypatch):
        assert_refused(
            monkeypatch, balancer, "FUNCTION_ALPHA", 0.0, -0.5, 1.5, math.nan
        )

    def test_boundary_one_is_legal(self, monkeypatch):
        # The rates are taken as measured (alpha 1, the constant's value);
        # the functions may be too.
        monkeypatch.setattr(blocking_rate, "RATE_ALPHA", 1.0)
        monkeypatch.setattr(balancer, "FUNCTION_ALPHA", 1.0)
        LoadBalancer(2)


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
    def test_safe_saturation_must_be_fraction(self, monkeypatch):
        assert_refused(
            monkeypatch, balancer, "SAFE_SATURATION", -0.1, 1.1, math.nan
        )

    def test_safe_recover_rounds_must_be_positive(self, monkeypatch):
        assert_refused(monkeypatch, balancer, "SAFE_RECOVER_ROUNDS", 0, -1)

    def test_max_churn_must_be_positive_when_set(self, monkeypatch):
        assert_refused(monkeypatch, balancer, "SAFE_MAX_CHURN", 0, -1)

    def test_safe_flip_limit_must_be_positive(self, monkeypatch):
        assert_refused(monkeypatch, balancer, "SAFE_FLIP_LIMIT", 0, -3)

    def test_safe_mode_defaults_off(self):
        assert not BalancerConfig().safe_mode
