"""Unit tests for weight constraints."""

import pytest

from repro.core.constraints import WeightConstraints


class TestConstruction:
    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            WeightConstraints(minima=(0, 0), maxima=(5,))

    def test_negative_minimum_rejected(self):
        with pytest.raises(ValueError):
            WeightConstraints(minima=(-1,), maxima=(5,))

    def test_max_below_min_rejected(self):
        with pytest.raises(ValueError):
            WeightConstraints(minima=(6,), maxima=(5,))

    def test_len(self):
        assert len(WeightConstraints(minima=(0, 0), maxima=(1, 1))) == 2


class TestFactories:
    def test_unbounded(self):
        constraints = WeightConstraints.unbounded(3, 1000)
        assert constraints.minima == (0, 0, 0)
        assert constraints.maxima == (1000, 1000, 1000)

    def test_incremental_limits_movement(self):
        constraints = WeightConstraints.incremental(
            [300, 700], 1000, max_decrease=100, max_increase=50
        )
        assert constraints.minima == (200, 600)
        assert constraints.maxima == (350, 750)

    def test_incremental_unlimited_directions(self):
        constraints = WeightConstraints.incremental([300, 700], 1000)
        assert constraints.minima == (0, 0)
        assert constraints.maxima == (1000, 1000)

    def test_incremental_clamps_to_range(self):
        constraints = WeightConstraints.incremental(
            [10, 990], 1000, max_decrease=50, max_increase=50
        )
        assert constraints.minima == (0, 940)
        assert constraints.maxima == (60, 1000)

    def test_floor_applied(self):
        constraints = WeightConstraints.incremental(
            [300], 1000, max_decrease=1000, floor=5
        )
        assert constraints.minima == (5,)

    def test_floor_above_max_keeps_consistency(self):
        # A weight already below the floor with a tight increase bound:
        # minima must never exceed maxima.
        constraints = WeightConstraints.incremental(
            [2], 1000, max_increase=1, floor=10
        )
        assert constraints.minima[0] <= constraints.maxima[0]


class TestQueries:
    def test_feasible(self):
        constraints = WeightConstraints(minima=(0, 0), maxima=(6, 6))
        assert constraints.feasible(10)
        assert not constraints.feasible(13)
        assert WeightConstraints(minima=(6, 6), maxima=(9, 9)).feasible(12)
        assert not WeightConstraints(minima=(6, 6), maxima=(9, 9)).feasible(11)
