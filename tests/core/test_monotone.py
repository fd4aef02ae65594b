"""Unit tests for pool-adjacent-violators monotone regression."""

import math
import random

import pytest

from repro.core.monotone import is_non_decreasing, monotone_regression


class TestBasics:
    def test_empty(self):
        assert monotone_regression([]) == []

    def test_already_monotone_unchanged(self):
        values = [0.0, 1.0, 1.0, 3.0]
        assert monotone_regression(values) == values
        # Sorted input of any width, weighted or not, is its own fit —
        # exactly what the block-merge loop would have produced.
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(1, 150)
            values = sorted(rng.random() * 10 for _ in range(n))
            weights = [float(rng.randint(1, 5)) for _ in range(n)]
            assert monotone_regression(values, weights) == values

    def test_already_monotone_integers_returned_as_floats(self):
        fitted = monotone_regression([0, 1, 1, 3])
        assert fitted == [0.0, 1.0, 1.0, 3.0]
        assert all(type(value) is float for value in fitted)

    def test_single_violation_pooled(self):
        assert monotone_regression([1.0, 3.0, 2.0]) == [1.0, 2.5, 2.5]

    def test_fully_decreasing_pools_to_mean(self):
        fitted = monotone_regression([3.0, 2.0, 1.0])
        assert fitted == [2.0, 2.0, 2.0]

    def test_output_is_non_decreasing(self):
        fitted = monotone_regression([5.0, 1.0, 4.0, 2.0, 8.0, 0.0])
        assert is_non_decreasing(fitted)

    def test_inputs_not_modified(self):
        values = [3.0, 1.0]
        monotone_regression(values)
        assert values == [3.0, 1.0]


class TestWeights:
    def test_heavier_point_dominates_pool(self):
        # Pooling (3.0, w=3) with (1.0, w=1) -> weighted mean 2.5.
        fitted = monotone_regression([3.0, 1.0], [3.0, 1.0])
        assert fitted == [2.5, 2.5]

    def test_weights_length_checked(self):
        with pytest.raises(ValueError):
            monotone_regression([1.0, 2.0], [1.0])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError):
            monotone_regression([1.0], [0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, bad):
        # NaN and inf pass a ``w <= 0`` test, and either one turns the
        # pooled means to NaN.
        with pytest.raises(ValueError, match="finite"):
            monotone_regression([1.0, 0.5], [bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            monotone_regression([0.5, 1.0], [1.0, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        # A NaN compares false both ways, so it passes the monotone scan
        # and would come back as a "non-decreasing" fit.
        with pytest.raises(ValueError, match="finite"):
            monotone_regression([bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            monotone_regression([1.0, 0.5, bad], [1.0, 2.0, 3.0])

    def test_weighted_mean_preserved(self):
        values = [4.0, 1.0, 3.0, 2.0]
        weights = [1.0, 2.0, 1.0, 2.0]
        fitted = monotone_regression(values, weights)
        raw_mean = sum(v * w for v, w in zip(values, weights))
        fit_mean = sum(v * w for v, w in zip(fitted, weights))
        assert fit_mean == pytest.approx(raw_mean)


class TestIsNonDecreasing:
    def test_detects_violation(self):
        assert not is_non_decreasing([1.0, 0.5])

    def test_tolerance(self):
        assert is_non_decreasing([1.0, 0.999], tol=0.01)
