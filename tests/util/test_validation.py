"""Unit tests for argument validation helpers."""

import math

import pytest

from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)


class TestScalarChecks:
    def test_positive_accepts_positive(self):
        check_positive("x", 1e-12)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_positive_rejects(self, value):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", value)

    def test_non_negative_accepts_zero(self):
        check_non_negative("x", 0.0)

    @pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
    def test_non_negative_rejects(self, value):
        with pytest.raises(ValueError):
            check_non_negative("x", value)

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_fraction_accepts(self, value):
        check_fraction("x", value)

    @pytest.mark.parametrize("value", [-0.01, 1.01, math.nan])
    def test_fraction_rejects(self, value):
        with pytest.raises(ValueError):
            check_fraction("x", value)

