"""Argument validation helpers.

Errors raised here should read well at the call site: the ``name`` argument
is the caller's parameter name, so a bad ``alpha`` produces
``ValueError: alpha must be in [0, 1], got 1.5``.
"""

from __future__ import annotations

import math


def check_positive(name: str, value: float) -> None:
    """Require ``value > 0`` and finite."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_non_negative(name: str, value: float) -> None:
    """Require ``value >= 0`` and finite."""
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be non-negative and finite, got {value}")


def check_positive_fraction(name: str, value: float) -> None:
    """Require ``0 < value <= 1``."""
    if not math.isfinite(value) or not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value}")


def check_fraction(name: str, value: float) -> None:
    """Require ``0 <= value <= 1``."""
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")

