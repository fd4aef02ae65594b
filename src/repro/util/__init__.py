"""Shared utilities: smoothing, time series recording, validation helpers.

These are deliberately dependency-free building blocks used across the
simulator, the transport layer, and the load-balancing controller.
"""

from repro.util.ewma import Ewma, IntervalRate
from repro.util.timeseries import TimeSeries
from repro.util.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)

__all__ = [
    "Ewma",
    "IntervalRate",
    "TimeSeries",
    "check_fraction",
    "check_non_negative",
    "check_positive",
]
