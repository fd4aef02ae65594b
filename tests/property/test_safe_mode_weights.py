"""Property: safe mode keeps the allocation valid under arbitrary garbage.

The acceptance bar for the balancer guardrails: feed the controller *any*
sequence of counter samples — NaN, infinities, negatives, huge values,
counter resets, stale or frozen clocks — and after every round the weight
vector must still be a valid allocation (sums to the resolution, every
component within bounds) and per-round movement must respect the churn
cap. The controller must also never raise: degenerate input holds the
last-good weights, it does not crash the control loop.
"""

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import balancer as balancer_module
from repro.core.balancer import BalancerConfig, LoadBalancer

RESOLUTION = 1000
N = 4
MAX_CHURN = 50

# A counter sample: mostly plausible cumulative seconds, sometimes garbage.
counter_values = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just(0.0),
)

# Clock steps: mostly advancing, sometimes frozen or rewinding.
clock_steps = st.one_of(
    st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
    st.just(0.0),
    st.floats(min_value=-5.0, max_value=0.0, allow_nan=False),
)

rounds = st.lists(
    st.tuples(
        clock_steps,
        st.lists(counter_values, min_size=N, max_size=N),
    ),
    min_size=1,
    max_size=40,
)


def valid_allocation(weights):
    return (
        sum(weights) == RESOLUTION
        and all(0 <= w <= RESOLUTION for w in weights)
        and all(isinstance(w, int) for w in weights)
    )


@settings(max_examples=200, deadline=None)
@given(rounds=rounds)
# Two healthy rounds release a hold, so short histories cycle through
# hold and recovery more than once.
@mock.patch.object(balancer_module, "SAFE_RECOVER_ROUNDS", 2)
@mock.patch.object(balancer_module, "SAFE_MAX_CHURN", MAX_CHURN)
def test_weights_stay_valid_under_degenerate_counters(rounds):
    lb = LoadBalancer(N, BalancerConfig(safe_mode=True))
    now = 0.0
    previous = lb.weights
    for step, counters in rounds:
        now += step
        if not math.isfinite(now):  # keep the clock itself a float
            now = 0.0
        lb.update(now, counters)
        weights = lb.weights
        assert valid_allocation(weights), weights
        moved = sum(w - p for w, p in zip(weights, previous) if w > p)
        assert moved <= MAX_CHURN, (previous, weights)
        previous = weights


@settings(max_examples=100, deadline=None)
@given(
    rounds=rounds,
    floor=st.integers(min_value=0, max_value=RESOLUTION // N),
)
@mock.patch.object(balancer_module, "SAFE_MAX_CHURN", MAX_CHURN)
def test_weight_floor_survives_degenerate_counters(rounds, floor):
    lb = LoadBalancer(N, BalancerConfig(safe_mode=True, weight_floor=floor))
    now = 0.0
    for step, counters in rounds:
        now += step
        if not math.isfinite(now):
            now = 0.0
        lb.update(now, counters)
        assert sum(lb.weights) == RESOLUTION
        assert all(w >= floor for w in lb.weights), (floor, lb.weights)
