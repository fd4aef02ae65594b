"""Safe-mode guardrails: degenerate inputs hold the last-good weights.

Dataplane-free, like the rest of the balancer tests: counters are
synthetic, and each test checks one guardrail in isolation.
"""

import math

import pytest

from repro.core import balancer as balancer_module
from repro.core.balancer import (
    SAFE_FLIP_LIMIT,
    SAFE_RECOVER_ROUNDS,
    BalancerConfig,
    LoadBalancer,
    limit_weight_churn,
)


def safe_balancer(n=2, **overrides):
    overrides.setdefault("safe_mode", True)
    return LoadBalancer(n, BalancerConfig(**overrides))


def feed_healthy(lb, now, *, rate=0.1, rounds=1, dt=1.0):
    """Feed ``rounds`` sane samples with every channel blocking ``rate``."""
    counters = list(getattr(lb, "_test_counters", [0.0] * lb.n_connections))
    for _ in range(rounds):
        now += dt
        counters = [c + rate * dt for c in counters]
        lb.update(now, counters)
    lb._test_counters = counters
    return now


class TestDegenerateInputHolds:
    def test_nan_counter_holds_weights(self):
        lb = safe_balancer()
        lb.update(1.0, [0.0, 0.0])  # priming
        before = lb.weights
        result = lb.update(2.0, [math.nan, 0.1])
        assert result == before
        assert lb.in_safe_hold
        assert lb.safe_rounds == 1

    def test_infinite_counter_holds_weights(self):
        lb = safe_balancer()
        lb.update(1.0, [0.0, 0.0])
        lb.update(2.0, [math.inf, 0.1])
        assert lb.in_safe_hold

    def test_non_finite_timestamp_holds_weights(self):
        lb = safe_balancer()
        lb.update(1.0, [0.0, 0.0])
        lb.update(math.nan, [0.1, 0.1])
        assert lb.in_safe_hold

    def test_stale_clock_holds_weights(self):
        lb = safe_balancer()
        lb.update(1.0, [0.0, 0.0])
        lb.update(1.0, [0.1, 0.1])  # clock did not advance
        assert lb.in_safe_hold

    def test_decreasing_counters_are_legal(self):
        # The transport layer's periodic reset produces a counter
        # sawtooth by design; safe mode must not treat it as degenerate.
        lb = safe_balancer()
        lb.update(1.0, [5.0, 5.0])
        lb.update(2.0, [0.1, 0.1])
        assert not lb.in_safe_hold

    def test_without_safe_mode_nan_crashes_the_control_round(self):
        # The contrast safe mode exists for: the plain path lets the
        # estimator's validation blow up the control loop mid-run.
        lb = LoadBalancer(2, BalancerConfig(safe_mode=False))
        lb.update(1.0, [0.0, 0.0])
        with pytest.raises(ValueError):
            lb.update(2.0, [math.nan, 0.1])


class TestAllSaturatedHold:
    def test_every_channel_saturated_holds(self):
        lb = safe_balancer()
        lb.update(1.0, [0.0, 0.0])
        before = lb.weights
        # Both channels blocked ~100% of the interval: no relative signal.
        assert lb.update(2.0, [1.0, 1.0]) == before
        assert lb.in_safe_hold

    def test_one_healthy_channel_is_signal_not_overload(self):
        lb = safe_balancer()
        lb.update(1.0, [0.0, 0.0])
        lb.update(2.0, [1.0, 0.05])
        assert not lb.in_safe_hold


class TestRecovery:
    def test_hold_releases_after_recover_streak(self):
        lb = safe_balancer()
        lb.update(1.0, [0.0, 0.0])
        lb.update(2.0, [math.nan, 0.0])
        assert lb.in_safe_hold
        now = 2.0
        lb._test_counters = [0.0, 0.0]
        now = feed_healthy(lb, now, rounds=SAFE_RECOVER_ROUNDS - 1)
        assert lb.in_safe_hold  # one round short of the streak: still held
        feed_healthy(lb, now, rounds=1)
        assert not lb.in_safe_hold

    def test_degenerate_sample_mid_recovery_restarts_the_streak(self):
        lb = safe_balancer()
        lb.update(1.0, [0.0, 0.0])
        lb.update(2.0, [math.nan, 0.0])
        lb._test_counters = [0.0, 0.0]
        feed_healthy(lb, 2.0, rounds=SAFE_RECOVER_ROUNDS - 1)
        lb.update(10.0, [math.nan, 0.0])  # relapse
        lb._test_counters = [0.0, 0.0]
        # Together the two runs reach the streak; only a reset keeps the hold.
        feed_healthy(lb, 10.0, rounds=SAFE_RECOVER_ROUNDS - 1)
        assert lb.in_safe_hold

    def test_weights_move_again_after_recovery(self):
        lb = safe_balancer()
        lb.update(1.0, [0.0, 0.0])
        lb.update(2.0, [math.nan, 0.0])
        # Channel 0 blocks hard, channel 1 not at all: once recovered,
        # the optimizer should shift weight away from channel 0.
        now, counters = 2.0, [0.0, 0.0]
        for _ in range(20):
            now += 1.0
            counters = [counters[0] + 0.8, counters[1]]
            lb.update(now, counters)
        assert lb.weights[0] < lb.weights[1]


class TestOscillationGuard:
    def test_flip_streak_trips_and_holds(self):
        lb = safe_balancer()
        lb._prev_weights = [600, 400]
        for _ in range(SAFE_FLIP_LIMIT - 1):
            assert lb._guard_adoption([600, 400]) == [600, 400]
        assert lb.oscillation_trips == 0
        held = lb._guard_adoption([600, 400])
        assert held == lb.weights
        assert lb.oscillation_trips == 1
        assert lb.in_safe_hold

    def test_distinct_adoptions_reset_the_streak(self):
        lb = safe_balancer()
        lb._prev_weights = [600, 400]
        for _ in range(SAFE_FLIP_LIMIT - 1):
            lb._guard_adoption([600, 400])
        lb._guard_adoption([550, 450])  # different: streak resets
        for _ in range(SAFE_FLIP_LIMIT - 1):
            lb._guard_adoption([600, 400])
        assert lb.oscillation_trips == 0


class TestChurnLimiter:
    def test_under_cap_returns_candidate(self):
        assert limit_weight_churn([500, 500], [450, 550], 100) == [450, 550]

    def test_capped_movement_is_exactly_max_churn(self):
        result = limit_weight_churn([500, 500, 0], [0, 500, 500], 100)
        assert result == [400, 500, 100]

    def test_sum_and_bounds_preserved(self):
        cases = [
            ([700, 200, 100], [100, 450, 450], 50),
            ([250, 250, 250, 250], [1000, 0, 0, 0], 120),
            ([0, 1000], [1000, 0], 3),
        ]
        for current, candidate, cap in cases:
            result = limit_weight_churn(current, candidate, cap)
            assert sum(result) == sum(current)
            moved = sum(r - w for r, w in zip(result, current) if r > w)
            assert moved == cap
            for w, c, r in zip(current, candidate, result):
                assert min(w, c) <= r <= max(w, c)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            limit_weight_churn([500, 500], [400, 600], 0)

    def test_update_respects_max_churn_per_round(self, monkeypatch):
        monkeypatch.setattr(balancer_module, "SAFE_MAX_CHURN", 10)
        lb = safe_balancer()
        now, counters = 0.0, [0.0, 0.0]
        previous = lb.weights
        for i in range(15):
            now += 1.0
            # Channel 0 blocks 90% of every interval, channel 1 idles:
            # the optimizer wants a big move; safe mode meters it out.
            counters = [counters[0] + 0.9, counters[1]]
            lb.update(now, counters)
            moved = sum(
                w - p for w, p in zip(lb.weights, previous) if w > p
            )
            assert moved <= 10
            previous = lb.weights
