"""Unit tests for the balancer's quarantine/reintegration path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balancer import BalancerConfig, LoadBalancer
from repro.core.rate_function import BlockingRateFunction


def primed_balancer(n=4, **config_kwargs):
    """A balancer with enough observations that solves are meaningful."""
    balancer = LoadBalancer(n, BalancerConfig(**config_kwargs))
    for j, fn in enumerate(balancer.functions):
        for w in (100, 250, 400):
            fn.observe(w, 0.001 * w * (j + 1))
    return balancer


class TestQuarantine:
    def test_quarantine_zeroes_the_channel(self):
        balancer = primed_balancer()
        weights = balancer.quarantine(2)
        assert weights[2] == 0
        assert sum(weights) == balancer.config.resolution
        assert balancer.quarantined == {2}

    def test_quarantine_bypasses_hysteresis(self):
        # Even with an extreme hysteresis gate the emergency re-solve moves.
        balancer = primed_balancer(hysteresis=0.99)
        weights = balancer.quarantine(0)
        assert weights[0] == 0

    def test_update_freezes_quarantined_channel(self):
        balancer = primed_balancer()
        balancer.quarantine(1)
        before = balancer.functions[1].table()
        balancer.update(1.0, [0.0, 0.0, 0.0, 0.0])
        weights = balancer.update(2.0, [0.5, 0.7, 0.2, 0.1])
        assert weights[1] == 0
        assert balancer.functions[1].table() == before

    def test_invalid_channel_rejected(self):
        balancer = primed_balancer()
        with pytest.raises(ValueError):
            balancer.quarantine(7)

    def test_last_channel_raises_but_is_recorded(self):
        balancer = primed_balancer(n=2)
        balancer.quarantine(0)
        with pytest.raises(RuntimeError, match="no capacity"):
            balancer.quarantine(1)
        assert balancer.quarantined == {0, 1}
        # Regular rounds must not explode while everything is out.
        assert balancer.update(1.0, [0.0, 0.0]) is None
        assert balancer.update(2.0, [0.0, 0.0]) is None
        # Reintegration recovers both.
        balancer.reintegrate(0)
        balancer.reintegrate(1)
        assert balancer.quarantined == set()


class TestReintegration:
    def test_reintegrate_lifts_quarantine_gradually(self):
        balancer = primed_balancer()
        balancer.quarantine(3)
        balancer.reintegrate(3)
        assert balancer.quarantined == set()
        # Reintegration itself moves no weight; later rounds ramp it.
        assert balancer.weights[3] == 0

    def test_reintegrate_decays_rate_function(self):
        balancer = primed_balancer()
        value_before = balancer.functions[0].value(250)
        balancer.quarantine(0)
        balancer.reintegrate(0)
        assert balancer.functions[0].value(250) == pytest.approx(
            0.5 * value_before
        )

    def test_reintegrate_not_quarantined_is_a_noop(self):
        balancer = primed_balancer()
        value = balancer.functions[2].value(250)
        balancer.reintegrate(2)
        assert balancer.functions[2].value(250) == pytest.approx(value)


class TestStrandedWeight:
    """Weight left on a quarantined channel (the all-quarantined raise
    keeps the old weights) is emergency traffic once a channel is back."""

    def test_round_after_all_quarantined_does_not_raise(self):
        balancer = LoadBalancer(4)
        assert balancer.update(0.0, [0.0] * 4) is None
        for channel in (0, 1, 2):
            balancer.quarantine(channel)
        assert balancer.weights == [0, 0, 0, 1000]
        with pytest.raises(RuntimeError, match="no capacity"):
            balancer.quarantine(3)
        assert balancer.weights == [0, 0, 0, 1000]
        balancer.reintegrate(1)
        # The one live channel takes everything, max_increase or not.
        assert balancer.weights == [0, 1000, 0, 0]
        assert balancer.update(1.0, [0.1] * 4) == [0, 1000, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(
        clustering=st.booleans(),
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("quarantine"), st.integers(0, 3)),
                st.tuples(st.just("reintegrate"), st.integers(0, 3)),
                st.tuples(
                    st.just("update"),
                    st.lists(
                        st.floats(0.0, 1.0), min_size=4, max_size=4
                    ),
                ),
            ),
            max_size=40,
        ),
    )
    def test_any_interleaving_keeps_a_valid_allocation(self, clustering, steps):
        balancer = LoadBalancer(4, BalancerConfig(clustering=clustering))
        counters = [0.0] * 4
        balancer.update(0.0, counters)
        for now, (step, arg) in enumerate(steps, start=1):
            if step == "quarantine":
                try:
                    balancer.quarantine(arg)
                except RuntimeError:
                    assert len(balancer.quarantined) == 4
            elif step == "reintegrate":
                balancer.reintegrate(arg)
            else:
                counters = [c + rate for c, rate in zip(counters, arg)]
                balancer.update(float(now), counters)
            weights = balancer.weights
            assert sum(weights) == balancer.config.resolution
            if len(balancer.quarantined) < 4:
                assert all(weights[j] == 0 for j in balancer.quarantined)


class TestDecayAll:
    def test_decay_all_scales_every_point(self):
        fn = BlockingRateFunction()
        fn.observe(100, 0.4)
        fn.observe(300, 0.8)
        fn.decay_all(0.25)
        assert fn.value(100) == pytest.approx(0.3)
        assert fn.value(300) == pytest.approx(0.6)

    def test_decay_all_keeps_observed_points(self):
        fn = BlockingRateFunction()
        fn.observe(100, 0.4)
        fn.decay_all(0.5)
        assert fn.observed_weights() == [0, 100]

    def test_decay_all_rejects_bad_fraction(self):
        fn = BlockingRateFunction()
        with pytest.raises(ValueError):
            fn.decay_all(1.5)

    def test_full_decay_zeroes_values(self):
        fn = BlockingRateFunction()
        fn.observe(200, 0.9)
        fn.decay_all(1.0)
        assert fn.value(200) == pytest.approx(0.0)
