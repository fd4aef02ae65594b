"""Unit tests for the blocking rate function F_j."""

import random

import pytest

from repro.core.rate_function import BlockingRateFunction


def fn_with(points, resolution=1000, **kwargs):
    fn = BlockingRateFunction(resolution, **kwargs)
    for weight, rate in points:
        fn.observe(weight, rate)
    return fn


class TestConstruction:
    def test_origin_assumed(self):
        fn = BlockingRateFunction()
        assert fn.observed_weights() == [0]
        assert fn.value(0) == 0.0
        assert fn.value(1000) == 0.0

    def test_single_observation_interpolates_from_origin(self):
        fn = fn_with([(500, 1.0)])
        assert fn.value(250) == pytest.approx(0.5)
        assert fn.value(500) == pytest.approx(1.0)

    def test_extrapolation_continues_last_slope(self):
        fn = fn_with([(400, 0.4), (500, 0.9)])
        # slope 0.005/unit beyond 500
        assert fn.value(700) == pytest.approx(0.9 + 200 * 0.005)

    def test_extrapolation_never_decreases(self):
        fn = fn_with([(300, 0.5), (500, 0.5)])
        assert fn.value(1000) == pytest.approx(0.5)

    def test_fractional_weight_interpolation(self):
        fn = fn_with([(10, 1.0)])
        assert fn.value(5.0) == pytest.approx(0.5)
        assert fn.value(2.5) == pytest.approx(0.25)

    def test_values_table_length(self):
        fn = fn_with([(10, 1.0)], resolution=100)
        assert len(fn.values()) == 101


class TestObservation:
    def test_smoothing_folds_new_data(self):
        fn = fn_with([(100, 1.0)], smoothing_alpha=0.5)
        fn.observe(100, 0.0)
        assert fn.raw_value(100) == pytest.approx(0.5)

    def test_weight_zero_observations_ignored(self):
        fn = BlockingRateFunction()
        fn.observe(0, 5.0)
        assert fn.value(0) == 0.0

    def test_weight_bounds_checked(self):
        fn = BlockingRateFunction(resolution=100)
        with pytest.raises(ValueError):
            fn.observe(101, 1.0)
        with pytest.raises(TypeError):
            fn.observe(1.5, 1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            BlockingRateFunction().observe(10, -1.0)

    def test_monotone_regression_repairs_inversions(self):
        # A noisy sample below an established point gets pooled.
        fn = fn_with([(100, 1.0), (200, 0.2)])
        assert fn.value(100) <= fn.value(200)

    def test_forget_drops_everything(self):
        fn = fn_with([(100, 1.0)])
        fn.forget()
        assert fn.observed_weights() == [0]
        assert fn.value(1000) == 0.0


class TestDecay:
    def test_decay_above_reduces_higher_weights_only(self):
        fn = fn_with([(100, 1.0), (200, 2.0)])
        fn.decay_above(100, 0.1)
        assert fn.raw_value(100) == pytest.approx(1.0)
        assert fn.raw_value(200) == pytest.approx(1.8)

    def test_repeated_decay_is_geometric(self):
        fn = fn_with([(200, 1.0)])
        for _ in range(10):
            fn.decay_above(100, 0.1)
        assert fn.raw_value(200) == pytest.approx(0.9**10)

    def test_zero_fraction_is_noop(self):
        fn = fn_with([(200, 1.0)])
        fn.decay_above(100, 0.0)
        assert fn.raw_value(200) == 1.0

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            fn_with([(200, 1.0)]).decay_above(100, 1.5)


class TestKnee:
    def test_knee_at_resolution_when_no_blocking(self):
        assert BlockingRateFunction().knee_weight() == 1000

    def test_knee_before_first_blocking(self):
        fn = fn_with([(500, 1.0)])
        # Linear ramp from (0,0): knee at threshold 0.1 is w=50.
        assert fn.knee_weight(threshold=0.1) == 50

    def test_knee_with_flat_zero_region(self):
        fn = BlockingRateFunction()
        fn.observe(400, 0.0)
        fn.observe(500, 1.0)
        assert 395 <= fn.knee_weight(threshold=1e-9) <= 405

    def test_knee_zero_when_blocked_everywhere(self):
        fn = fn_with([(1, 5.0)])
        assert fn.knee_weight(threshold=0.1) <= 1


class TestPooled:
    def test_pooled_combines_raw_points(self):
        a = fn_with([(100, 1.0)])
        b = fn_with([(200, 2.0)])
        pooled = BlockingRateFunction.pooled([a, b])
        assert pooled.raw_value(100) == pytest.approx(1.0)
        assert pooled.raw_value(200) == pytest.approx(2.0)

    def test_pooled_averages_shared_weights_by_count(self):
        a = fn_with([(100, 1.0), (100, 1.0)])  # count 2, value 1.0
        b = fn_with([(100, 4.0)])  # count 1, value 4.0
        pooled = BlockingRateFunction.pooled([a, b])
        assert pooled.raw_value(100) == pytest.approx(2.0)

    def test_pooled_requires_members(self):
        with pytest.raises(ValueError):
            BlockingRateFunction.pooled([])

    def test_pooled_requires_matching_resolution(self):
        with pytest.raises(ValueError):
            BlockingRateFunction.pooled(
                [BlockingRateFunction(100), BlockingRateFunction(200)]
            )

    def test_pooling_does_not_mutate_members(self):
        a = fn_with([(100, 1.0)])
        BlockingRateFunction.pooled([a, fn_with([(100, 3.0)])])
        assert a.raw_value(100) == 1.0

    def test_pooled_copies_tunables_from_first_member(self):
        a = fn_with([(100, 1.0)], smoothing_alpha=0.25, max_count=7)
        b = fn_with([(200, 2.0)], smoothing_alpha=0.9, max_count=99)
        pooled = BlockingRateFunction.pooled([a, b])
        assert pooled.smoothing_alpha == 0.25
        assert pooled.max_count == 7

    def test_pooling_two_functions_is_order_independent(self):
        a = fn_with([(100, 1.0), (100, 0.5), (300, 2.0)])
        b = fn_with([(100, 4.0), (200, 1.5)])
        ab = BlockingRateFunction.pooled([a, b])
        ba = BlockingRateFunction.pooled([b, a])
        assert ab.observed_weights() == ba.observed_weights()
        for w in ab.observed_weights():
            assert ab.raw_value(w) == ba.raw_value(w)
        assert ab.values() == ba.values()


class TestTableCache:
    def test_table_matches_pointwise_values(self):
        fn = fn_with([(100, 0.5), (400, 2.0), (700, 2.5)])
        pointwise = [fn.value(w) for w in range(1001)]
        assert fn._table is None, "evaluated from the breakpoints"
        table = fn.table()
        assert len(table) == 1001
        assert table == pointwise

    def test_table_matches_pointwise_values_on_long_histories(self):
        # Dense random histories with decays: many short ramps, flat runs
        # after PAVA pooling, and sloped or flat tails of every length.
        for seed in range(5):
            rng = random.Random(seed)
            fn = BlockingRateFunction(resolution=400)
            for _ in range(150):
                fn.observe(rng.randint(1, 400), rng.random() * 20)
                if rng.random() < 0.25:
                    fn.decay_above(rng.randint(0, 400), 0.1)
            pointwise = [fn.value(w) for w in range(401)]
            assert fn._table is None
            assert fn.table() == pointwise, f"seed {seed}"

    def test_table_is_cached_between_reads(self):
        fn = fn_with([(100, 0.5)])
        assert fn.table() is fn.table()

    def test_values_returns_a_copy(self):
        fn = fn_with([(100, 0.5)])
        values = fn.values()
        values[0] = 123.0
        assert fn.table()[0] == 0.0

    def test_observe_invalidates_table(self):
        fn = fn_with([(100, 0.5)])
        before = fn.table()
        fn.observe(200, 3.0)
        after = fn.table()
        assert after is not before
        assert after[200] == pytest.approx(3.0)

    def test_decay_above_invalidates_table(self):
        fn = fn_with([(100, 0.5), (400, 2.0)])
        before = fn.table()
        fn.decay_above(100, 0.1)
        after = fn.table()
        assert after is not before
        assert after[400] == pytest.approx(1.8)

    def test_forget_invalidates_table(self):
        fn = fn_with([(100, 0.5)])
        fn.table()
        fn.forget()
        assert fn.table() == [0.0] * 1001

    def test_knee_weight_reads_from_table(self):
        fn = fn_with([(100, 0.0), (200, 1.0)])
        # The knee must agree with a linear scan of values().
        values = fn.values()
        expected = max(w for w, v in enumerate(values) if v <= 0.5)
        assert fn.knee_weight(threshold=0.5) == expected

    def test_solvers_accept_raw_tables(self):
        from repro.core.rap import solve_minimax_fox

        fns = [
            fn_with([(100, 0.0), (900, 5.0)]),
            fn_with([(100, 0.0), (900, 1.0)]),
        ]
        via_tables = solve_minimax_fox([fn.table() for fn in fns], 1000)
        via_callables = solve_minimax_fox([fn.value for fn in fns], 1000)
        assert via_tables == via_callables
