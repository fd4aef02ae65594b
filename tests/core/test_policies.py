"""Unit tests for routing policies."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    OraclePolicy,
    ReroutingPolicy,
    RoundRobinPolicy,
    WeightedPolicy,
)


def picks(policy, n):
    return [policy.next_connection() for _ in range(n)]


class TestRoundRobin:
    def test_cycles(self):
        policy = RoundRobinPolicy(3)
        assert picks(policy, 7) == [0, 1, 2, 0, 1, 2, 0]

    def test_never_reroutes(self):
        policy = RoundRobinPolicy(3)
        assert not policy.allows_reroute
        assert list(policy.reroute_candidates(1)) == []

    def test_requires_connections(self):
        with pytest.raises(ValueError):
            RoundRobinPolicy(0)


class TestWeightedPolicy:
    def test_counts_match_weights_over_a_cycle(self):
        policy = WeightedPolicy([5, 3, 2])
        counts = Counter(picks(policy, 10))
        assert counts == {0: 5, 1: 3, 2: 2}

    def test_interleaving_is_smooth(self):
        # Smooth WRR spreads picks: with weights 4/2 the heavier
        # connection never gets more than 2 consecutive picks.
        policy = WeightedPolicy([4, 2])
        sequence = picks(policy, 12)
        longest_run = max(
            len(run)
            for run in "".join(map(str, sequence)).replace("1", " ").split()
        )
        assert longest_run <= 3

    def test_zero_weight_connection_never_picked(self):
        policy = WeightedPolicy([500, 0, 500])
        assert 1 not in picks(policy, 100)

    def test_set_weights_changes_distribution(self):
        policy = WeightedPolicy([500, 500])
        policy.set_weights([1000, 0])
        assert picks(policy, 10) == [0] * 10

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightedPolicy([0, 0])
        policy = WeightedPolicy([1, 1])
        with pytest.raises(ValueError):
            policy.set_weights([0, 0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedPolicy([-1, 2])

    def test_wrong_length_rejected(self):
        policy = WeightedPolicy([1, 1])
        with pytest.raises(ValueError):
            policy.set_weights([1, 1, 1])


def _weights(n):
    return st.lists(
        st.integers(min_value=0, max_value=20), min_size=n, max_size=n
    ).filter(lambda ws: sum(ws) > 0)


class TestBatchOfOneIsAPick:
    """``allocate_batch(1)`` is one smooth round-robin pick: the same
    connection and the same credit vector, step for step, whatever
    credits, batches and weight changes came before.

    ``allocate_batch`` takes that pick directly at count 1, so the
    general floor-and-settle rule is also run at count 1 on its own, on a
    third policy kept in step with the other two: the shortcut is only
    sound while the rule it skips gives the same answer."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_allocate_batch_one_is_next_connection(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8), label="n")
        weights = data.draw(_weights(n), label="weights")
        batched = WeightedPolicy(weights)
        picked = WeightedPolicy(weights)
        settled = WeightedPolicy(weights)
        policies = (batched, picked, settled)
        # Any starting credits, not only reachable ones: the shares of a
        # few connections can then reach whole tuples at once, which is
        # what sends a batch of one through the take-back.
        bound = 3 * sum(weights)
        credits = data.draw(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            label="credits",
        )
        for policy in policies:
            policy._credits = list(credits)
        ops = data.draw(
            st.lists(
                st.one_of(
                    st.just(("pick", None)),
                    st.tuples(st.just("batch"), st.integers(0, 40)),
                    st.tuples(st.just("weights"), _weights(n)),
                ),
                max_size=80,
            ),
            label="ops",
        )
        for op, arg in ops:
            if op == "pick":
                pick = picked.next_connection()
                one = [int(j == pick) for j in range(n)]
                assert settled._floor_and_settle(1) == one
                assert batched.allocate_batch(1) == one
            elif op == "batch":
                expected = picked.allocate_batch(arg)
                assert batched.allocate_batch(arg) == expected
                assert settled.allocate_batch(arg) == expected
            else:
                for policy in policies:
                    policy.set_weights(arg)
            assert batched._credits == picked._credits == settled._credits


class TestReroutingPolicy:
    def test_primary_route_is_round_robin(self):
        policy = ReroutingPolicy(3)
        assert picks(policy, 3) == [0, 1, 2]

    def test_reroute_candidates_cycle_after_blocked(self):
        policy = ReroutingPolicy(4)
        assert list(policy.reroute_candidates(1)) == [2, 3, 0]

    def test_allows_reroute(self):
        assert ReroutingPolicy(2).allows_reroute


class TestOraclePolicy:
    def test_initial_weights_from_earliest_entry(self):
        policy = OraclePolicy({0.0: [800, 200], 50.0: [500, 500]})
        assert policy.weights == [800, 200]

    def test_changes_after(self):
        policy = OraclePolicy({0.0: [800, 200], 50.0: [500, 500], 10.0: [700, 300]})
        changes = policy.changes_after(0.0)
        assert [t for t, _ in changes] == [10.0, 50.0]

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            OraclePolicy({})
