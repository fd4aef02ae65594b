"""Differential oracles for the compute-once control round.

The clustered control round was rebuilt to do each piece of work once
(features per function, a nearest-neighbour cache in the linkage, a
water level in place of unit grants, point-wise evaluation in place of
``R + 1`` tables) under a hard promise: the weights and clusters it
produces are the ones the straightforward algorithms produce, bit for
bit. The straightforward algorithms live on here as references, and
hypothesis drives both sides over inputs built to contain ties — where a
changed scan order or a re-associated float expression would show.
"""

import copy
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balancer import distribute_evenly
from repro.core.clustering import (
    DEFAULT_DELTA,
    agglomerative_cluster,
    cluster_functions,
    extract_features,
    function_distance,
)
from repro.core.rate_function import BlockingRateFunction

# -------------------------------------------------------------- references


def reference_agglomerative_cluster(distances, threshold):
    """The O(N^3) linkage: rescan the whole matrix for every merge."""
    clusters = [[i] for i in range(len(distances))]
    link = [[float(d) for d in row] for row in distances]
    while len(clusters) > 1:
        best_pair = None
        best_link = math.inf
        for x in range(len(clusters)):
            for y in range(x + 1, len(clusters)):
                if link[x][y] < best_link:
                    best_link = link[x][y]
                    best_pair = (x, y)
        if best_pair is None or best_link > threshold:
            break
        x, y = best_pair
        clusters[x] = sorted(clusters[x] + clusters[y])
        for k in range(len(clusters)):
            link[x][k] = link[k][x] = max(link[x][k], link[y][k])
        del clusters[y]
        del link[y]
        for row in link:
            del row[y]
    return sorted(clusters, key=lambda c: c[0])


def table_features(fn, delta):
    """(knee, knee value, full value) read off the materialized table."""
    table = fn.values()
    knee = max(
        1, max((w for w, v in enumerate(table) if v <= delta), default=0)
    )
    return (
        float(knee),
        max(delta, table[min(knee + 1, fn.resolution)]),
        max(delta, table[fn.resolution]),
    )


def reference_distance_matrix(functions, delta):
    """Every pair on its own: features and alpha recomputed per pair."""
    n = len(functions)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            resolution = functions[i].resolution
            alpha = math.log(resolution) / abs(math.log(resolution * delta))
            a = table_features(functions[i], delta)
            b = table_features(functions[j], delta)
            matrix[i][j] = matrix[j][i] = max(
                abs(math.log(a[0] / b[0])),
                alpha * abs(math.log(a[1] / b[1])),
                alpha * abs(math.log(a[2] / b[2])),
            )
    return matrix


def reference_distribute_evenly(total, minima, maxima):
    """One unit at a time to the lowest (weight, index) with headroom."""
    weights = list(minima)
    for _ in range(total - sum(weights)):
        j = min(
            (j for j in range(len(weights)) if weights[j] < maxima[j]),
            key=lambda k: (weights[k], k),
        )
        weights[j] += 1
    return weights


# --------------------------------------------------------------- strategies

#: A mutation history: observe(weight, rate) or decay_above(weight). Few
#: distinct weights and rates, so separate functions collide on knees and
#: values and the distance matrix is full of exact ties.
_WEIGHTS = st.sampled_from([1, 2, 3, 5, 10, 15, 20, 30, 60, 100, 101, 250, 1000])
_RATES = st.sampled_from([0.0, 0.0, 1e-7, 0.01, 0.25, 0.5, 1.0, 3.0])
_history = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), _WEIGHTS, _RATES),
        st.tuples(st.just("decay"), _WEIGHTS, st.just(0.1)),
    ),
    max_size=12,
)


def build(history, resolution=1000):
    fn = BlockingRateFunction(resolution, smoothing_alpha=0.3)
    for op, weight, amount in history:
        if op == "observe":
            fn.observe(weight, amount)
        else:
            fn.decay_above(weight, amount)
    return fn


@st.composite
def tied_matrices(draw):
    """Symmetric matrices over a handful of values: ties everywhere."""
    n = draw(st.integers(min_value=1, max_value=12))
    levels = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
            min_size=1,
            max_size=4,
        )
    )
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = draw(st.sampled_from(levels))
    return matrix, draw(st.sampled_from(levels + [0.0, 5.0]))


# -------------------------------------------------------------------- tests


class TestLinkageOracle:
    @settings(max_examples=300, deadline=None)
    @given(tied_matrices())
    def test_matches_full_rescan_on_tied_matrices(self, case):
        matrix, threshold = case
        assert agglomerative_cluster(matrix, threshold) == (
            reference_agglomerative_cluster(matrix, threshold)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
        st.randoms(use_true_random=False),
    )
    def test_matches_full_rescan_on_random_matrices(self, n, threshold, rng):
        matrix = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i][j] = matrix[j][i] = rng.choice(
                    [rng.uniform(0.0, 5.0), float(rng.randint(0, 3))]
                )
        assert agglomerative_cluster(matrix, threshold) == (
            reference_agglomerative_cluster(matrix, threshold)
        )

    def test_infinite_linkage_never_merges(self):
        inf = math.inf
        matrix = [[0.0, inf, 1.0], [inf, 0.0, inf], [1.0, inf, 0.0]]
        assert agglomerative_cluster(matrix, inf) == (
            reference_agglomerative_cluster(matrix, inf)
        ) == [[0, 2], [1]]


class TestClusterFunctionsOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_history, min_size=2, max_size=10),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
    def test_matches_pairwise_matrix_and_full_rescan(self, histories, threshold):
        functions = [build(history) for history in histories]
        expected = reference_agglomerative_cluster(
            reference_distance_matrix(
                copy.deepcopy(functions), DEFAULT_DELTA
            ),
            threshold,
        )
        assert cluster_functions(functions, threshold) == expected

    def test_equal_knee_ratios_tie_and_merge_in_row_major_order(self):
        # Knees 15, 30, 60: 15/30 and 30/60 are the same double, so the
        # two linkages tie exactly and the first pair merges. Features
        # kept as logs would not tie (log 15 - log 30 != log 30 - log 60
        # in the last place) and would merge the second pair instead.
        functions = [
            build([("observe", knee, 0.0), ("observe", knee + 1, 1.0)])
            for knee in (15, 30, 60)
        ]
        matrix = reference_distance_matrix(
            copy.deepcopy(functions), DEFAULT_DELTA
        )
        assert matrix[0][1] == matrix[1][2] == math.log(2.0)
        assert cluster_functions(functions, 0.7) == [[0, 1], [2]]

    @settings(max_examples=100, deadline=None)
    @given(_history, _history)
    def test_pairwise_distance_is_the_reference_entry(self, ha, hb):
        fa, fb = build(ha), build(hb)
        expected = reference_distance_matrix(
            [copy.deepcopy(fa), copy.deepcopy(fb)], DEFAULT_DELTA
        )[0][1]
        assert function_distance(fa, fb) == expected


class TestDistributeEvenlyOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_unit_at_a_time(self, data):
        n = data.draw(st.integers(min_value=1, max_value=12))
        minima = data.draw(
            st.lists(st.integers(0, 6), min_size=n, max_size=n)
        )
        maxima = [
            lo + data.draw(st.sampled_from([0, 0, 1, 2, 7, 40]))
            for lo in minima
        ]
        total = data.draw(st.integers(sum(minima), sum(maxima)))
        assert distribute_evenly(total, minima, maxima) == (
            reference_distribute_evenly(total, minima, maxima)
        )


class TestPointwiseEvaluationOracle:
    """``value``/``knee_weight`` without a table vs. the table itself."""

    @staticmethod
    def assert_pointwise_is_table(fn):
        walked = copy.deepcopy(fn).table()
        assert fn._table is None
        for w, expected in enumerate(walked):
            got = fn.value(w)
            # Bit equality, not ``==``: the sign of a zero counts too.
            assert (got, math.copysign(1.0, got)) == (
                expected, math.copysign(1.0, expected)
            ), f"F({w})"
            assert fn.value(float(w)) == expected
        assert fn._table is None, "value() must not materialize the table"

    @settings(max_examples=100, deadline=None)
    @given(_history)
    def test_every_weight_matches_the_table(self, history):
        self.assert_pointwise_is_table(build(history))

    def test_long_ramps_and_extrapolated_tail(self):
        # Two long sloped segments and a long sloped tail, plus a short
        # ramp and a flat run.
        fn = build([
            ("observe", 3, 0.1),
            ("observe", 76, 0.7),
            ("observe", 195, 0.7),
            ("observe", 323, 1.9),
        ])
        xs, _ys, slope = fn._fit()
        assert slope > 0.0 and fn.resolution - xs[-1] >= 64
        self.assert_pointwise_is_table(fn)
        # A flat tail (slope 0) and a short sloped tail.
        self.assert_pointwise_is_table(build([("observe", 400, 0.0)]))
        self.assert_pointwise_is_table(
            build([("observe", 900, 0.2), ("observe", 990, 0.9)])
        )

    @settings(max_examples=150, deadline=None)
    @given(
        _history,
        st.sampled_from([0.0, 1e-9, DEFAULT_DELTA, 1e-3, 0.1, 0.25, 0.5, 1.0, 9.0]),
    )
    def test_knee_from_breakpoints_is_the_table_knee(self, history, threshold):
        fn = build(history)
        table = copy.deepcopy(fn).table()
        expected = max(
            (w for w, v in enumerate(table) if v <= threshold), default=0
        )
        assert fn.knee_weight(threshold) == expected
        assert fn._table is None
        fn.table()
        assert fn.knee_weight(threshold) == expected

    @settings(max_examples=150, deadline=None)
    @given(_history, st.sampled_from([DEFAULT_DELTA, 1e-3, 0.3]))
    def test_features_from_breakpoints_are_the_table_features(
        self, history, delta
    ):
        fn = build(history)
        expected = table_features(copy.deepcopy(fn), delta)
        features = extract_features(fn, delta=delta)
        assert fn._table is None
        assert (
            features.knee_weight, features.knee_value, features.full_value
        ) == expected
