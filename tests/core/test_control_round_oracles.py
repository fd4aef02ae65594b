"""Differential oracles for the compute-once control round.

The clustered control round was rebuilt to do each piece of work once
(features per function, a nearest-neighbour cache in the linkage, a
water level in place of unit grants, point-wise evaluation in place of
``R + 1`` tables) under a hard promise: the weights and clusters it
produces are the ones the straightforward algorithms produce, bit for
bit. The straightforward algorithms live on here as references, and
hypothesis drives both sides over inputs built to contain ties — where a
changed scan order or a re-associated float expression would show.

The same promise covers the round that works by runs: Fox's greedy grants
a run of units per heap pop and the distance matrix holds ``inf`` for
pairs too far apart to merge. Unit-step Fox and the full pairwise matrix
are the references for those.

And it covers the rate function's raw data, kept as sorted columns and
fitted by one column-based PAVA: the references are a dict of
``[value, count]`` cells per weight and the list-of-blocks PAVA.
"""

import copy
import heapq
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.balancer import distribute_evenly
from repro.core.clustering import (
    DEFAULT_DELTA,
    agglomerative_cluster,
    cluster_functions,
    extract_features,
    function_distance,
)
from repro.core.constraints import WeightConstraints
from repro.core.monotone import monotone_regression
from repro.core.rap import solve_minimax_fox
from repro.core.rate_function import BlockingRateFunction

# -------------------------------------------------------------- references


def reference_pava(values, weights=None):
    """Pool-adjacent-violators over a list of ``[mean, weight, count]``
    blocks, with the already-monotone input returned as floats."""
    n = len(values)
    if n == 0:
        return []
    if weights is None:
        weights = [1.0] * n
    prev = values[0]
    for value in values:
        if value < prev:
            break
        prev = value
    else:
        return [float(value) for value in values]
    blocks = []
    for value, weight in zip(values, weights):
        blocks.append([float(value), float(weight), 1.0])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            mean2, w2, c2 = blocks.pop()
            mean1, w1, c1 = blocks.pop()
            total = w1 + w2
            blocks.append([(mean1 * w1 + mean2 * w2) / total, total, c1 + c2])
    fitted = []
    for mean, _weight, count in blocks:
        fitted.extend([mean] * int(count))
    return fitted


class ReferenceRaw:
    """A rate function's raw data as ``weight -> [value, count]`` cells."""

    def __init__(self, smoothing_alpha, max_count):
        self.smoothing_alpha = smoothing_alpha
        self.max_count = max_count
        self.cells = {0: [0.0, 1]}

    def observe(self, weight, rate):
        if weight == 0:
            return
        cell = self.cells.get(weight)
        if cell is None:
            self.cells[weight] = [float(rate), 1]
        else:
            cell[0] += self.smoothing_alpha * (float(rate) - cell[0])
            cell[1] = min(cell[1] + 1, self.max_count)

    def decay_above(self, weight, fraction):
        for w, cell in self.cells.items():
            if w > weight and cell[0] > 0.0:
                cell[0] *= 1.0 - fraction

    def decay_all(self, fraction):
        self.decay_above(0, fraction)

    def forget(self):
        self.cells = {0: [0.0, 1]}

    @classmethod
    def pooled(cls, members):
        pooled = cls(members[0].smoothing_alpha, members[0].max_count)
        mass, counts = {}, {}
        for member in members:
            for weight, (value, count) in member.cells.items():
                if weight == 0:
                    continue
                if weight in counts:
                    mass[weight] += value * count
                    counts[weight] += count
                else:
                    mass[weight] = value * count
                    counts[weight] = count
        for weight, count in counts.items():
            pooled.cells[weight] = [
                mass[weight] / count, min(count, pooled.max_count)
            ]
        return pooled

    def columns(self):
        xs = sorted(self.cells)
        return xs, [self.cells[w][0] for w in xs], [self.cells[w][1] for w in xs]

    def fit(self):
        xs, values, counts = self.columns()
        ys = reference_pava(values, [float(c) for c in counts])
        if len(xs) >= 2:
            slope = max(0.0, (ys[-1] - ys[-2]) / (xs[-1] - xs[-2]))
        else:
            slope = 0.0
        return xs, ys, slope


def bits(values):
    """Exact spelling of a float list: ``-0.0`` and ``0.0`` differ."""
    return [float(v).hex() for v in values]


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


def fox_unit_steps(functions, resolution, constraints):
    """Fox's greedy one unit at a time: a pop, a grant and a push each."""
    functions = [f if callable(f) else f.__getitem__ for f in functions]
    weights = list(constraints.minima)
    heap = [
        (fn(weights[j] + 1), j)
        for j, fn in enumerate(functions)
        if weights[j] < constraints.maxima[j]
    ]
    heapq.heapify(heap)
    for _ in range(resolution - sum(weights)):
        _value, j = heapq.heappop(heap)
        weights[j] += 1
        if weights[j] < constraints.maxima[j]:
            heapq.heappush(heap, (functions[j](weights[j] + 1), j))
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
        elif op == "decay":
            fn.decay_above(weight, amount)
        elif op == "decay_all":
            fn.decay_all(amount)
        else:
            fn.forget()
    return fn


#: Every mutation a function can see, at a resolution small enough to
#: evaluate at every weight and every fraction of one.
_SMALL = 40
_small_weights = st.integers(min_value=0, max_value=_SMALL)
_any_history = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), _small_weights, _RATES),
        st.tuples(st.just("decay"), _small_weights, st.sampled_from([0.1, 0.5])),
        st.tuples(st.just("decay_all"), st.just(0), st.sampled_from([0.5, 1.0])),
        st.tuples(st.just("forget"), st.just(0), st.just(0.0)),
    ),
    max_size=14,
)


@st.composite
def tied_matrices(draw):
    """Symmetric matrices over a handful of values: ties everywhere.

    Some carry ``inf`` — what :func:`cluster_functions` writes for a pair
    it knows to be past the threshold.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    levels = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
            min_size=1,
            max_size=4,
        )
    )
    if draw(st.booleans()):
        levels.append(math.inf)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = draw(st.sampled_from(levels))
    return matrix, draw(st.sampled_from(levels + [0.0, 5.0]))


@st.composite
def fox_instances(draw):
    """Monotone functions full of ties, under bounds that cut runs short.

    Every function is a sorted draw from three shared levels (long flat
    runs, equal values across functions), all zeros, or a copy of the one
    before; each goes in as a table or as a callable. Maxima of 0 are the
    quarantine shape; small ones end a run before the contender does.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    resolution = draw(st.integers(min_value=1, max_value=60))
    levels = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
            min_size=3,
            max_size=3,
        )
    )
    tables: list[list[float]] = []
    for _ in range(n):
        kind = draw(st.sampled_from(["steps", "steps", "zero", "copy"]))
        if kind == "copy" and tables:
            tables.append(tables[-1])
        elif kind == "zero":
            tables.append([0.0] * (resolution + 1))
        else:
            tables.append(sorted(draw(st.lists(
                st.sampled_from(levels),
                min_size=resolution + 1,
                max_size=resolution + 1,
            ))))
    functions = [
        table if draw(st.booleans()) else table.__getitem__
        for table in tables
    ]
    maxima = [
        min(resolution, draw(st.sampled_from([0, 1, 2, 5, 60])))
        for _ in range(n)
    ]
    if sum(maxima) < resolution:
        maxima[draw(st.integers(0, n - 1))] = resolution
    minima = [0] * n
    budget = resolution
    for j in draw(st.permutations(range(n))):
        minima[j] = draw(st.integers(0, min(maxima[j], budget)))
        budget -= minima[j]
    if draw(st.integers(0, 9)) == 0:
        # Nothing to hand out: the minima already take every unit.
        for j in range(n):
            top_up = min(maxima[j] - minima[j], budget)
            minima[j] += top_up
            budget -= top_up
    constraints = WeightConstraints(
        minima=tuple(minima), maxima=tuple(maxima)
    )
    return functions, resolution, constraints


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


def _knee_at(weight):
    """History of a function whose knee sits at ``weight``."""
    return [("observe", weight, 0.0), ("observe", weight + 1, 1.0)]


class TestClusterFunctionsOracle:
    # A threshold is a fixed level or ``(k, nudge)``: the k-th smallest
    # distance between two of the functions, moved ``nudge`` ulps. A pair
    # sitting exactly on the threshold merges, one ulp above it does not,
    # and the pruning's coordinate gaps are not the exact distance to the
    # last place — knees 15 and 30 are log(2) apart exactly but
    # log(30) - log(15) is one ulp more.
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_history, min_size=2, max_size=10),
        st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 2.0]),
            st.tuples(st.integers(0, 44), st.sampled_from([-1, 0, 1])),
        ),
    )
    @example([_knee_at(15), _knee_at(30)], (0, 0))
    @example([_knee_at(15), _knee_at(30)], (0, 1))
    @example([_knee_at(15), _knee_at(30)], (0, -1))
    @example([_knee_at(30), _knee_at(60), _knee_at(15)], (1, 0))
    def test_matches_pairwise_matrix_and_full_rescan(self, histories, threshold):
        functions = [build(history) for history in histories]
        matrix = reference_distance_matrix(
            copy.deepcopy(functions), DEFAULT_DELTA
        )
        if isinstance(threshold, tuple):
            k, nudge = threshold
            found = sorted(
                matrix[i][j]
                for i in range(len(matrix))
                for j in range(i + 1, len(matrix))
            )
            threshold = found[k % len(found)]
            if nudge:
                threshold = max(
                    0.0, math.nextafter(threshold, nudge * math.inf)
                )
        expected = reference_agglomerative_cluster(matrix, threshold)
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


class TestFoxByRunsOracle:
    """A run of grants per pop vs. one grant per pop: the same weights."""

    @settings(max_examples=300, deadline=None)
    @given(fox_instances())
    def test_matches_unit_steps_on_tied_monotone_functions(self, case):
        assert solve_minimax_fox(*case) == fox_unit_steps(*case)

    def test_runs_end_at_a_maximum_and_at_the_last_unit(self):
        flat, steep = [0.0] * 11, [float(w) for w in range(11)]
        # Connection 0 would win all ten units; its maximum stops it at 4.
        capped = WeightConstraints(minima=(0, 0), maxima=(4, 10))
        assert solve_minimax_fox([flat, steep], 10, capped) == [4, 6]
        # Connection 1 wins the first unit of a run of five with three left.
        rising = [0.0, 0.0, 0.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0]
        mid = [5.0] * 6 + [9.5] * 5
        free = WeightConstraints.unbounded(2, 5)
        assert solve_minimax_fox([rising, mid], 5, free) == [2, 3]
        for tables, total, bounds in (
            ([flat, steep], 10, capped), ([rising, mid], 5, free),
        ):
            assert solve_minimax_fox(tables, total, bounds) == (
                fox_unit_steps(tables, total, bounds)
            )

    def test_a_run_costs_logarithmically_many_evaluations(self):
        # Two functions nothing distinguishes: connection 0 wins every tie,
        # so all 1000 units are one run. (Ending a run early is still
        # correct — the entry pushed back is popped again — just slow;
        # only the count shows it.)
        calls = []

        def flat(weight):
            calls.append(weight)
            return 0.0

        assert solve_minimax_fox([flat, flat], 1000) == [1000, 0]
        assert len(calls) <= 2 + 2 * math.ceil(math.log2(1000))

    def test_cluster_evaluators_at_the_paper_resolution(self):
        # What the clustered round hands the solver: pooled functions
        # evaluated at the cluster's allocation split across its members,
        # under bounds summed over the members.
        resolution = 1000
        pooled = [
            build([("observe", 3, 0.0), ("observe", 4, 0.4)]),
            build([("observe", 15, 0.0), ("observe", 16, 0.01),
                   ("observe", 40, 0.6), ("decay", 20, 0.1)]),
            build([]),
            build([("observe", 15, 0.0), ("observe", 16, 0.01),
                   ("observe", 40, 0.6), ("decay", 20, 0.1)]),
            build([("observe", 41, 1e-7), ("observe", 100, 0.25),
                   ("observe", 101, 0.25), ("observe", 250, 3.0)]),
        ]
        sizes = [20, 7, 3, 1, 33]
        evaluators = [
            lambda total, fn=fn, size=size: fn.value(
                min(resolution, total / size)
            )
            for fn, size in zip(pooled, sizes)
        ]
        constraints = WeightConstraints(
            minima=(0, 35, 0, 0, 120), maxima=(1000, 800, 300, 117, 1000)
        )
        weights = solve_minimax_fox(evaluators, resolution, constraints)
        assert weights == fox_unit_steps(evaluators, resolution, constraints)
        assert sum(weights) == resolution and min(weights) > 0

    def test_a_function_that_dips_gets_a_feasible_allocation_only(self):
        # The precondition, documented: F_0 dips back to 1 after a 5. Unit
        # steps stop at the 5; the doubling probe steps over it.
        dips = [0.0, 1.0, 1.0, 5.0, 1.0]
        level = [0.0, 2.0, 2.0, 2.0, 2.0]
        free = WeightConstraints.unbounded(2, 4)
        assert fox_unit_steps([dips, level], 4, free) == [2, 2]
        assert solve_minimax_fox([dips, level], 4, free) == [4, 0]


class TestFunctionsAreMonotone:
    """What the run search stands on: no evaluation ever decreases."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_any_history, min_size=1, max_size=3))
    def test_tables_and_fractional_evaluations_never_decrease(self, histories):
        members = [build(history, _SMALL) for history in histories]
        for fn in members + [BlockingRateFunction.pooled(members)]:
            TestPointwiseEvaluationOracle.assert_pointwise_is_table(fn)
            table = fn.table()
            assert all(a <= b for a, b in zip(table, table[1:]))
            for size in range(1, 9):
                # A cluster of ``size`` members evaluates its pooled
                # function at total / size, capped at the resolution.
                walked = [
                    fn.value(min(_SMALL, total / size))
                    for total in range(size * _SMALL + 2)
                ]
                assert all(a <= b for a, b in zip(walked, walked[1:])), size


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


#: Operations on a pool of up to three functions: ``(op, target, weight,
#: amount, members)``. Few weights so cells are revisited and counts
#: saturate; rates include zeros so whole functions stay at zero.
_SLOTS = st.integers(0, 2)
_raw_ops = st.one_of(
    st.tuples(
        st.just("observe"), _SLOTS, st.sampled_from([0, 1, 2, 5, 13, 40]),
        st.sampled_from([0.0, -0.0, 1e-7, 0.01, 0.25, 1.0, 3.0]), st.just(()),
    ),
    st.tuples(
        st.just("observe"), _SLOTS, st.integers(0, _SMALL),
        st.floats(0.0, 10.0), st.just(()),
    ),
    st.tuples(
        st.just("decay_above"), _SLOTS, st.integers(0, _SMALL),
        st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.just(()),
    ),
    st.tuples(
        st.just("decay_all"), _SLOTS, st.just(0),
        st.sampled_from([0.0, 0.5, 1.0]), st.just(()),
    ),
    st.tuples(st.just("forget"), _SLOTS, st.just(0), st.just(0.0), st.just(())),
    st.tuples(
        st.just("pooled"), _SLOTS, st.just(0), st.just(0.0),
        st.lists(_SLOTS, min_size=1, max_size=4),
    ),
)


class TestRawColumnsOracle:
    """Sorted raw columns and the one PAVA vs. dict cells and block lists."""

    @staticmethod
    def assert_same(fn, ref):
        xs, values, counts = ref.columns()
        assert fn.observed_weights() == xs
        assert bits(fn.raw_value(w) for w in xs) == bits(values)
        assert fn._counts == counts
        got_xs, got_ys, got_slope = fn._fit()
        ref_xs, ref_ys, ref_slope = ref.fit()
        assert got_xs == ref_xs
        assert bits(got_ys) == bits(ref_ys)
        assert bits([got_slope]) == bits([ref_slope])

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, 64]),
        st.sampled_from([0.3, 0.5, 1.0]),
        st.lists(_raw_ops, max_size=40),
    )
    @example(2, 0.3, [("observe", 0, 5, 1.0, ())] * 4 + [
        ("observe", 0, 2, 3.0, ()), ("observe", 1, 5, 0.0, ()),
        ("pooled", 2, 0, 0.0, [0, 1, 0]), ("observe", 2, 5, 2.0, ()),
    ])
    @example(64, 0.5, [
        ("observe", 0, 0, 1.0, ()), ("observe", 0, 3, 0.0, ()),
        ("observe", 1, 7, 0.0, ()), ("pooled", 2, 0, 0.0, [0, 1]),
        ("decay_all", 2, 0, 1.0, ()),
    ])
    def test_fit_matches_the_reference_on_the_same_raw_data(
        self, max_count, alpha, ops
    ):
        functions = [
            BlockingRateFunction(
                _SMALL, smoothing_alpha=alpha, max_count=max_count
            )
            for _ in range(3)
        ]
        refs = [ReferenceRaw(alpha, max_count) for _ in range(3)]
        for op, target, weight, amount, members in ops:
            if op == "pooled":
                functions[target] = BlockingRateFunction.pooled(
                    [functions[j] for j in members]
                )
                refs[target] = ReferenceRaw.pooled([refs[j] for j in members])
            elif op == "observe" or op == "decay_above":
                getattr(functions[target], op)(weight, amount)
                getattr(refs[target], op)(weight, amount)
            elif op == "decay_all":
                functions[target].decay_all(amount)
                refs[target].decay_all(amount)
            else:
                functions[target].forget()
                refs[target].forget()
            self.assert_same(functions[target], refs[target])
        for fn, ref in zip(functions, refs):
            self.assert_same(fn, ref)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0]),
                    st.integers(-5, 5),
                ),
                st.one_of(
                    st.floats(1e-3, 1e3), st.integers(1, 64),
                    st.floats(min_value=5e-324, max_value=1e300),
                ),
            ),
            max_size=30,
        ),
        st.booleans(),
    )
    def test_monotone_regression_matches_the_reference(self, points, weighted):
        values = [v for v, _ in points]
        weights = [w for _, w in points] if weighted else None
        assert bits(monotone_regression(values, weights)) == bits(
            reference_pava(values, weights)
        )
