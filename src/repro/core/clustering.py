"""Clustering of blocking rate functions (Section 5.3).

With many connections the fixed budget of blocking observations is spread
too thin for per-connection functions to be accurate. The paper's insight:
PEs sharing a host (or a load class) perform alike, so *cluster* similar
functions and pool their data.

The distance between two functions compares three scale-free features —
the service-rate knee ``w_{j,s}``, the blocking level at the knee, and the
blocking level at full load ``R`` — as absolute log-ratios, taking the max
(not a sum, "to avoid the information loss inherent in aggregating
numbers"):

    Distance(F_j, F_k) = max( |log(w_js / w_ks)|,
                              alpha * |log(F_j(w_js) / F_k(w_ks))|,
                              alpha * |log(F_j(R)   / F_k(R))| )

with ``alpha = log(R) / |log(R * delta)|`` putting the value ratios on the
same scale as the weight ratio, ``delta`` being the small constant
introduced when forcing monotonicity (here: the floor that keeps the
logarithms finite).

Clusters come from agglomerative (complete-linkage) clustering with a merge
threshold; member data is pooled into one function per cluster and the RAP
is solved over clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.rate_function import BlockingRateFunction

#: Default floor value keeping log-ratios finite (the paper's ``delta``).
DEFAULT_DELTA = 1e-6

#: Slack on the pruning test in :func:`cluster_functions`, which compares
#: the gap of two rounded logarithms where :func:`_feature_distance` takes
#: the logarithm of a rounded ratio and scales it by ``alpha``. The two
#: disagree by a few ulps of the largest finite logarithm (``|log x| <
#: 745``, one ulp 1.2e-13) plus the rounding of ``threshold / alpha``;
#: 1e-9 covers that thousands of times over. Too much slack only costs an
#: exact distance or two; too little drops a pair sitting on the threshold.
_PRUNE_SLACK = 1e-9


@dataclass(slots=True, frozen=True)
class FunctionFeatures:
    """The three features the distance function compares."""

    knee_weight: float
    knee_value: float
    full_value: float


def extract_features(
    fn: BlockingRateFunction, *, delta: float = DEFAULT_DELTA
) -> FunctionFeatures:
    """Compute a function's (knee, knee value, full-load value) features.

    All three are floored at ``delta`` (weights at 1) so that log-ratios
    are always defined: a connection that has never blocked has a knee at
    ``R`` and value floors everywhere.
    """
    resolution = fn.resolution
    knee = max(1, fn.knee_weight(threshold=delta))
    at_knee = fn.value(min(knee + 1, resolution))
    at_full = fn.value(resolution)
    return FunctionFeatures(
        knee_weight=float(knee),
        knee_value=max(delta, at_knee),
        full_value=max(delta, at_full),
    )


def distance_alpha(resolution: int, delta: float = DEFAULT_DELTA) -> float:
    """The paper's scaling factor ``alpha = log R / |log(R delta)|``."""
    if resolution <= 1:
        raise ValueError("resolution must exceed 1")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return math.log(resolution) / abs(math.log(resolution * delta))


def _check_shared_resolution(functions: Sequence[BlockingRateFunction]) -> None:
    resolution = functions[0].resolution
    if any(fn.resolution != resolution for fn in functions):
        raise ValueError("functions must share a resolution")


def _feature_distance(
    a: FunctionFeatures, b: FunctionFeatures, alpha: float
) -> float:
    """The Section 5.3 distance between two extracted feature triples."""
    return max(
        abs(math.log(a.knee_weight / b.knee_weight)),
        alpha * abs(math.log(a.knee_value / b.knee_value)),
        alpha * abs(math.log(a.full_value / b.full_value)),
    )


def function_distance(
    fa: BlockingRateFunction,
    fb: BlockingRateFunction,
    *,
    delta: float = DEFAULT_DELTA,
) -> float:
    """Distance between two blocking rate functions (Section 5.3)."""
    _check_shared_resolution((fa, fb))
    return _feature_distance(
        extract_features(fa, delta=delta),
        extract_features(fb, delta=delta),
        distance_alpha(fa.resolution, delta),
    )


def agglomerative_cluster(
    distances: Sequence[Sequence[float]],
    threshold: float,
) -> list[list[int]]:
    """Complete-linkage agglomerative clustering.

    ``distances`` is a symmetric matrix. Starting from singletons, the two
    clusters whose *maximum* pairwise member distance is smallest are
    merged, repeatedly, while that linkage stays at or below ``threshold``;
    among equal linkages the first pair in row-major order merges.
    Returns clusters as sorted index lists, ordered by their smallest
    member, so results are deterministic.

    Each row caches its nearest later neighbour, so finding the pair to
    merge costs O(N) and folding the merge into the linkage matrix visits
    the slots still standing; only rows whose cached neighbour was one of
    the merged pair are rescanned. That is O(N^2) overall unless many rows
    keep pointing at the clusters being merged.

    An entry above ``threshold`` only ever says "not these two": a
    complete link can never fall back below it, and merging stops at the
    first best link above it. ``inf`` there gives the same clusters as the
    exact distance (:func:`cluster_functions` relies on this).
    """
    n = len(distances)
    if n == 0:
        return []
    for row in distances:
        if len(row) != n:
            raise ValueError("distance matrix must be square")
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")

    inf = math.inf
    # A cluster lives in the slot of its smallest member; a merge retires
    # the higher slot: it leaves ``live`` and its column goes to infinity,
    # which no minimum ever selects. Slot order is therefore row-major
    # order.
    clusters: list[list[int] | None] = [[i] for i in range(n)]
    # Cluster-to-cluster complete linkage, maintained incrementally via the
    # Lance-Williams update: link(x+y, k) = max(link(x, k), link(y, k)).
    link = [list(row) for row in distances]
    live = list(range(n))
    nearest = [-1] * n
    nearest_link = [inf] * n

    def rescan(x: int) -> None:
        """Row ``x``'s first minimum among the slots after it."""
        later = link[x][x + 1:]
        best = min(later, default=inf)
        nearest_link[x] = best
        nearest[x] = x + 1 + later.index(best) if best < inf else -1

    for x in range(n):
        rescan(x)

    for _ in range(n - 1):
        best_link = min(nearest_link)
        if best_link == inf or best_link > threshold:
            break
        x = nearest_link.index(best_link)
        y = nearest[x]
        clusters[x] = sorted(clusters[x] + clusters[y])
        clusters[y] = None
        live.remove(y)
        row_x, row_y = link[x], link[y]
        for k in live:
            if row_x[k] < row_y[k]:
                row_x[k] = link[k][x] = row_y[k]
            link[k][y] = inf
        nearest[y], nearest_link[y] = -1, inf
        # Linkages to x only grew and y is gone: a row keeps its cached
        # neighbour unless that neighbour was x or y.
        for k in live:
            if k >= y:
                break
            if k == x or nearest[k] == x or nearest[k] == y:
                rescan(k)

    return [cluster for cluster in clusters if cluster is not None]


def cluster_functions(
    functions: Sequence[BlockingRateFunction],
    threshold: float,
    *,
    delta: float = DEFAULT_DELTA,
) -> list[list[int]]:
    """Cluster connections by the distance between their functions.

    One round's work is done once: the shared resolution is checked and
    ``alpha`` computed on entry, each function's features are extracted
    once (O(N)), and the distance matrix is filled from them — exactly,
    for the pairs that could merge. A pair whose gap in any one
    log-coordinate already exceeds the threshold is further apart than
    the threshold whatever the other two say, and to the linkage every
    such distance is as good as ``inf``.

    Pairs are visited in order of the knee coordinate, so a row ends at
    the first partner whose knee gap exceeds the reach: every later one
    is further still. Each exact distance is still taken with the lower
    index first, as ``log(a / b)`` and ``-log(b / a)`` can differ in the
    last place.
    """
    n = len(functions)
    matrix = [[math.inf] * n for _ in range(n)]
    if n > 1:
        _check_shared_resolution(functions)
        alpha = distance_alpha(functions[0].resolution, delta)
        features = [extract_features(fn, delta=delta) for fn in functions]
        knees = [math.log(f.knee_weight) for f in features]
        at_knees = [math.log(f.knee_value) for f in features]
        at_fulls = [math.log(f.full_value) for f in features]
        order = sorted(range(n), key=knees.__getitem__)
        knee_reach = threshold + _PRUNE_SLACK
        value_reach = threshold / alpha + _PRUNE_SLACK
        for a, i in enumerate(order):
            knee, at_knee, at_full = knees[i], at_knees[i], at_fulls[i]
            for j in order[a + 1:]:
                if knees[j] - knee > knee_reach:
                    break
                if (
                    abs(at_knee - at_knees[j]) <= value_reach
                    and abs(at_full - at_fulls[j]) <= value_reach
                ):
                    low, high = (i, j) if i < j else (j, i)
                    matrix[low][high] = matrix[high][low] = _feature_distance(
                        features[low], features[high], alpha
                    )
    return agglomerative_cluster(matrix, threshold)
