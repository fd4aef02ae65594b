"""Unit tests for function clustering (Section 5.3)."""

import math

import pytest

from repro.core.clustering import (
    agglomerative_cluster,
    cluster_functions,
    distance_alpha,
    extract_features,
    function_distance,
)
from repro.core.rate_function import BlockingRateFunction


def fn_with(points, resolution=1000):
    fn = BlockingRateFunction(resolution)
    for weight, rate in points:
        fn.observe(weight, rate)
    return fn


class TestFeatures:
    def test_no_data_function(self):
        features = extract_features(BlockingRateFunction())
        assert features.knee_weight == 1000
        assert features.knee_value == pytest.approx(1e-6)
        assert features.full_value == pytest.approx(1e-6)

    def test_knee_and_values_floored(self):
        features = extract_features(fn_with([(500, 1.0)]))
        assert features.knee_weight >= 1
        assert features.knee_value > 0
        assert features.full_value >= features.knee_value


class TestDistance:
    def test_identical_functions_distance_zero(self):
        a = fn_with([(500, 1.0)])
        b = fn_with([(500, 1.0)])
        assert function_distance(a, b) == pytest.approx(0.0)

    def test_symmetry(self):
        a = fn_with([(500, 1.0)])
        b = fn_with([(100, 2.0)])
        assert function_distance(a, b) == pytest.approx(function_distance(b, a))

    def test_different_capacity_classes_far_apart(self):
        healthy = fn_with([(600, 0.05)])
        overloaded = fn_with([(5, 0.9)])
        similar = fn_with([(580, 0.06)])
        assert function_distance(healthy, overloaded) > function_distance(
            healthy, similar
        )

    def test_alpha_formula(self):
        # alpha = log R / |log(R * delta)|
        assert distance_alpha(1000, 1e-6) == pytest.approx(
            math.log(1000) / abs(math.log(1000 * 1e-6))
        )

    def test_resolution_mismatch_rejected(self):
        with pytest.raises(ValueError):
            function_distance(
                BlockingRateFunction(100), BlockingRateFunction(200)
            )


class TestAgglomerative:
    def test_empty(self):
        assert agglomerative_cluster([], 1.0) == []

    def test_threshold_zero_keeps_singletons(self):
        matrix = [[0.0, 5.0], [5.0, 0.0]]
        assert agglomerative_cluster(matrix, 0.0) == [[0], [1]]

    def test_close_pair_merges(self):
        matrix = [
            [0.0, 0.1, 9.0],
            [0.1, 0.0, 9.0],
            [9.0, 9.0, 0.0],
        ]
        assert agglomerative_cluster(matrix, 1.0) == [[0, 1], [2]]

    def test_complete_linkage_blocks_chaining(self):
        # 0-1 close, 1-2 close, but 0-2 far: complete linkage refuses to
        # chain all three into one cluster.
        matrix = [
            [0.0, 1.0, 3.0],
            [1.0, 0.0, 1.0],
            [3.0, 1.0, 0.0],
        ]
        clusters = agglomerative_cluster(matrix, 1.5)
        assert len(clusters) == 2

    def test_everything_merges_under_huge_threshold(self):
        matrix = [[0.0, 2.0], [2.0, 0.0]]
        assert agglomerative_cluster(matrix, 10.0) == [[0, 1]]

    def test_square_matrix_required(self):
        with pytest.raises(ValueError):
            agglomerative_cluster([[0.0, 1.0]], 1.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            agglomerative_cluster([[0.0]], -1.0)

    def test_deterministic_output_order(self):
        matrix = [
            [0.0, 0.1, 9.0, 9.0],
            [0.1, 0.0, 9.0, 9.0],
            [9.0, 9.0, 0.0, 0.1],
            [9.0, 9.0, 0.1, 0.0],
        ]
        assert agglomerative_cluster(matrix, 1.0) == [[0, 1], [2, 3]]


class TestClusterFunctions:
    def test_capacity_classes_separate(self):
        # Two overloaded channels (blocking at tiny weights), two healthy.
        functions = [
            fn_with([(5, 0.9), (8, 1.1)]),
            fn_with([(6, 1.0)]),
            fn_with([(600, 0.05)]),
            fn_with([(580, 0.06)]),
        ]
        clusters = cluster_functions(functions, threshold=1.0)
        assert [0, 1] in clusters
        assert [2, 3] in clusters

    @pytest.mark.parametrize("position", [0, 5])
    def test_resolution_mismatch_rejected_on_entry(self, monkeypatch, position):
        # A mismatch anywhere — first or last position — is reported
        # before a single feature is extracted or distance computed.
        from repro.core import clustering

        def no_work_expected(*_args, **_kwargs):
            raise AssertionError("features extracted before validation")

        monkeypatch.setattr(clustering, "extract_features", no_work_expected)
        functions = [fn_with([(100, 0.5)]) for _ in range(6)]
        functions[position] = fn_with([(100, 0.5)], resolution=500)
        with pytest.raises(ValueError, match="functions must share a resolution"):
            cluster_functions(functions, threshold=1.0)

    def test_partition_covers_all(self):
        functions = [fn_with([(100 * (j + 1), 0.1 * (j + 1))]) for j in range(5)]
        clusters = cluster_functions(functions, threshold=0.5)
        members = sorted(j for cluster in clusters for j in cluster)
        assert members == [0, 1, 2, 3, 4]
