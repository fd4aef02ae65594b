"""Unit tests for the metrics registry: callback gauges and histograms."""

import math

import pytest

from repro.obs.registry import DEFAULT_BUCKETS, Histogram, MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestGauge:
    def test_callback_gauge_reads_live(self, registry):
        state = {"v": 1}
        g = registry.gauge_fn("live", lambda: state["v"])
        assert g.value == 1.0
        state["v"] = 42
        assert g.value == 42.0
        assert registry.read("live") == 42.0


class TestHistogram:
    def test_bucketing_and_cumulative(self, registry):
        h = registry.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        assert h.counts == [1, 2, 1]
        assert h.cumulative() == [1, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(6.05)

    def test_samples_expand_to_prometheus_series(self, registry):
        h = registry.histogram("lat", buckets=(0.1,))
        h.observe(0.05)
        names = [(name, dict(labels)) for name, labels, _ in h.samples()]
        assert ("lat_bucket", {"le": "0.1"}) in names
        assert ("lat_bucket", {"le": "+Inf"}) in names
        assert ("lat_sum", {}) in names
        assert ("lat_count", {}) in names

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", (), (1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", (), ())

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_read_rejects_histogram(self, registry):
        registry.histogram("lat")
        with pytest.raises(TypeError):
            registry.read("lat")


class TestRegistry:
    def test_reregistration_returns_same_object(self, registry):
        a = registry.gauge_fn("x_total", lambda: 1, connection="0")
        b = registry.gauge_fn("x_total", lambda: 2, connection="0")
        assert a is b

    def test_labels_distinguish_instruments(self, registry):
        a = registry.gauge_fn("x_total", lambda: 1, connection="0")
        b = registry.gauge_fn("x_total", lambda: 0, connection="1")
        assert a is not b
        assert registry.read("x_total", connection="0") == 1.0
        assert registry.read("x_total", connection="1") == 0.0

    def test_kind_mismatch_rejected(self, registry):
        registry.gauge_fn("x_total", lambda: 0)
        with pytest.raises(ValueError):
            registry.histogram("x_total")

    def test_family_kind_enforced_across_label_sets(self, registry):
        registry.gauge_fn("x_total", lambda: 0, connection="0")
        with pytest.raises(ValueError):
            registry.histogram("x_total", connection="1")

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.gauge_fn("bad-name", lambda: 0)
        with pytest.raises(ValueError):
            registry.gauge_fn("ok_total", lambda: 0, **{"0bad": "x"})

    def test_read_unregistered_is_zero(self, registry):
        assert registry.read("nope") == 0.0

    def test_snapshot_keys(self, registry):
        registry.gauge_fn("a_total", lambda: 2)
        registry.gauge_fn("b", lambda: 3, connection="1")
        snap = registry.snapshot()
        assert snap["a_total"] == 2.0
        assert snap['b{connection="1"}'] == 3.0

    def test_to_prometheus_renders_help_type_and_values(self, registry):
        registry.gauge_fn("a_total", lambda: 1, help="things")
        registry.gauge_fn("nanny", lambda: math.nan)
        registry.gauge_fn("infy", lambda: math.inf)
        text = registry.to_prometheus()
        assert "# HELP a_total things" in text
        assert "# TYPE a_total gauge" in text
        assert "a_total 1.0" in text
        assert "nanny NaN" in text
        assert "infy +Inf" in text
        assert text.endswith("\n")

    def test_to_prometheus_empty_registry(self, registry):
        assert registry.to_prometheus() == ""

    def test_label_escaping(self, registry):
        registry.gauge_fn("a_total", lambda: 0, tag='quo"te\nnl')
        (key,) = registry.snapshot()
        assert key == 'a_total{tag="quo\\"te\\nnl"}'
