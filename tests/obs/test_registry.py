"""Unit tests for the metrics registry: callback gauges and histograms."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.schema import validate_prometheus

BOUNDS = (0.005, 0.1, 1.0, 10.0)

#: Values on every side of every bound: exactly on one, 0 and -0,
#: negatives, ±inf, above the last bound, and arbitrary finite doubles.
EDGE_VALUES = st.one_of(
    st.sampled_from(
        BOUNDS + (0.0, -0.0, -1.0, 11.0, 1e300, math.inf, -math.inf)
    ),
    st.floats(allow_nan=False),
)


def histogram_state(h):
    """Everything a histogram holds, with the sum compared bit for bit."""
    return h.counts, h.count, struct.pack("<d", h.sum)


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

    def test_value_on_a_bound_lands_in_that_bucket(self):
        h = Histogram("h", (), BOUNDS)
        for v in (-math.inf, -1.0, 0.0, 0.005, 1.0, 10.0, 10.5, math.inf):
            h.observe(v)
        assert h.counts == [4, 0, 1, 1, 2]

    def test_nan_is_rejected_and_leaves_no_trace(self):
        # It used to land in +Inf and turn the sum into NaN for the rest
        # of the run, which the Prometheus export then printed.
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=BOUNDS)
        h.observe(0.5)
        with pytest.raises(ValueError, match="NaN"):
            h.observe(math.nan)
        with pytest.raises(ValueError, match="NaN"):
            h.observe(math.nan, 3)
        assert (h.counts, h.count, h.sum) == ([0, 0, 1, 0, 0], 1, 0.5)
        assert "NaN" not in registry.to_prometheus()

    def test_negative_count_is_rejected_and_leaves_no_trace(self):
        # A negative count used to take observations back: 3 then -2 left
        # count 1 beside a sum of 1.5, and the Prometheus export passed
        # validation with a mean three times the only value ever seen.
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=BOUNDS)
        h.observe(0.5, 3)
        with pytest.raises(ValueError, match="count"):
            h.observe(0.5, -2)
        assert (h.counts, h.count, h.sum) == ([0, 0, 3, 0, 0], 3, 1.5)
        assert validate_prometheus(registry.to_prometheus()) == []

    def test_zero_count_is_a_no_op(self):
        h = Histogram("h", (), BOUNDS)
        h.observe(0.5)
        before = histogram_state(h)
        h.observe(20.0, 0)
        assert histogram_state(h) == before

    def test_bulk_nan_raises_after_recording_what_came_before(self):
        bulk = Histogram("h", (), BOUNDS)
        one = Histogram("h", (), BOUNDS)
        values = [0.5, 20.0, math.nan, 0.001]
        with pytest.raises(ValueError, match="NaN"):
            bulk.observe_many(values)
        with pytest.raises(ValueError, match="NaN"):
            for v in values:
                one.observe(v)
        assert histogram_state(bulk) == histogram_state(one)
        assert bulk.count == 2

    @settings(max_examples=200, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(EDGE_VALUES, st.integers(min_value=1, max_value=20)),
            max_size=12,
        ),
        start=EDGE_VALUES,
    )
    def test_bulk_paths_equal_sequential_observe(self, runs, start):
        # The merger's two block shapes, a uniform-born run and a born
        # column, against one observe per tuple in tuple order.
        one = Histogram("h", (), BOUNDS)
        repeated = Histogram("h", (), BOUNDS)
        column = Histogram("h", (), BOUNDS)
        for h in (one, repeated, column):
            h.observe(start)
        flat = []
        for value, count in runs:
            repeated.observe(value, count)
            flat.extend([value] * count)
        column.observe_many(flat)
        for value in flat:
            one.observe(value)
        assert histogram_state(repeated) == histogram_state(one)
        assert histogram_state(column) == histogram_state(one)

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
