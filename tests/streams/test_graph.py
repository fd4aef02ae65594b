"""Unit tests for the dataflow graph."""

import pytest

from repro.streams.graph import GraphError, StreamGraph
from repro.streams.operators import Filter, PassThrough, SinkOp, SourceOp


def small_graph():
    g = StreamGraph()
    src = g.add(SourceOp("src", 10.0, tuple_cost=100.0, total=10))
    mid = g.add(PassThrough("mid", 10.0))
    sink = g.add(SinkOp("sink"))
    g.chain(src, mid, sink)
    return g, (src, mid, sink)


class TestBuilding:
    def test_chain_connects_pairs(self):
        g, (src, mid, sink) = small_graph()
        assert g.edges == [(src, mid), (mid, sink)]

    def test_duplicate_name_rejected(self):
        g = StreamGraph()
        g.add(PassThrough("x", 1.0))
        with pytest.raises(GraphError):
            g.add(PassThrough("x", 2.0))

    def test_self_loop_rejected(self):
        g = StreamGraph()
        node = g.add(PassThrough("x", 1.0))
        with pytest.raises(GraphError):
            g.connect(node, node)

    def test_duplicate_edge_rejected(self):
        g, (src, mid, _) = small_graph()
        with pytest.raises(GraphError):
            g.connect(src, mid)

    def test_unknown_node_rejected(self):
        g = StreamGraph()
        g.add(PassThrough("x", 1.0))
        with pytest.raises(GraphError):
            g.connect(0, 5)


class TestQueries:
    def test_up_and_downstream(self):
        g, (src, mid, sink) = small_graph()
        assert g.upstream_of(mid) == [src]
        assert g.downstream_of(mid) == [sink]

    def test_sources_and_sinks(self):
        g, (src, _mid, sink) = small_graph()
        assert g.sources() == [src]
        assert g.sinks() == [sink]

    def test_topological_order_respects_edges(self):
        g, (src, mid, sink) = small_graph()
        order = g.topological_order()
        assert order.index(src) < order.index(mid) < order.index(sink)

    def test_cycle_detected(self):
        g = StreamGraph()
        a = g.add(PassThrough("a", 1.0))
        b = g.add(PassThrough("b", 1.0))
        g.connect(a, b)
        g.connect(b, a)
        with pytest.raises(GraphError, match="cycle"):
            g.topological_order()


class TestParallelAnnotations:
    def test_parallelize(self):
        g, (_src, mid, _sink) = small_graph()
        g.parallelize(mid, 4)
        assert g.parallel[mid].width == 4
        assert g.parallel[mid].ordered

    def test_source_and_sink_not_parallelizable(self):
        g, (src, _mid, sink) = small_graph()
        with pytest.raises(GraphError):
            g.parallelize(src, 2)
        with pytest.raises(GraphError):
            g.parallelize(sink, 2)

    def test_ordered_filter_rejected(self):
        g = StreamGraph()
        src = g.add(SourceOp("src", 1.0, tuple_cost=1.0))
        flt = g.add(Filter("flt", 1.0, lambda p: True))
        sink = g.add(SinkOp("sink"))
        g.chain(src, flt, sink)
        with pytest.raises(GraphError):
            g.parallelize(flt, 2)
        g.parallelize(flt, 2, ordered=False)  # allowed without ordering

    def test_zero_width_rejected(self):
        g, (_src, mid, _sink) = small_graph()
        with pytest.raises(ValueError):
            g.parallelize(mid, 0)


class TestValidation:
    def test_valid_graph_passes(self):
        g, _ = small_graph()
        g.validate()

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            StreamGraph().validate()

    def test_inputless_non_source_rejected(self):
        g = StreamGraph()
        g.add(PassThrough("floating", 1.0))
        g.add(SinkOp("sink"))
        g.connect(0, 1)
        with pytest.raises(GraphError):
            g.validate()

    def test_outputless_non_sink_rejected(self):
        g = StreamGraph()
        src = g.add(SourceOp("src", 1.0, tuple_cost=1.0))
        mid = g.add(PassThrough("mid", 1.0))
        g.connect(src, mid)
        with pytest.raises(GraphError):
            g.validate()

    @staticmethod
    def two_input_region(*, ordered):
        g = StreamGraph()
        s1 = g.add(SourceOp("s1", 1.0, tuple_cost=1.0))
        s2 = g.add(SourceOp("s2", 1.0, tuple_cost=1.0))
        mid = g.add(PassThrough("mid", 1.0))
        sink = g.add(SinkOp("sink"))
        g.connect(s1, mid)
        g.connect(s2, mid)
        g.connect(mid, sink)
        g.parallelize(mid, 2, ordered=ordered)
        return g

    def test_ordered_region_needs_single_input(self):
        with pytest.raises(GraphError, match="exactly one input"):
            self.two_input_region(ordered=True).validate()

    def test_unordered_region_needs_single_input(self):
        # The splitter is one thread pulling one stream, ordered or not:
        # a second input would never be served.
        with pytest.raises(GraphError, match="exactly one input"):
            self.two_input_region(ordered=False).validate()
