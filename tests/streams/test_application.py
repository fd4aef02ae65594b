"""Integration tests for the compiled application runtime."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.balancer import BalancerConfig
from repro.sim.engine import Simulator
from repro.streams.application import Application
from repro.streams.graph import StreamGraph
from repro.streams.hosts import Host
from repro.streams.operators import (
    Filter,
    Functor,
    PassThrough,
    SinkOp,
    SourceOp,
)


def big_host():
    return Host("big", cores=32, thread_speed=2e5)


def build_app(graph, **kwargs):
    sim = Simulator()
    return Application(sim, graph, default_host=big_host(), **kwargs)


def pipeline_graph(total=500, seen=None):
    g = StreamGraph()
    src = g.add(SourceOp("src", 100.0, tuple_cost=100.0, total=total,
                         make_payload=lambda s: s))
    double = g.add(Functor("double", 100.0, lambda p: p * 2))
    sink = g.add(SinkOp("sink", on_tuple=(seen.append if seen is not None else None)))
    g.chain(src, double, sink)
    return g


class TestPipeline:
    def test_all_tuples_flow_through(self):
        seen = []
        app = build_app(pipeline_graph(total=500, seen=seen))
        app.start()
        app.run_until(60.0)
        assert len(seen) == 500
        assert [t.seq for t in seen] == list(range(500))

    def test_functor_transforms(self):
        seen = []
        app = build_app(pipeline_graph(total=10, seen=seen))
        app.start()
        app.run_until(10.0)
        assert [t.payload for t in seen] == [2 * s for s in range(10)]

    def test_backpressure_gates_source(self):
        # A slow downstream operator limits how fast the source can
        # produce, via bounded buffers only.
        g = StreamGraph()
        src = g.add(SourceOp("src", 100.0, tuple_cost=100.0))
        slow = g.add(PassThrough("slow", 20_000.0))  # 10 tuples/s
        sink = g.add(SinkOp("sink"))
        g.chain(src, slow, sink)
        app = build_app(g)
        app.start()
        app.run_until(50.0)
        produced = app.operator_pe("src").source.produced
        # Source could do 2000/s; backpressure holds it near 10/s plus
        # the buffers' worth of slack.
        assert produced < 10 * 50 + 70


class TestTaskParallelism:
    def test_fanout_duplicates_tuples(self):
        g = StreamGraph()
        src = g.add(SourceOp("src", 100.0, tuple_cost=100.0, total=100))
        left = g.add(PassThrough("left", 100.0))
        right = g.add(PassThrough("right", 100.0))
        sink_l = g.add(SinkOp("sink_l"))
        sink_r = g.add(SinkOp("sink_r"))
        g.connect(src, left)
        g.connect(src, right)
        g.connect(left, sink_l)
        g.connect(right, sink_r)
        app = build_app(g)
        app.start()
        app.run_until(30.0)
        assert app.operator_pe("sink_l").sink.consumed == 100
        assert app.operator_pe("sink_r").sink.consumed == 100


class TestFiltering:
    def test_filter_drops(self):
        g = StreamGraph()
        src = g.add(SourceOp("src", 100.0, tuple_cost=100.0, total=100,
                             make_payload=lambda s: s))
        flt = g.add(Filter("flt", 100.0, lambda p: p % 2 == 0))
        sink = g.add(SinkOp("sink"))
        g.chain(src, flt, sink)
        app = build_app(g)
        app.start()
        app.run_until(30.0)
        assert app.operator_pe("sink").sink.consumed == 50
        assert app.operator_pe("flt").dropped == 50


class TestParallelRegion:
    def region_graph(self, total=2_000, ordered=True, seen=None):
        g = StreamGraph()
        src = g.add(SourceOp("src", 100.0, tuple_cost=100.0, total=total,
                             make_payload=lambda s: s))
        work = g.add(PassThrough("work", 2_000.0))
        sink = g.add(SinkOp("sink", on_tuple=(seen.append if seen is not None else None)))
        g.chain(src, work, sink)
        g.parallelize(work, 4, ordered=ordered)
        return g

    def test_region_expands_and_processes_everything(self):
        seen = []
        app = build_app(self.region_graph(seen=seen))
        app.start()
        app.run_until(120.0)
        assert len(seen) == 2_000
        handle = app.regions["work"]
        assert len(handle.replicas) == 4
        assert sum(r.tuples_processed for r in handle.replicas) == 2_000
        # Round-robin spreads the work evenly.
        assert max(r.tuples_processed for r in handle.replicas) <= 501

    def test_ordered_region_preserves_sequence(self):
        seen = []
        app = build_app(self.region_graph(seen=seen))
        app.start()
        app.run_until(120.0)
        assert [t.seq for t in seen] == list(range(2_000))

    def test_unordered_region_can_reorder(self):
        seen = []
        g = self.region_graph(ordered=False, seen=seen)
        app = build_app(g)
        app.operator_pe("work[0]").set_load_multiplier(10.0)
        app.start()
        app.run_until(240.0)
        assert sorted(t.seq for t in seen) == list(range(2_000))
        assert [t.seq for t in seen] != list(range(2_000))

    def test_load_balancing_starves_loaded_replica(self):
        app = build_app(self.region_graph(total=None))
        balancer = app.enable_load_balancing(
            "work", BalancerConfig(), interval=1.0
        )
        app.operator_pe("work[2]").set_load_multiplier(100.0)
        app.start()
        app.run_until(120.0)
        weights = balancer.weights
        assert weights[2] < 100, weights
        assert sum(weights) == 1000

    def test_functor_inside_an_ordered_region(self):
        # The payload is transformed, the *source's* seq survives the
        # region-local re-stamping, and the order is the source's.
        seen = []
        g = StreamGraph()
        src = g.add(SourceOp("src", 100.0, tuple_cost=100.0, total=300,
                             make_payload=lambda s: s))
        triple = g.add(Functor("triple", 1_000.0, lambda p: p * 3))
        sink = g.add(SinkOp("sink", on_tuple=seen.append))
        g.chain(src, triple, sink)
        g.parallelize(triple, 3)
        app = build_app(g)
        app.operator_pe("triple[1]").set_load_multiplier(7.0)
        app.start()
        app.run_until(60.0)
        assert [(t.seq, t.payload) for t in seen] == [
            (s, 3 * s) for s in range(300)
        ]

    def test_region_feeds_region_back_to_back(self):
        # The first region's exit sends straight into the stream the
        # second region's splitter pulls from: no operator PE in between.
        seen = []
        g = StreamGraph()
        src = g.add(SourceOp("src", 100.0, tuple_cost=100.0, total=400,
                             make_payload=lambda s: s))
        first = g.add(Functor("first", 800.0, lambda p: p + 1))
        second = g.add(Functor("second", 1_200.0, lambda p: p * 2))
        sink = g.add(SinkOp("sink", on_tuple=seen.append))
        g.chain(src, first, second, sink)
        g.parallelize(first, 2)
        g.parallelize(second, 4)
        app = build_app(g, buffer_capacity=4)
        app.operator_pe("second[3]").set_load_multiplier(5.0)
        app.start()
        app.run_until(60.0)
        assert [(t.seq, t.payload) for t in seen] == [
            (s, 2 * (s + 1)) for s in range(400)
        ]

    def test_filter_inside_an_unordered_region_drops_at_the_exit(self):
        seen = []
        g = StreamGraph()
        src = g.add(SourceOp("src", 100.0, tuple_cost=100.0, total=200,
                             make_payload=lambda s: s))
        flt = g.add(Filter("flt", 500.0, lambda p: p % 4 == 0))
        sink = g.add(SinkOp("sink", on_tuple=seen.append))
        g.chain(src, flt, sink)
        g.parallelize(flt, 3, ordered=False)
        app = build_app(g)
        app.start()
        app.run_until(30.0)
        handle = app.regions["flt"]
        # Every replica paid for its share; the predicate ran at the exit.
        assert sum(r.tuples_processed for r in handle.replicas) == 200
        assert handle.exit.dropped == 150
        assert sorted(t.payload for t in seen) == list(range(0, 200, 4))

    def test_load_balancing_on_two_regions_of_one_graph(self):
        g = StreamGraph()
        src = g.add(SourceOp("src", 100.0, tuple_cost=100.0))
        first = g.add(PassThrough("first", 2_000.0))
        second = g.add(PassThrough("second", 2_000.0))
        sink = g.add(SinkOp("sink"))
        g.chain(src, first, second, sink)
        g.parallelize(first, 3)
        g.parallelize(second, 3)
        app = build_app(g)
        balancers = {
            name: app.enable_load_balancing(name, BalancerConfig())
            for name in ("first", "second")
        }
        app.operator_pe("first[0]").set_load_multiplier(50.0)
        app.operator_pe("second[2]").set_load_multiplier(50.0)
        app.start()
        app.run_until(120.0)
        # Each controller finds its own region's loaded replica from its
        # own region's blocking counters.
        first_weights = balancers["first"].weights
        second_weights = balancers["second"].weights
        assert sum(first_weights) == sum(second_weights) == 1000
        assert first_weights[0] < 100 and min(first_weights[1:]) > 250
        assert second_weights[2] < 100 and min(second_weights[:2]) > 250

    @pytest.mark.parametrize("ordered", [True, False])
    def test_backpressure_crosses_a_region(self, ordered):
        # src (2 000/s) -> work (cost 400) -> sink at 10 tuples/s, 50 s.
        # A slow sink must hold the source back whether or not ``work``
        # is a parallel region: a region exit that queues without bound
        # lets the source run free (80 065 tuples against 630).
        width, capacity = 4, 32

        def probe(parallel):
            g = StreamGraph()
            src = g.add(SourceOp("src", 100.0, tuple_cost=100.0))
            work = g.add(PassThrough("work", 400.0))
            sink = g.add(SinkOp("sink", 20_000.0))
            g.chain(src, work, sink)
            if parallel:
                g.parallelize(work, width, ordered=ordered)
            return build_app(g, buffer_capacity=capacity)

        plain = probe(parallel=False)
        plain.start()
        plain.run_until(50.0)
        unparallelised = plain.operator_pe("src").source.produced
        assert unparallelised < 10 * 50 + 4 * capacity + 10

        app = probe(parallel=True)
        app.start()
        app.run_until(50.0)
        produced = app.operator_pe("src").source.produced
        # The region adds its own buffering and nothing else.
        assert produced <= unparallelised + 2 * capacity * (width + 2)
        # The gate closes at ``capacity``; all that can still arrive is
        # what the replicas had in service (they outrun this splitter, so
        # nothing is queued in front of them).
        region_exit = app.regions["work"].exit
        assert region_exit.gate.pauses > 0
        assert capacity <= region_exit.max_backlog <= capacity + width
        assert app.operator_pe("sink").sink.consumed == (
            plain.operator_pe("sink").sink.consumed
        )

    def test_region_blocking_counters_exposed(self):
        app = build_app(self.region_graph())
        handle = app.regions["work"]
        assert len(handle.blocking_counters) == 4

    def test_set_weights_requires_weighted_policy(self):
        app = build_app(self.region_graph())
        with pytest.raises(RuntimeError):
            app.regions["work"].set_weights([250, 250, 250, 250])


class TestLookup:
    def test_operator_pe_by_name(self):
        app = build_app(pipeline_graph())
        assert app.operator_pe("double").name == "double"
        with pytest.raises(KeyError):
            app.operator_pe("nope")

    def test_replica_lookup(self):
        g = StreamGraph()
        src = g.add(SourceOp("src", 1.0, tuple_cost=1.0, total=1))
        work = g.add(PassThrough("work", 1.0))
        sink = g.add(SinkOp("sink"))
        g.chain(src, work, sink)
        g.parallelize(work, 2)
        app = build_app(g)
        assert app.operator_pe("work[1]").pe_id == 1


# ------------------------------------------------- sequential semantics
#
# Section 4.1: tuples leave a parallel region "as if a single PE had
# processed them all". For a whole graph that means parallelising any
# subset of a chain's operators changes *when* the sink sees a tuple,
# never *what* it sees or in which order.

chains = st.fixed_dictionaries(
    {
        "stages": st.lists(
            st.fixed_dictionaries(
                {
                    "functor": st.booleans(),
                    "cost": st.sampled_from([0.0, 40.0, 300.0, 2_000.0]),
                    "width": st.integers(min_value=0, max_value=4),
                    "loads": st.lists(
                        st.sampled_from([1.0, 1.0, 3.0, 25.0]),
                        min_size=4,
                        max_size=4,
                    ),
                }
            ),
            min_size=1,
            max_size=4,
        ),
        "buffer_capacity": st.sampled_from([1, 2, 32]),
        # A slow sink keeps the region exits backlogged and their gates
        # cycling; a free one leaves only reorder bursts to close them.
        "sink_cost": st.sampled_from([0.0, 1_500.0, 20_000.0]),
        "total": st.integers(min_value=1, max_value=120),
    }
)


def run_chain(chain, *, parallelise):
    seen = []
    g = StreamGraph()
    nodes = [g.add(SourceOp("src", 50.0, tuple_cost=100.0,
                            total=chain["total"], make_payload=lambda s: s))]
    for i, stage in enumerate(chain["stages"]):
        if stage["functor"]:
            op = Functor(f"op{i}", stage["cost"], lambda p, i=i: p * 3 + i)
        else:
            op = PassThrough(f"op{i}", stage["cost"])
        nodes.append(g.add(op))
    nodes.append(
        g.add(SinkOp("sink", chain["sink_cost"], on_tuple=seen.append))
    )
    g.chain(*nodes)
    if parallelise:
        for node, stage in zip(nodes[1:], chain["stages"]):
            if stage["width"]:
                g.parallelize(node, stage["width"])
    app = build_app(g, buffer_capacity=chain["buffer_capacity"])
    for name, handle in app.regions.items():
        loads = chain["stages"][int(name[2:])]["loads"]
        for replica, load in zip(handle.replicas, loads):
            replica.set_load_multiplier(load)
    app.start()
    app.sim.run_until_idle(3_600.0)
    return [(t.seq, t.payload) for t in seen]


@settings(max_examples=60, deadline=None)
@given(chain=chains)
def test_parallelising_any_subset_of_a_chain_is_unobservable(chain):
    sequential = run_chain(chain, parallelise=False)
    assert len(sequential) == chain["total"]
    assert run_chain(chain, parallelise=True) == sequential
