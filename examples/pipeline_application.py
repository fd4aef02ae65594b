#!/usr/bin/env python3
"""A full streaming application: the paper's Figure 1 topology.

    Src -> A -> {B, C} -> D -> E(splitter) => F x 6 => (merger) -> G -> Sink

All three kinds of parallelism from Section 2 in one graph:

* pipeline parallelism along the chain,
* task parallelism at A -> {B, C} (both receive the same tuples),
* data parallelism at F, expanded into splitter -> 6 replicas -> ordered
  merger, with the paper's blocking-rate load balancer attached.

Two of F's replicas carry 30x external load. Watch the balancer find them
using nothing but per-connection blocking, while sequential semantics hold
at the merger and backpressure propagates all the way to the source.

Run:  python examples/pipeline_application.py
"""

from repro.core.balancer import BalancerConfig
from repro.sim.engine import Simulator
from repro.streams.application import Application
from repro.streams.graph import StreamGraph
from repro.streams.hosts import Host
from repro.streams.operators import Functor, PassThrough, SinkOp, SourceOp

WIDTH = 6
DURATION = 240.0


def build_graph() -> StreamGraph:
    g = StreamGraph()
    src = g.add(SourceOp("Src", 125.0, tuple_cost=1_000,
                         make_payload=lambda seq: seq))
    a = g.add(Functor("A", 60.0, lambda p: p * 3))
    b = g.add(PassThrough("B", 90.0))
    c = g.add(PassThrough("C", 70.0))
    d = g.add(PassThrough("D", 50.0))
    f = g.add(Functor("F", 2_500.0, lambda p: p + 1))
    g_op = g.add(PassThrough("G", 50.0))
    sink = g.add(SinkOp("Sink"))
    g.chain(src, a)
    g.connect(a, b)
    g.connect(a, c)
    g.connect(b, d)
    g.connect(c, d)
    g.chain(d, f, g_op, sink)
    g.parallelize(f, WIDTH)
    return g


def main() -> None:
    sim = Simulator()
    app = Application(
        sim, build_graph(), default_host=Host("big", cores=32, thread_speed=2e5)
    )
    balancer = app.enable_load_balancing("F", BalancerConfig())
    for loaded in (1, 4):
        app.operator_pe(f"F[{loaded}]").set_load_multiplier(30.0)

    print(f"Figure-1 application, F parallelized {WIDTH} ways; "
          f"F[1] and F[4] are 30x loaded.\n")
    app.start()
    checkpoints = (30.0, 60.0, 120.0, DURATION)
    for when in checkpoints:
        app.run_until(when)
        weights = balancer.weights
        print(f"t={when:5.0f}s  weights={weights}")

    handle = app.regions["F"]
    print("\nper-replica tuples processed:",
          [replica.tuples_processed for replica in handle.replicas])
    print("sink consumed:", app.operator_pe("Sink").sink.consumed,
          "(each source tuple reaches the sink twice: B and C both feed D)")
    loaded_share = (balancer.weights[1] + balancer.weights[4]) / 1000
    print(f"loaded replicas' combined share: {loaded_share:.1%} "
          "(fair share would be 33.3%)")
    source = app.operator_pe("Src").source
    print(f"source produced {source.produced} tuples under backpressure")


if __name__ == "__main__":
    main()
