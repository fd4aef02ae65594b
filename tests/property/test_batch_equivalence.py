"""Property: the batched dataplane preserves the region's semantics.

Hypothesis draws random workloads — region width, weights, buffer sizes,
service jitter, per-worker slowdowns (one worker up to 10x
slower than its siblings, so runs really do park in the merger) — and
runs each one at ``batch_size`` 1, 2, 7, and 64. Whatever the batch size:

* the merged output is the full sequence 0..N-1, in order, exactly once
  (sequential semantics are batch-size-independent);
* the final policy weights are identical to the ``batch_size=1`` run;
* realized per-connection allocations match the weights exactly — the
  largest-remainder apportionment never drifts more than one tuple from
  connection ``j``'s exact share ``total * w_j / sum(w)``, the same
  long-run guarantee smooth weighted round-robin gives the per-tuple path;

and the same ordering/completeness guarantees hold with the failure
machinery exercising crash + replay mid-run (``fault_tolerant``), where
no connection's retransmit window ever holds more than its two buffers
plus two runs (the cap the splitter used to enforce), and with the
overload layer attached (``overload_protection``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import RoundRobinPolicy, WeightedPolicy
from repro.faults import FaultInjector
from repro.overload import OverloadConfig, OverloadManager
from repro.sim.engine import Simulator
from repro.streams.hosts import Host, Placement
from repro.streams.region import ParallelRegion, RegionParams
from repro.streams.sources import FiniteSource, RatedSource, constant_cost

BATCH_SIZES = (1, 2, 7, 64)

workloads = st.fixed_dictionaries(
    {
        "n_workers": st.integers(min_value=2, max_value=4),
        "total": st.integers(min_value=30, max_value=150),
        "raw_weights": st.lists(
            st.integers(min_value=0, max_value=9), min_size=4, max_size=4
        ).filter(lambda ws: sum(ws[:2]) > 0),
        "send_capacity": st.integers(min_value=2, max_value=8),
        "recv_capacity": st.integers(min_value=2, max_value=8),
        "service_jitter": st.sampled_from([0.0, 0.3]),
        "slowdowns": st.lists(
            st.sampled_from([1.0, 1.0, 3.0, 10.0]), min_size=4, max_size=4
        ),
    }
)


def build_region(sim, workload, batch_size, *, fault_tolerant=False):
    n = workload["n_workers"]
    weights = workload["raw_weights"][:n]
    if sum(weights) == 0:
        weights[0] = 1
    host = Host("h", cores=8, thread_speed=1e5)
    region = ParallelRegion(
        sim,
        FiniteSource(workload["total"], constant_cost(1_000.0)),
        WeightedPolicy(weights),
        Placement.single_host(n, host),
        params=RegionParams(
            send_capacity=workload["send_capacity"],
            recv_capacity=workload["recv_capacity"],
            service_jitter=workload["service_jitter"],
            fault_tolerant=fault_tolerant,
            batch_size=batch_size,
        ),
        load_multipliers=workload["slowdowns"][:n],
    )
    return region, weights


def run_plain(workload, batch_size, *, record=True):
    sim = Simulator()
    region, weights = build_region(sim, workload, batch_size)
    seqs = []
    if record:
        region.merger.on_emit = lambda tup: seqs.append(tup.seq)
    region.merger.on_completion(workload["total"], sim.stop)
    region.start()
    sim.run_until(1e6)
    return region, weights, seqs


@settings(max_examples=20, deadline=None)
@given(workload=workloads)
def test_merged_output_and_weights_match_batch_size_one(workload):
    total = workload["total"]
    baseline = None
    for batch_size in BATCH_SIZES:
        region, weights, seqs = run_plain(workload, batch_size)
        # Sequential semantics: the full budget, in order, exactly once.
        assert seqs == list(range(total)), f"batch_size={batch_size}"
        # Final weights identical to the batch_size=1 run.
        final = region.splitter.policy.weights
        if baseline is None:
            baseline = final
        assert final == baseline, f"batch_size={batch_size}"
        # Largest-remainder apportionment: every connection's realized
        # allocation is within one tuple of its exact share.
        w_total = sum(weights)
        for j, sent in enumerate(region.splitter.sent_per_connection):
            exact = total * weights[j] / w_total
            assert abs(sent - exact) <= 1.0, (
                f"batch_size={batch_size}: connection {j} got {sent}, "
                f"exact share {exact:.2f}"
            )


@settings(max_examples=20, deadline=None)
@given(workload=workloads)
def test_hook_free_merger_emits_everything_by_run(workload):
    # An ``on_emit`` hook is owed every tuple, so the property above never
    # reaches the merger's emit-by-run branch. Without one the order cannot
    # be read off, but nothing may be missing, stranded or emitted twice.
    total = workload["total"]
    baseline = None
    for batch_size in BATCH_SIZES:
        region, _, _ = run_plain(workload, batch_size, record=False)
        merger = region.merger
        assert merger.emitted == total, f"batch_size={batch_size}"
        assert merger.next_seq == total, f"batch_size={batch_size}"
        assert merger.pending_count == 0, f"batch_size={batch_size}"
        assert sum(merger.received_per_worker.values()) == total
        final = region.splitter.policy.weights
        if baseline is None:
            baseline = final
        assert final == baseline, f"batch_size={batch_size}"


crash_plans = st.fixed_dictionaries(
    {
        "worker": st.integers(min_value=0, max_value=1),
        "crash_at": st.floats(min_value=0.05, max_value=1.0),
        "restart_after": st.floats(min_value=0.1, max_value=1.0),
    }
)


@settings(max_examples=15, deadline=None)
@given(workload=workloads, plan=crash_plans)
def test_crash_and_replay_preserve_order_at_any_batch_size(workload, plan):
    total = workload["total"]
    for batch_size in BATCH_SIZES:
        sim = Simulator()
        region, _ = build_region(
            sim, workload, batch_size, fault_tolerant=True
        )
        injector = FaultInjector(sim, region)
        channels = range(len(region.connections))
        seqs = []
        window = []

        def on_emit(tup):
            seqs.append(tup.seq)
            window.append(
                max(region.splitter.inflight_count(j) for j in channels)
            )

        region.merger.on_emit = on_emit
        region.merger.on_completion(total, sim.stop)
        sim.call_at(
            plan["crash_at"],
            lambda: injector.crash(
                plan["worker"], restart_after=plan["restart_after"]
            ),
        )
        region.start()
        sim.run_until(1e6)
        assert seqs == list(range(total)), f"batch_size={batch_size}"
        assert region.merger.tuples_lost == 0
        # Backpressure alone keeps the window under the cap the splitter
        # used to enforce.
        bound = (
            workload["send_capacity"]
            + workload["recv_capacity"]
            + 2 * batch_size
        )
        assert max(window) <= bound, f"batch_size={batch_size}"


@settings(max_examples=15, deadline=None)
@given(workload=workloads)
def test_unordered_merger_emits_all_at_any_batch_size(workload):
    # Without sequential semantics there is no canonical order, but every
    # tuple must still come out exactly once — at every batch size.
    total = workload["total"]
    for batch_size in BATCH_SIZES:
        sim = Simulator()
        n = workload["n_workers"]
        weights = workload["raw_weights"][:n]
        if sum(weights) == 0:
            weights[0] = 1
        host = Host("h", cores=8, thread_speed=1e5)
        region = ParallelRegion(
            sim,
            FiniteSource(total, constant_cost(1_000.0)),
            WeightedPolicy(weights),
            Placement.single_host(n, host),
            params=RegionParams(
                send_capacity=workload["send_capacity"],
                recv_capacity=workload["recv_capacity"],
                service_jitter=workload["service_jitter"],
                batch_size=batch_size,
            ),
            ordered=False,
        )
        seqs = []
        region.merger.on_emit = lambda tup: seqs.append(tup.seq)
        region.merger.on_completion(total, sim.stop)
        region.start()
        sim.run_until(1e6)
        assert sorted(seqs) == list(range(total)), f"batch_size={batch_size}"
        assert len(seqs) == total


@settings(max_examples=15, deadline=None)
@given(workload=workloads, rate_scale=st.sampled_from([0.3, 1.0, 3.0]))
def test_mixed_block_sizes_per_dispatch_keep_order(workload, rate_scale):
    # An open-loop source drains whatever backlog has accumulated, so
    # consecutive dispatch cycles pull *different* block sizes (often
    # smaller than batch_size, sometimes just one tuple). Ordering and
    # exactly-once must survive the mix at every batch size.
    total = workload["total"]
    for batch_size in BATCH_SIZES:
        sim = Simulator()
        n = workload["n_workers"]
        weights = workload["raw_weights"][:n]
        if sum(weights) == 0:
            weights[0] = 1
        host = Host("h", cores=8, thread_speed=1e5)
        source = RatedSource(
            25.0 * n * rate_scale, constant_cost(1_000.0), total=total
        )
        region = ParallelRegion(
            sim,
            source,
            WeightedPolicy(weights),
            Placement.single_host(n, host),
            params=RegionParams(
                send_capacity=workload["send_capacity"],
                recv_capacity=workload["recv_capacity"],
                batch_size=batch_size,
            ),
        )
        source.arm(sim, on_available=region.splitter.notify_available)
        seqs = []
        region.merger.on_emit = lambda tup: seqs.append(tup.seq)
        region.merger.on_completion(total, sim.stop)
        region.start()
        sim.run_until(1e7)
        assert seqs == list(range(total)), f"batch_size={batch_size}"
        if batch_size > 1:
            # The mix really happened: mean realized dispatch occupancy
            # must sit strictly inside (0, batch_size] — and for the
            # saturating-rate cases below capacity it is typically < B.
            occupancy = region.splitter.dispatch_stats.mean_occupancy
            assert 0.0 < occupancy <= batch_size


@settings(max_examples=10, deadline=None)
@given(workload=workloads, plan=crash_plans)
def test_crash_and_replay_with_unordered_merger(workload, plan):
    # Fault tolerance composes with the pass-through merger: a crash +
    # replay mid-run must still deliver every tuple exactly once, at
    # every batch size, even though nothing reorders.
    total = workload["total"]
    for batch_size in BATCH_SIZES:
        sim = Simulator()
        n = workload["n_workers"]
        weights = workload["raw_weights"][:n]
        if sum(weights) == 0:
            weights[0] = 1
        host = Host("h", cores=8, thread_speed=1e5)
        region = ParallelRegion(
            sim,
            FiniteSource(total, constant_cost(1_000.0)),
            WeightedPolicy(weights),
            Placement.single_host(n, host),
            params=RegionParams(
                send_capacity=workload["send_capacity"],
                recv_capacity=workload["recv_capacity"],
                service_jitter=workload["service_jitter"],
                fault_tolerant=True,
                batch_size=batch_size,
            ),
            ordered=False,
        )
        injector = FaultInjector(sim, region)
        seqs = []
        region.merger.on_emit = lambda tup: seqs.append(tup.seq)
        region.merger.on_completion(total, sim.stop)
        sim.call_at(
            plan["crash_at"],
            lambda: injector.crash(
                plan["worker"], restart_after=plan["restart_after"]
            ),
        )
        region.start()
        sim.run_until(1e6)
        assert sorted(seqs) == list(range(total)), f"batch_size={batch_size}"
        assert len(seqs) == total


@settings(max_examples=10, deadline=None)
@given(workload=workloads)
def test_overload_protection_keeps_order_at_any_batch_size(workload):
    # Offered load well under capacity: the overload layer is attached
    # (admission, flow gate, detector all live) but must not shed, so
    # every batch size drains the identical admitted stream.
    total = workload["total"]
    for batch_size in BATCH_SIZES:
        sim = Simulator()
        n = workload["n_workers"]
        host = Host("h", cores=8, thread_speed=1e5)
        source = RatedSource(25.0 * n, constant_cost(1_000.0), total=total)
        region = ParallelRegion(
            sim,
            source,
            RoundRobinPolicy(n),
            Placement.single_host(n, host),
            params=RegionParams(
                send_capacity=workload["send_capacity"],
                recv_capacity=workload["recv_capacity"],
                overload_protection=True,
                batch_size=batch_size,
            ),
        )
        manager = OverloadManager(
            sim, region, source=source, config=OverloadConfig()
        )
        manager.start()
        source.arm(sim, on_available=region.splitter.notify_available)
        seqs = []
        region.merger.on_emit = lambda tup: seqs.append(tup.seq)
        region.merger.on_completion(total, sim.stop)
        region.start()
        sim.run_until(1e6)
        assert source.tuples_shed == 0, f"batch_size={batch_size}"
        assert seqs == list(range(total)), f"batch_size={batch_size}"
