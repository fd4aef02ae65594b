"""Property: no crash/replay interleaving can break sequential semantics.

Hypothesis draws arbitrary crash schedules — which workers die, when,
and how quickly they restart — and the region must always emit a
strictly ordered, gap-free sequence:

* under the **replay** gap policy, every sequence number is emitted
  exactly once, in order, no matter the interleaving;
* under the **skip** gap policy, the emitted sequence is still strictly
  increasing, and emitted + lost partitions the full budget exactly;
* under either policy, failover and replay never grow a connection's
  retransmit window past its two buffers plus two tuples, the cap the
  splitter used to enforce — backpressure alone bounds it.

The merger raises on duplicates out of band, so these runs also prove
no interleaving produces a double emission.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import WeightedPolicy
from repro.faults import FaultInjector, RecoveryConfig, RecoveryCoordinator
from repro.sim.engine import Simulator
from repro.streams.hosts import Host, Placement
from repro.streams.region import ParallelRegion, RegionParams
from repro.streams.sources import FiniteSource, constant_cost

N_WORKERS = 3
TOTAL = 150
#: The retransmit cap the splitter used to enforce at ``batch_size=1``.
WINDOW_BOUND = RegionParams().send_capacity + RegionParams().recv_capacity + 2

crash_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_WORKERS - 1),  # worker
        st.floats(min_value=0.05, max_value=4.0),  # crash time
        st.floats(min_value=0.2, max_value=3.0),  # restart delay
    ),
    min_size=1,
    max_size=4,
)


def run_with_crashes(crashes, gap_policy):
    sim = Simulator()
    host = Host("h", cores=8, thread_speed=1e5)
    region = ParallelRegion(
        sim,
        FiniteSource(TOTAL, constant_cost(1_000.0)),
        WeightedPolicy([1000 // N_WORKERS] * N_WORKERS),
        Placement.single_host(N_WORKERS, host),
        params=RegionParams(fault_tolerant=True),
    )
    injector = FaultInjector(sim, region)
    recovery = RecoveryCoordinator(
        sim,
        region,
        injector=injector,
        config=RecoveryConfig(
            check_interval=0.1,
            staleness_timeout=0.4,
            heartbeat_confirmations=1,
            gap_policy=gap_policy,
            skip_timeout=0.3,
        ),
    )
    emitted_seqs = []
    window = []

    def on_emit(tup):
        emitted_seqs.append(tup.seq)
        window.append(
            max(region.splitter.inflight_count(j) for j in range(N_WORKERS))
        )

    region.merger.on_emit = on_emit
    for worker, at, restart_after in crashes:
        sim.call_at(
            at,
            lambda w=worker, r=restart_after: injector.crash(
                w, restart_after=r
            ),
        )
    recovery.start()
    region.merger.on_completion(TOTAL, sim.stop)
    region.start()
    sim.run_until(300.0)
    assert max(window, default=0) <= WINDOW_BOUND
    return region, emitted_seqs


@settings(max_examples=25, deadline=None)
@given(crashes=crash_events)
def test_replay_policy_emits_every_seq_exactly_once(crashes):
    region, seqs = run_with_crashes(crashes, "replay")
    # Every worker restarts, so the run must drain completely...
    assert seqs == list(range(TOTAL))
    # ...with nothing lost and nothing emitted twice.
    assert region.merger.tuples_lost == 0
    assert region.merger.emitted == TOTAL


@settings(max_examples=25, deadline=None)
@given(crashes=crash_events)
def test_skip_policy_partitions_budget_in_order(crashes):
    region, seqs = run_with_crashes(crashes, "skip")
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    assert region.merger.emitted + region.merger.tuples_lost == TOTAL
    assert region.merger.emitted == len(seqs)
