"""Micro-benchmarks: blocking rate function maintenance (Section 5.1).

The controller touches every connection's function every control round:
smooth in a sample, decay the region above the current weight, refit
(monotone regression + interpolation), and evaluate during the Fox solve.
These benches measure that per-round cost at realistic data volumes, plus
the clustering distance computation at 64 channels.
"""

import pytest

from repro.core.clustering import cluster_functions
from repro.core.monotone import monotone_regression
from repro.core.rate_function import BlockingRateFunction
from repro.util.perf import COUNTERS


def populated_function(points=40, seed=7):
    fn = BlockingRateFunction()
    state = seed
    for _ in range(points):
        state = (state * 1103515245 + 12345) % (2**31)
        weight = 1 + state % 1000
        rate = (state >> 8 & 0xFF) / 255.0
        fn.observe(weight, rate)
    return fn


def bench_observe_decay_refit_evaluate(benchmark):
    """One control round's worth of function maintenance."""
    fn = populated_function()

    def round_trip():
        fn.observe(333, 0.4)
        fn.decay_above(333, 0.1)
        # The Fox solve evaluates along the weight axis.
        return sum(fn.value(w) for w in range(0, 1001, 10))

    total = benchmark(round_trip)
    assert total >= 0.0


def bench_full_table(benchmark):
    """Materializing the complete 1001-entry fitted table."""
    fn = populated_function()
    values = benchmark(fn.values)
    assert len(values) == 1001


def bench_cached_table_sweep(benchmark):
    """A solver-style sweep over the cached table — no rebuild per read.

    This is the post-overhaul solver path: every marginal-step evaluation
    is a list index into the one table built after the last mutation.
    """
    fn = populated_function()
    fn.table()  # prime the cache

    def sweep():
        table = fn.table()
        return sum(table[w] for w in range(1001))

    total = benchmark(sweep)
    assert total >= 0.0
    # The whole measured window must have reused one cached table: repeated
    # reads return the identical object and build nothing new.
    builds_before = COUNTERS.table_builds
    assert fn.table() is fn.table()
    assert COUNTERS.table_builds == builds_before
    # Every mutation invalidates: the next read rebuilds exactly once.
    for mutate in (
        lambda: fn.observe(500, 0.25),
        lambda: fn.decay_above(200, 0.1),
        lambda: fn.forget(),
    ):
        builds_before = COUNTERS.table_builds
        mutate()
        fn.table()
        assert COUNTERS.table_builds == builds_before + 1


@pytest.mark.parametrize("size", [100, 1000])
def bench_monotone_regression(benchmark, size):
    values = [(j * 7919) % 100 / 10.0 for j in range(size)]
    fitted = benchmark(monotone_regression, values)
    assert len(fitted) == size


def bench_cluster_64_channels(benchmark):
    """The per-round clustering cost at the paper's largest scale."""
    functions = [populated_function(points=10, seed=j + 1) for j in range(64)]
    clusters = benchmark(cluster_functions, functions, 1.0)
    assert sum(len(c) for c in clusters) == 64
