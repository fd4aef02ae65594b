"""Pinned digests of the control round.

Rounds of ``LoadBalancer(n, BalancerConfig(clustering=True))`` closed
over a :class:`~repro.sim.fluid.FluidRegion` with Figure 12's capacity
classes (the benchmark's ``control-n64`` workload), hashing every round's
``(weights, last_clusters)``. The 300-round digests were recorded at
commit e92cefa, before the control round was rebuilt to compute each
piece once, and are the same with and without numpy; the N = 256 digest
and the quarantine-path digest were recorded at commit e8fffeb, before
the solver granted by runs and the clustering skipped pairs that cannot
merge. The direct-solve digests (clustering off, the path the simulator
figures take) and the work counts were recorded at commit a36fdaf, before
the rate function kept its raw data as sorted columns. Any optimisation of clustering, rate functions, the solver or the
member expansion has to reproduce every decision of every round exactly,
not approximately.
"""

import hashlib
import random

import pytest

from repro.core.balancer import BalancerConfig, LoadBalancer
from repro.sim.fluid import FluidRegion
from repro.util.perf import COUNTERS, reset_counters

#: Fig. 12's capacity classes as (share of connections, relative capacity).
CAPACITY_CLASSES = ((20 / 64, 1 / 100), (20 / 64, 1 / 5), (24 / 64, 1.0))

#: ``(n, seed) -> (rounds, digest)``.
PINNED = {
    (8, 1): (300, "cd62c437b6243df43b6f0dfbce5c66bc8466eee086eb51910b88addc099d7177"),
    (8, 2): (300, "67a699e8775e76a5b41fb9691b32cca5a4da59401252fed78dacb29d47aea752"),
    (64, 1): (300, "89d1f692b47bcd8bba70fc752f5e6f885439a3695687bfd25d9ec8f50536549b"),
    (64, 2): (300, "cabf8908dcb32f2dddf18ddd295d79a7de205a3f3a445b8b241df9b128ea710e"),
    (256, 1): (100, "8690cd58079f79ae90970f6ff346e84c85cfc9dc60f56852974747822ac4ce8b"),
}

#: The emergency path through the same solver, at N = 64 and seed 1:
#: ``round -> (method, channel)``, called before that round's update. A
#: fast channel and two of the middle class die holding weight; the fast
#: one comes back.
EMERGENCIES = {
    100: ("quarantine", 7),
    150: ("quarantine", 30),
    200: ("quarantine", 52),
    250: ("reintegrate", 7),
}
PINNED_EMERGENCY = (
    "070004e0fefe353b9575efc0aca3b44843dbb7357507cd9c1c15af68ba8909db"
)

#: Clustering off, ``BalancerConfig(decay=decay)``: ``(n, seed, decay) ->
#: digest`` over 300 rounds.
PINNED_DIRECT = {
    (64, 1, 0.1): (
        "03d27466b4c4dcb8e095de1757cfb8f816b57d1edfb12b864932f4498a0398b2"
    ),
    (64, 2, 0.1): (
        "241aae36cd14abce65c2791980e2bd342fa6f531e1f3d62125734ef371b96b16"
    ),
    (8, 1, 0.0): (
        "a0cca1da4cc4f1a893b3875fa0cf191e15444b33a6ff5594dcf4899b231b9d6c"
    ),
    (8, 2, 0.0): (
        "9ce10ac6698bd31082ec71a2daf99f5fb6f42d913d4cc5eeb3429e7a7ec63cd3"
    ),
}

#: ``control-n64``'s measured window (seed 1, rounds 50-349): totals of
#: ``COUNTERS.fits``, ``.table_builds`` and ``.solver_calls``.
PINNED_WORK = (24468, 0, 300)


def control_round_digest(
    n: int, seed: int, rounds: int = 300, emergencies=None, config=None,
    on_round=None,
) -> str:
    capacities: list[float] = []
    for share, capacity in CAPACITY_CLASSES[:-1]:
        capacities += [capacity] * round(share * n)
    capacities += [CAPACITY_CLASSES[-1][1]] * (n - len(capacities))
    random.Random(seed).shuffle(capacities)
    rates = [333.0 * c for c in capacities]
    fluid = FluidRegion(rates, splitter_rate=1.25 * sum(rates))
    balancer = LoadBalancer(n, config or BalancerConfig(clustering=True))
    digest = hashlib.sha256()
    for round_no in range(rounds):
        if on_round is not None:
            on_round(round_no)
        if emergencies and round_no in emergencies:
            method, channel = emergencies[round_no]
            getattr(balancer, method)(channel)
            fluid.set_weights(balancer.weights)
            digest.update(
                repr((balancer.weights, balancer.last_clusters)).encode()
            )
        fluid.advance(1.0)
        weights = balancer.update(
            fluid.time, [c.read() for c in fluid.blocking_counters]
        )
        if weights is not None:
            fluid.set_weights(weights)
        digest.update(repr((weights, balancer.last_clusters)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(("n", "seed"), sorted(PINNED))
def test_clustered_rounds_reproduce_the_recorded_decisions(n, seed):
    rounds, expected = PINNED[(n, seed)]
    assert control_round_digest(n, seed, rounds) == expected


def test_quarantine_and_reintegration_reproduce_the_recorded_decisions():
    assert control_round_digest(64, 1, emergencies=EMERGENCIES) == (
        PINNED_EMERGENCY
    )


@pytest.mark.parametrize(("n", "seed", "decay"), sorted(PINNED_DIRECT))
def test_direct_rounds_reproduce_the_recorded_decisions(n, seed, decay):
    config = BalancerConfig(decay=decay)
    assert control_round_digest(n, seed, config=config) == (
        PINNED_DIRECT[(n, seed, decay)]
    )


def test_the_measured_window_does_the_recorded_work():
    def reset_at_warm_up_end(round_no):
        if round_no == 50:
            reset_counters()

    control_round_digest(64, 1, rounds=350, on_round=reset_at_warm_up_end)
    assert (
        COUNTERS.fits, COUNTERS.table_builds, COUNTERS.solver_calls
    ) == PINNED_WORK
