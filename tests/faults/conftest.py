"""Shared builders for the fault-injection tests."""

import pytest

from repro.core.balancer import BalancerConfig, LoadBalancer
from repro.core.policies import WeightedPolicy
from repro.faults import FaultInjector, RecoveryConfig, RecoveryCoordinator
from repro.sim.engine import Simulator
from repro.streams.hosts import Host, Placement
from repro.streams.region import ParallelRegion, RegionParams
from repro.streams.sources import FiniteSource, InfiniteSource, constant_cost


class Rig:
    """A fault-tolerant region plus the recovery stack, ready to run.

    Defaults: 4 workers on one host, 10 ms services, a splitter fast
    enough to keep every connection saturated, and a balancer sampled
    once per simulated second.
    """

    def __init__(
        self,
        *,
        n=4,
        total=None,
        cost=10_000.0,
        thread_speed=1e6,
        recovery_config=None,
        with_balancer=True,
        sample_interval=1.0,
        ordered=True,
    ):
        self.sim = Simulator()
        host = Host("h0", cores=max(8, n), thread_speed=thread_speed)
        placement = Placement.single_host(n, host)
        cost_model = constant_cost(cost)
        source = (
            InfiniteSource(cost_model)
            if total is None
            else FiniteSource(total, cost_model)
        )
        self.balancer = (
            LoadBalancer(n, BalancerConfig()) if with_balancer else None
        )
        weights = (
            self.balancer.weights
            if self.balancer is not None
            else [1000 // n] * n
        )
        self.routing = WeightedPolicy(weights)
        self.region = ParallelRegion(
            self.sim,
            source,
            self.routing,
            placement,
            params=RegionParams(fault_tolerant=True),
            ordered=ordered,
        )
        self.injector = FaultInjector(self.sim, self.region)
        self.recovery = RecoveryCoordinator(
            self.sim,
            self.region,
            balancer=self.balancer,
            routing=self.routing if self.balancer is not None else None,
            injector=self.injector,
            config=recovery_config or RecoveryConfig(),
        )
        if self.balancer is not None:
            self.sim.call_every(sample_interval, self._sample)

    def _sample(self):
        counters = [c.read() for c in self.region.blocking_counters]
        new = self.balancer.update(self.sim.now, counters)
        if new is not None:
            self.routing.set_weights(new)

    def run(self, until, *, stop_on_total=None):
        if stop_on_total is not None:
            self.region.merger.on_completion(stop_on_total, self.sim.stop)
        self.recovery.start()
        self.region.start()
        self.sim.run_until(until)
        return self.region.merger


@pytest.fixture
def rig_factory():
    return Rig
