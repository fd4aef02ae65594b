"""Unit tests for the host capacity model and placements."""

import pytest

from repro.streams.hosts import Host, Placement


class _FakePE:
    """Hosts only count placed PEs; any object will do."""


def fill(host, n):
    for _ in range(n):
        host.place(_FakePE())


class TestCapacityModel:
    def test_capacity_scales_with_cores(self):
        host = Host("h", cores=8, thread_speed=100.0)
        assert host.total_capacity(1) == 100.0
        assert host.total_capacity(8) == 800.0

    def test_oversubscription_caps_capacity(self):
        # The paper: "The slow host can only execute 8 PEs simultaneously;
        # any more than 8 PEs, and the slow host becomes oversubscribed."
        host = Host("slow", cores=8, thread_speed=100.0)
        assert host.total_capacity(16) == host.total_capacity(8)

    def test_smt_extends_scaling(self):
        # The fast host keeps scaling from 8 to 16 PEs via SMT.
        host = Host("fast", cores=8, smt_per_core=2, thread_speed=100.0)
        assert host.total_capacity(16) == 2 * host.total_capacity(8)
        assert host.total_capacity(24) == host.total_capacity(16)

    def test_smt_efficiency_discounts_smt_threads(self):
        host = Host("fast", cores=8, smt_per_core=2, thread_speed=100.0, smt_efficiency=0.5)
        assert host.total_capacity(16) == pytest.approx(800.0 + 8 * 50.0)

    def test_zero_active_pes(self):
        assert Host("h").total_capacity(0) == 0.0


class TestPerPeSpeed:
    def test_fair_share(self):
        host = Host("h", cores=8, thread_speed=100.0)
        fill(host, 4)
        assert host.per_pe_speed() == 100.0
        fill(host, 12)  # 16 total on 8 threads
        assert host.per_pe_speed() == pytest.approx(800.0 / 16)

    def test_requires_placed_pes(self):
        with pytest.raises(RuntimeError):
            Host("h").per_pe_speed()


class TestPlacement:
    def test_single_host(self):
        host = Host("h")
        placement = Placement.single_host(3, host)
        assert len(placement) == 3
        assert placement[0] is placement[2] is host

    def test_hosts_lists_distinct_in_order(self):
        a, b = Host("a"), Host("b")
        placement = Placement(host_of=[a, b, a])
        assert placement.hosts() == [a, b]
