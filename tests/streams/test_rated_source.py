"""Unit tests for the open-loop rated source."""

import pytest

from repro.overload.admission import AdmissionController, DropTailShedding
from repro.sim.engine import Simulator
from repro.streams.sources import RatedSource, constant_cost


def make_source(rate=10.0, total=None):
    return RatedSource(rate, constant_cost(100.0), total=total)


class TestArrivals:
    def test_deterministic_interarrival(self):
        sim = Simulator()
        source = make_source(rate=10.0)
        source.arm(sim)
        sim.run_until(1.05)
        assert source.arrivals == 10
        assert source.backlog() == 10

    def test_total_bounds_the_stream(self):
        sim = Simulator()
        source = make_source(rate=10.0, total=5)
        source.arm(sim)
        sim.run_until(10.0)
        assert source.arrivals == 5
        assert not source.exhausted()  # backlog not drained yet
        while source.next_tuple() is not None:
            pass
        assert source.exhausted()
        assert not source.idle()

    def test_idle_between_arrivals(self):
        sim = Simulator()
        source = make_source(rate=1.0)
        source.arm(sim)
        assert source.idle()  # nothing arrived yet, more will
        sim.run_until(1.5)
        assert not source.idle()
        source.next_tuple()
        assert source.idle()

    def test_born_at_is_the_arrival_time(self):
        sim = Simulator()
        source = make_source(rate=4.0)
        source.arm(sim)
        sim.run_until(1.0)
        tup = source.next_tuple()
        assert tup.seq == 0
        assert tup.born_at == pytest.approx(0.25)

    def test_block_of_a_varying_cost_model(self):
        sim = Simulator()
        source = RatedSource(10.0, lambda seq: 100.0 + seq, total=5)
        arrivals = []
        source.arm(sim, on_available=lambda: arrivals.append(sim.now))
        sim.run_until(1.0)
        block = source.next_block(3)
        assert (block.start, block.count) == (0, 3)
        assert list(block.costs) == [100.0, 101.0, 102.0]
        assert list(block.borns) == arrivals[:3]
        assert source.backlog() == 2

    def test_on_available_fires_per_admitted_arrival(self):
        sim = Simulator()
        source = make_source(rate=10.0)
        wakes = []
        source.arm(sim, on_available=lambda: wakes.append(sim.now))
        sim.run_until(0.55)
        assert len(wakes) == 5

    def test_max_backlog_tracks_peak(self):
        sim = Simulator()
        source = make_source(rate=10.0)
        source.arm(sim)
        sim.run_until(1.05)
        source.next_tuple()
        source.next_tuple()
        assert source.backlog() == 8
        assert source.max_backlog == 10

    def test_rearm_rejected(self):
        sim = Simulator()
        source = make_source()
        source.arm(sim)
        with pytest.raises(RuntimeError):
            source.arm(sim)


class TestRateChanges:
    def test_scale_rate_speeds_up_arrivals(self):
        sim = Simulator()
        source = make_source(rate=10.0)
        source.arm(sim)
        sim.call_at(1.0, lambda: source.scale_rate(2.0))
        sim.run_until(2.05)
        # 10 arrivals in the first second, ~20 in the second.
        assert source.arrivals == pytest.approx(30, abs=2)
        assert source.rate == 20.0

    def test_scale_up_then_down_restores_rate(self):
        source = make_source(rate=10.0)
        source.scale_rate(2.5)
        source.scale_rate(1 / 2.5)
        assert source.rate == pytest.approx(10.0)

    def test_set_rate_validates(self):
        source = make_source()
        with pytest.raises(ValueError):
            source.set_rate(0.0)
        with pytest.raises(ValueError):
            source.scale_rate(-1.0)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            make_source(rate=0.0)


class TestAdmission:
    def test_shed_arrivals_never_enter_the_backlog(self):
        sim = Simulator()
        source = make_source(rate=10.0)
        source.admission = AdmissionController(DropTailShedding(3))
        wakes = []
        source.arm(sim, on_available=lambda: wakes.append(sim.now))
        sim.run_until(1.05)
        assert source.backlog() == 3
        assert source.tuples_shed == 7
        assert source.arrivals == 10
        assert len(wakes) == 3  # shed arrivals do not wake the consumer

    def test_admitted_stream_is_gap_free(self):
        sim = Simulator()
        source = make_source(rate=10.0)
        source.admission = AdmissionController(DropTailShedding(3))
        source.arm(sim)
        sim.run_until(1.05)
        seqs = []
        while (tup := source.next_tuple()) is not None:
            seqs.append(tup.seq)
        assert seqs == [0, 1, 2]
