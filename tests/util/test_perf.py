"""Edge cases for the lightweight perf tallies (util/perf.py)."""

from repro.util.perf import (
    COUNTERS,
    BatchStats,
    ModelCounters,
    PerfCounters,
    reset_counters,
)


class TestBatchStats:
    def test_zero_batches_mean_occupancy(self):
        stats = BatchStats()
        assert stats.batches == 0
        assert stats.tuples == 0
        assert stats.mean_occupancy == 0.0

    def test_record_accumulates(self):
        stats = BatchStats()
        stats.record(4)
        stats.record(6)
        assert stats.batches == 2
        assert stats.tuples == 10
        assert stats.mean_occupancy == 5.0

    def test_empty_batch_counts_toward_mean(self):
        stats = BatchStats()
        stats.record(0)
        assert stats.batches == 1
        assert stats.mean_occupancy == 0.0

    def test_as_dict_key_stability(self):
        stats = BatchStats()
        stats.record(3)
        d = stats.as_dict()
        assert set(d) == {"batches", "tuples", "mean_occupancy"}
        assert d["batches"] == 1
        assert d["tuples"] == 3
        assert d["mean_occupancy"] == 3.0

    def test_as_dict_zero_record(self):
        assert BatchStats().as_dict() == {
            "batches": 0,
            "tuples": 0,
            "mean_occupancy": 0.0,
        }


class TestModelCounters:
    def test_reset_zeroes_everything(self):
        counters = ModelCounters()
        counters.solver_calls = 5
        counters.fits = 7
        counters.table_builds = 2
        counters.reset()
        assert counters.as_dict() == {
            "solver_calls": 0,
            "fits": 0,
            "table_builds": 0,
        }

    def test_as_dict_key_stability(self):
        assert set(ModelCounters().as_dict()) == {
            "solver_calls",
            "fits",
            "table_builds",
        }

    def test_global_reset_counters(self):
        COUNTERS.solver_calls += 3
        COUNTERS.fits += 1
        reset_counters()
        assert COUNTERS.solver_calls == 0
        assert COUNTERS.fits == 0
        assert COUNTERS.table_builds == 0

    def test_autouse_fixture_isolates(self):
        # The suite-wide fixture resets the process-global tallies, so
        # leakage from any earlier test is invisible here.
        assert COUNTERS.as_dict() == {
            "solver_calls": 0,
            "fits": 0,
            "table_builds": 0,
        }
        COUNTERS.fits += 99  # deliberately dirty; fixture cleans up


class TestPerfCounters:
    def _snap(self, **overrides):
        base = dict(
            events_processed=100,
            events_scheduled=120,
            events_cancelled=10,
            heap_compactions=1,
            live_events=10,
        )
        base.update(overrides)
        return PerfCounters(**base)

    def test_as_dict_key_stability(self):
        assert set(self._snap().as_dict()) == {
            "events_processed",
            "events_scheduled",
            "events_cancelled",
            "heap_compactions",
            "live_events",
            "events_coalesced",
        }
