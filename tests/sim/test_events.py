"""The event core as the simulator runs it: ordering, lazy cancellation,
compaction and cell recycling, observed through ``Simulator.perf``."""

from repro.sim.engine import Simulator


class TestOrdering:
    def test_pops_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.call_at(2.0, lambda: fired.append("b"))
        sim.call_at(1.0, lambda: fired.append("a"))
        sim.call_at(3.0, lambda: fired.append("c"))
        sim.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_fifo(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.call_at(1.0, lambda t=tag: fired.append(t))
        sim.run_until(10.0)
        assert fired == ["first", "second", "third"]


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append("keep"))
        sim.call_at(0.5, lambda: fired.append("cancel")).cancel()
        sim.run_until(10.0)
        assert fired == ["keep"]
        assert sim.events_processed == 1

    def test_peek_skips_cancelled(self):
        # The loop looks at the head of the heap before popping: a
        # cancelled head is discarded, and the live event behind it stays
        # queued while it is past the horizon.
        sim = Simulator()
        fired = []
        sim.call_at(0.5, lambda: fired.append("early")).cancel()
        sim.call_at(1.0, lambda: fired.append("late"))
        sim.run_until(0.75)
        assert fired == []
        assert sim.perf.live_events == 1
        sim.run_until(1.0)
        assert fired == ["late"]

    def test_empty_queue(self):
        sim = Simulator()
        sim.run_until_idle(5.0)
        assert sim.now == 0.0
        sim.run_until(5.0)
        assert sim.now == 5.0
        assert sim.events_processed == 0
        assert sim.perf.live_events == 0

    def test_double_cancel_is_a_noop(self):
        sim = Simulator()
        event = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.perf.live_events == 1
        assert sim.perf.events_cancelled == 1

    def test_cancel_after_fire_is_a_noop(self):
        sim = Simulator()
        event = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        sim.run_until(1.5)
        event.cancel()
        assert sim.perf.live_events == 1
        assert sim.perf.events_cancelled == 0


class TestLiveCount:
    def test_len_counts_only_live_events(self):
        sim = Simulator()
        events = [sim.call_at(float(i), lambda: None) for i in range(5)]
        assert sim.perf.live_events == 5
        events[1].cancel()
        events[3].cancel()
        # Cancelled entries are still physically in the heap (lazy
        # deletion) but must not be counted.
        assert len(sim._heap) == 5
        assert sim.perf.live_events == 3

    def test_len_decreases_on_pop(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        sim.run_until(1.0)
        assert sim.perf.live_events == 1

    def test_scheduled_total_counts_everything(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None).cancel()
        sim.schedule_after(2.0, lambda: None)
        sim.run_until(5.0)
        assert sim.perf.events_scheduled == 2


class TestCompaction:
    def test_mass_cancellation_compacts_heap(self):
        sim = Simulator()
        doomed = [sim.call_at(float(i), lambda: None) for i in range(200)]
        fired = []
        sim.call_at(1000.0, lambda: fired.append("survivor"))
        for event in doomed:
            event.cancel()
        assert sim.perf.heap_compactions >= 1
        assert sim.perf.live_events == 1
        assert len(sim._heap) < 200
        sim.run_until(1000.0)
        assert fired == ["survivor"]

    def test_order_preserved_across_compaction(self):
        sim = Simulator()
        doomed = [sim.call_at(float(i), lambda: None) for i in range(150)]
        fired = []
        for tag, t in (("a", 5.5), ("b", 2.5), ("c", 8.5)):
            sim.call_at(t, lambda t=tag: fired.append(t))
        for event in doomed:
            event.cancel()
        assert sim.perf.heap_compactions >= 1
        sim.run_until(200.0)
        assert fired == ["b", "a", "c"]


class TestScheduleFastPath:
    def test_schedule_interleaves_with_push_fifo(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append("call"))
        sim.schedule_after(1.0, lambda: fired.append("schedule"))
        sim.call_at(1.0, lambda: fired.append("call2"))
        sim.run_until(10.0)
        assert fired == ["call", "schedule", "call2"]

    def test_recycled_cells_are_reused(self):
        sim = Simulator()
        sim.schedule_after(1.0, lambda: None)
        cell = sim._heap[0]
        sim.run_until(2.0)
        assert sim._free == [cell] and cell[2] is None
        sim.schedule_after(1.0, lambda: None)
        assert sim._heap == [cell] and sim._free == []
        # A cell with a handle is the caller's: never recycled.
        sim.call_after(1.0, lambda: None)
        sim.run_until(4.0)
        assert sim._free == [cell]

    def test_pop_due_respects_limit(self):
        sim = Simulator()
        fired = []
        sim.schedule_after(1.0, lambda: fired.append(1.0))
        sim.schedule_after(5.0, lambda: fired.append(5.0))
        sim.run_until(2.0)
        assert fired == [1.0]
        assert sim.now == 2.0
        assert sim.perf.live_events == 1
