"""Unit tests for the discrete-event simulator."""

import ast
from pathlib import Path

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_call_at_fires_at_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.5, lambda: seen.append(sim.now))
        sim.run_until(2.0)
        assert seen == [1.5]

    def test_call_after_is_relative(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: sim.call_after(0.5, lambda: seen.append(sim.now)))
        sim.run_until(2.0)
        assert seen == [1.5]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.call_at(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_after(-1.0, lambda: None)


class TestRunUntil:
    def test_clock_lands_exactly_on_end_time(self):
        sim = Simulator()
        sim.run_until(3.25)
        assert sim.now == 3.25

    def test_events_beyond_horizon_not_fired(self):
        sim = Simulator()
        seen = []
        sim.call_at(5.0, lambda: seen.append("late"))
        sim.run_until(4.0)
        assert seen == []
        sim.run_until(6.0)
        assert seen == ["late"]

    def test_end_time_before_now_rejected(self):
        sim = Simulator()
        sim.run_until(2.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)

    def test_stop_interrupts_run(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.call_at(2.0, lambda: fired.append(2))
        sim.run_until(10.0)
        assert fired == [1]
        assert sim.now == 1.0

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.call_at(t, lambda: None)
        sim.run_until(10.0)
        assert sim.events_processed == 3

    def test_run_until_idle_stops_at_queue_drain(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.run_until_idle(100.0)
        assert sim.now == 1.0


class TestCallEvery:
    def test_fires_periodically(self):
        sim = Simulator()
        times = []
        sim.call_every(1.0, lambda: times.append(sim.now))
        sim.run_until(3.5)
        assert times == [1.0, 2.0, 3.0]

    def test_start_overrides_first_firing(self):
        sim = Simulator()
        times = []
        sim.call_every(1.0, lambda: times.append(sim.now), start=0.25)
        sim.run_until(2.5)
        assert times == [0.25, 1.25, 2.25]

    def test_cancel_stops_repetition(self):
        sim = Simulator()
        times = []
        cancel = sim.call_every(1.0, lambda: times.append(sim.now))
        sim.call_at(2.5, cancel)
        sim.run_until(10.0)
        assert times == [1.0, 2.0]

    def test_non_positive_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_every(0.0, lambda: None)


class TestPerfCounters:
    def test_counters_track_engine_activity(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None).cancel()
        sim.schedule_after(3.0, lambda: None)
        sim.call_at(9.0, lambda: None)
        sim.run_until(5.0)
        perf = sim.perf
        assert perf.events_processed == 2
        assert perf.events_scheduled == 4
        assert perf.events_cancelled == 1
        assert perf.live_events == 1
        assert sim.events_processed == 2

    def test_as_dict_round_trip(self):
        sim = Simulator()
        sim.schedule_after(1.0, lambda: None)
        sim.run_until(2.0)
        d = sim.perf.as_dict()
        assert d["events_processed"] == 1
        assert d["events_scheduled"] == 1


class TestTracing:
    def test_identical_runs_produce_identical_digests(self):
        def build_and_run():
            sim = Simulator()
            sim.enable_tracing()
            sim.call_every(0.5, lambda: None)
            sim.schedule_after(1.25, lambda: sim.schedule_after(0.5, lambda: None))
            sim.run_until(10.0)
            return sim.trace_digest()

        assert build_and_run() == build_and_run()

    def test_different_orders_produce_different_digests(self):
        def run_one(first, second):
            sim = Simulator()
            sim.enable_tracing()
            sim.schedule_after(first, lambda: None)
            sim.schedule_after(second, lambda: None)
            sim.run_until(10.0)
            return sim.trace_digest()

        assert run_one(1.0, 2.0) != run_one(2.0, 1.0)

    def test_digest_requires_tracing_enabled(self):
        with pytest.raises(SimulationError):
            Simulator().trace_digest()


def _method_bodies(path, class_name, names):
    """``{name: ast dump}`` of ``class_name``'s methods in ``path``.

    Docstrings and annotations are dropped, so the dump is the code
    alone; comments never reach the AST.
    """
    tree = ast.parse(path.read_text())
    cls = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == class_name
    )
    bodies = {}
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name not in names:
            continue
        body = fn.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        for arg in fn.args.args:
            arg.annotation = None
        bodies[fn.name] = (ast.dump(fn.args), body)
    return bodies


class TestBenchReference:
    def test_obs_free_reference_is_the_engine_loop(self):
        """The hot-path bench's reference copies the engine's per-event path.

        ``benchmarks/bench_core_hotpath.py`` times the engine against
        ``ReferenceSimulator`` to show observability costs the loop
        nothing; a stale copy would make that comparison meaningless.
        The one allowed difference is the engine's dispatch to its
        traced loop.
        """
        root = Path(__file__).resolve().parents[2]
        names = ("call_after", "_run")
        engine = _method_bodies(root / "src/repro/sim/engine.py", "Simulator", names)
        copy = _method_bodies(
            root / "benchmarks/bench_core_hotpath.py", "ReferenceSimulator", names
        )
        args, body = engine["_run"]
        dispatch, body = body[0], body[1:]
        assert "_trace" in ast.dump(dispatch)
        engine["_run"] = (args, body)
        for name in names:
            engine_args, engine_body = engine[name]
            copy_args, copy_body = copy[name]
            assert copy_args == engine_args, name
            assert [ast.dump(s) for s in copy_body] == [
                ast.dump(s) for s in engine_body
            ], name
