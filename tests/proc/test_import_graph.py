"""What the process dataplane's entry points import, in a fresh interpreter.

A worker process is spawned per slot and respawned after every kill, and
``ProcessRegion`` is what a user of the real-socket backend imports: both
pay their import graph on every start, so neither may pull in the
simulator, the control plane or the experiment harness by accident.
"""

import json
import pathlib
import subprocess
import sys

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: Never needed to move tuples through a process region.
HEAVY = [
    "numpy",
    "repro.streams.application",
    "repro.core.balancer",
    "repro.sim.engine",
    "repro.experiments",
]

#: The simulator's transport: a worker needs :mod:`repro.net.framing` only.
SIMULATED_TRANSPORT = [
    "repro.net.connection",
    "repro.net.buffers",
    "repro.net.blocking",
    "repro.util.ewma",
    "repro.util.timeseries",
]

PROBE = """
import importlib.util, json, sys
import repro.proc.worker
after_worker = sorted(sys.modules)
import repro.proc.region
import repro.streams
same_class = (
    repro.proc.region.RegionStalledError
    is repro.streams.RegionStalledError
    is repro.RegionStalledError
)
mini_region = importlib.util.find_spec("repro.net.socket_transport")
print(json.dumps(
    [after_worker, sorted(sys.modules), same_class, mini_region is None]
))
"""


def test_process_entry_points_import_no_simulator_or_control_plane():
    # Worker first: importing the region afterwards can only add modules.
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    after_worker, after_region, same_class, mini_region_gone = json.loads(
        done.stdout
    )
    assert [m for m in HEAVY + ["repro.streams"] if m in after_worker] == []
    assert [m for m in SIMULATED_TRANSPORT if m in after_worker] == []
    assert [m for m in HEAVY if m in after_region] == []
    # Lazy package exports hand out the defining module's own class: both
    # raisers (simulated splitter, process region) raise, and every
    # caller catches, one RegionStalledError.
    assert same_class
    # Two dataplanes: the thread+socket mini-region is not a third.
    assert mini_region_gone


def test_application_regions_are_the_one_parallel_region():
    # Two splitters, two reorderers: the application layer compiles an
    # annotated operator onto the simulator's ParallelRegion, ordered or
    # not, and has no splitter/merger pair of its own.
    from repro.sim.engine import Simulator
    from repro.streams import application
    from repro.streams.graph import StreamGraph
    from repro.streams.hosts import Host
    from repro.streams.merger import OrderedMerger
    from repro.streams.operators import PassThrough, SinkOp, SourceOp
    from repro.streams.region import ParallelRegion
    from repro.streams.splitter import Splitter

    assert not hasattr(application, "SplitterPE")
    assert not hasattr(application, "MergerPE")
    for ordered in (True, False):
        graph = StreamGraph()
        nodes = [
            graph.add(SourceOp("src", 1.0, tuple_cost=1.0, total=1)),
            graph.add(PassThrough("work", 1.0)),
            graph.add(SinkOp("sink")),
        ]
        graph.chain(*nodes)
        graph.parallelize(nodes[1], 2, ordered=ordered)
        app = application.Application(
            Simulator(), graph, default_host=Host("h")
        )
        region = app.regions["work"].region
        assert type(region) is ParallelRegion
        assert type(region.splitter) is Splitter
        assert isinstance(region.merger, OrderedMerger)
        assert region.ordered is ordered


def test_source_tree_has_one_numeric_backend():
    offenders = [
        f"{path.relative_to(SRC)}: {token}"
        for path in sorted(SRC.rglob("*.py"))
        for token in ("import numpy", "HAVE_NUMPY", "REPRO_NO_NUMPY")
        if token in path.read_text()
    ]
    assert offenders == []


def test_event_queue_gone():
    # One event core: the simulator owns the heap, the sequence counter,
    # the free list and the dead count; there is no queue object beside
    # it whose methods mirror what the run loop writes out.
    from repro.sim import events
    from repro.sim.engine import Simulator

    assert not hasattr(events, "EventQueue")
    assert "_queue" not in Simulator.__slots__
    for twin in ("push", "schedule", "pop", "pop_due", "recycle", "peek_time"):
        assert not hasattr(Simulator, twin), twin


def test_analysis_export_gone():
    # Nothing reached the JSON/CSV result exporters or the §8 placement
    # planner but their own tests and the export tables.
    import importlib.util

    from repro.experiments.runner import RunResult

    assert importlib.util.find_spec("repro.analysis.export") is None
    assert importlib.util.find_spec("repro.experiments.placement_opt") is None
    assert not hasattr(RunResult, "to_json")
    assert not hasattr(RunResult, "from_json")
