"""repro — dynamic load balancing for ordered data-parallel regions.

A complete, from-scratch reproduction of *"Dynamic Load Balancing for
Ordered Data-Parallel Regions in Distributed Streaming Systems"*
(Schneider, Wolf, Hildrum, Wu, Khandekar; MIDDLEWARE 2016): the
TCP-blocking-rate metric, per-connection blocking rate functions, the
minimax separable resource-allocation optimizer, exploration decay,
function clustering — plus the streaming dataplane substrate (splitter,
bounded connections, worker PEs, ordered merger, host capacity model) the
paper evaluates on, here as a deterministic discrete-event simulator and
as supervised worker processes over real TCP sockets.

Quick start::

    from repro import ExperimentConfig, HostSpec, run_experiment

    config = ExperimentConfig(
        name="demo",
        n_workers=3,
        tuple_cost=1_000,
        host_specs=[HostSpec("node", thread_speed=2e5)],
        worker_host=[0, 0, 0],
        duration=120.0,
    )
    result = run_experiment(config, policy="lb-adaptive")
    print(result.summary())

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
per-figure reproduction harness.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> defining module: what an example, a document or the
#: headline test imports through ``repro``; everything else is imported
#: from the package that defines it. Resolved lazily (PEP 562) so that
#: importing ``repro`` costs nothing: worker processes of the
#: multi-process dataplane (``python -m repro.proc.worker``) must not
#: pay for the simulator or the experiment harness just to run a select
#: loop — eager package imports would dominate worker spawn cost.
_EXPORTS = {
    "BalancerConfig": "repro.core",
    "BlockingRateFunction": "repro.core",
    "LoadBalancer": "repro.core",
    "solve_minimax_fox": "repro.core",
    "ExperimentConfig": "repro.experiments",
    "HostSpec": "repro.experiments",
    "fault_recovery_scenario": "repro.experiments",
    "overload_scenario": "repro.experiments",
    "run_experiment": "repro.experiments",
    "OverloadConfig": "repro.overload",
    "OverloadManager": "repro.overload",
    "FaultSchedule": "repro.faults",
    "RecoveryConfig": "repro.faults",
    "Simulator": "repro.sim",
    "Application": "repro.streams",
    "ParallelRegion": "repro.streams",
    "RatedSource": "repro.streams",
    "RegionStalledError": "repro.streams",
    "StreamGraph": "repro.streams",
    "LoadSchedule": "repro.workloads",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
