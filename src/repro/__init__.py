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

import importlib

__version__ = "1.0.0"

#: Public name -> defining module. Resolved lazily (PEP 562) so that
#: importing ``repro`` costs nothing: worker processes of the
#: multi-process dataplane (``python -m repro.proc.worker``) must not
#: pay for the simulator or the experiment harness just to run a select
#: loop — eager package imports would dominate worker spawn cost.
_EXPORTS = {
    "BalancerConfig": "repro.core",
    "BlockingRateEstimator": "repro.core",
    "BlockingRateFunction": "repro.core",
    "LoadBalancer": "repro.core",
    "OraclePolicy": "repro.core",
    "ReroutingPolicy": "repro.core",
    "RoundRobinPolicy": "repro.core",
    "WeightConstraints": "repro.core",
    "WeightedPolicy": "repro.core",
    "agglomerative_cluster": "repro.core",
    "function_distance": "repro.core",
    "monotone_regression": "repro.core",
    "solve_minimax_binary_search": "repro.core",
    "solve_minimax_fox": "repro.core",
    "ExperimentConfig": "repro.experiments",
    "HostSpec": "repro.experiments",
    "PlacementPlan": "repro.experiments",
    "RunResult": "repro.experiments",
    "fault_recovery_scenario": "repro.experiments",
    "oracle_schedule": "repro.experiments",
    "overload_scenario": "repro.experiments",
    "plan_placement": "repro.experiments",
    "run_experiment": "repro.experiments",
    "ControlRoundRecord": "repro.obs",
    "DecisionAuditLog": "repro.obs",
    "MetricsRegistry": "repro.obs",
    "ObsReport": "repro.obs",
    "ObservabilityConfig": "repro.obs",
    "ObservabilityHub": "repro.obs",
    "SpanTracer": "repro.obs",
    "OverloadConfig": "repro.overload",
    "OverloadDetector": "repro.overload",
    "OverloadManager": "repro.overload",
    "FaultInjector": "repro.faults",
    "FaultSchedule": "repro.faults",
    "RecoveryConfig": "repro.faults",
    "RecoveryCoordinator": "repro.faults",
    "Simulator": "repro.sim",
    "FluidRegion": "repro.sim.fluid",
    "Application": "repro.streams",
    "BurstySourceOp": "repro.streams",
    "Filter": "repro.streams",
    "FiniteSource": "repro.streams",
    "Functor": "repro.streams",
    "Host": "repro.streams",
    "InfiniteSource": "repro.streams",
    "OrderedMerger": "repro.streams",
    "ParallelRegion": "repro.streams",
    "PassThrough": "repro.streams",
    "Placement": "repro.streams",
    "RatedSource": "repro.streams",
    "RegionParams": "repro.streams",
    "RegionStalledError": "repro.streams",
    "SinkOp": "repro.streams",
    "SourceOp": "repro.streams",
    "Splitter": "repro.streams",
    "StreamGraph": "repro.streams",
    "StreamTuple": "repro.streams",
    "UnorderedMerger": "repro.streams",
    "WorkerPE": "repro.streams",
    "LoadSchedule": "repro.workloads",
    "constant_cost": "repro.workloads",
}


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache: resolve each name at most once
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))

__all__ = [
    "BalancerConfig",
    "BlockingRateEstimator",
    "BlockingRateFunction",
    "LoadBalancer",
    "OraclePolicy",
    "ReroutingPolicy",
    "RoundRobinPolicy",
    "WeightConstraints",
    "WeightedPolicy",
    "agglomerative_cluster",
    "function_distance",
    "monotone_regression",
    "solve_minimax_binary_search",
    "solve_minimax_fox",
    "ExperimentConfig",
    "HostSpec",
    "PlacementPlan",
    "RunResult",
    "fault_recovery_scenario",
    "oracle_schedule",
    "overload_scenario",
    "plan_placement",
    "run_experiment",
    "ControlRoundRecord",
    "DecisionAuditLog",
    "MetricsRegistry",
    "ObsReport",
    "ObservabilityConfig",
    "ObservabilityHub",
    "SpanTracer",
    "OverloadConfig",
    "OverloadDetector",
    "OverloadManager",
    "FaultInjector",
    "FaultSchedule",
    "RecoveryConfig",
    "RecoveryCoordinator",
    "Simulator",
    "FluidRegion",
    "Application",
    "BurstySourceOp",
    "Filter",
    "FiniteSource",
    "Functor",
    "Host",
    "InfiniteSource",
    "OrderedMerger",
    "ParallelRegion",
    "PassThrough",
    "Placement",
    "RatedSource",
    "RegionParams",
    "RegionStalledError",
    "SinkOp",
    "SourceOp",
    "Splitter",
    "StreamGraph",
    "StreamTuple",
    "UnorderedMerger",
    "WorkerPE",
    "LoadSchedule",
    "constant_cost",
    "__version__",
]
