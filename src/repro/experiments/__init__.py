"""Experiment harness: configs, the runner, Oracle* weights, and sweeps.

Everything here exists to regenerate the paper's evaluation (Section 6):
:mod:`repro.experiments.figures` holds one builder per paper figure;
:mod:`repro.experiments.runner` executes a configuration under a chosen
policy (``rr`` / ``reroute`` / ``lb-static`` / ``lb-adaptive`` /
``oracle``) and returns the time series and scalar metrics the paper
plots; :mod:`repro.experiments.sweep` runs the vary-the-PEs grids.
"""

from repro.experiments import figures
from repro.experiments.config import (
    ExperimentConfig,
    HostSpec,
    fault_recovery_scenario,
    overload_scenario,
)
from repro.experiments.oracle import oracle_schedule, proportional_weights
from repro.experiments.results import SweepRow, format_sweep_table, normalize_to
from repro.experiments.runner import POLICIES, RunResult, run_experiment
from repro.experiments.sweep import run_sweep

__all__ = [
    "figures",
    "ExperimentConfig",
    "HostSpec",
    "fault_recovery_scenario",
    "overload_scenario",
    "oracle_schedule",
    "proportional_weights",
    "SweepRow",
    "format_sweep_table",
    "normalize_to",
    "POLICIES",
    "RunResult",
    "run_experiment",
    "run_sweep",
]
