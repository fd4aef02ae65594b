"""Analysis and presentation of experiment results.

* :mod:`repro.analysis.report` — text rendering of the paper's in-depth
  figures (per-connection weight/rate traces) and summary tables.
* :mod:`repro.analysis.heatmap` — the Figure 12 clustering heatmap:
  canonical cluster labels per channel per timestep.
* :mod:`repro.analysis.shape` — assertions about result *shape* (who wins,
  by what factor, where crossovers fall) used by the bench harness.
"""

from repro.analysis.heatmap import ClusterHeatmap, canonical_labels
from repro.analysis.report import render_series, render_weight_table
from repro.analysis.shape import (
    assert_between,
    assert_faster,
    assert_monotone,
    ratio,
)

__all__ = [
    "ClusterHeatmap",
    "canonical_labels",
    "render_series",
    "render_weight_table",
    "assert_between",
    "assert_faster",
    "assert_monotone",
    "ratio",
]
