"""The paper's figures: one bench per record of ``FIGURES``.

Each record (``repro.experiments.figures``) runs its experiment(s), and
this bench writes the rendered report to ``benchmarks/_reports/<id>.txt``
and then checks the record's claims — the paper's shapes: who wins, by
roughly what factor, where crossovers fall. ``REPRO_BENCH_SMOKE=1`` runs
every record at its tiny harness-check scale.

Run with::

    pytest benchmarks/bench_figures.py --benchmark-only
"""

import pytest
from conftest import SMOKE, run_once

from repro.analysis.shape import ShapeError
from repro.experiments.figures import FIGURES


@pytest.mark.parametrize("figure", FIGURES, ids=lambda f: f.id)
def bench_figure(benchmark, report, figure):
    measured = run_once(benchmark, lambda: figure.run(SMOKE, None))
    report(figure.id, figure.render(measured))
    failed = figure.failed(measured)
    if failed:
        raise ShapeError(f"{figure.id}: claims failed: {failed}")
