"""Shared infrastructure for the benches.

``bench_figures.py`` regenerates the paper's figures, one record of
``repro.experiments.figures.FIGURES`` each: it runs the experiment(s),
records the rendered report under ``benchmarks/_reports/`` so the
paper-vs-measured comparison in EXPERIMENTS.md can be re-derived, and
checks the result's *shape* (who wins, by roughly what factor, where
crossovers fall).

Run with::

    pytest benchmarks/ --benchmark-only

Timing comes from pytest-benchmark (one round per experiment — these are
deterministic simulations, so repeated rounds would measure the same
thing).
"""

from __future__ import annotations

import os
import pathlib
import warnings

import pytest

REPORT_DIR = pathlib.Path(__file__).parent / "_reports"

#: CI smoke mode (``REPRO_BENCH_SMOKE=1``): every bench runs end to end on
#: tiny parameters to prove the harness itself works. Shape assertions are
#: advisory at that scale (the paper's effects need the full budgets to
#: show), so assertion failures are downgraded to warnings (here alone);
#: genuine crashes — exceptions of any other kind — still fail the job.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip().lower() not in (
    "",
    "0",
    "false",
)


def smoke_scale(full, tiny):
    """``full`` normally; ``tiny`` under ``REPRO_BENCH_SMOKE``."""
    return tiny if SMOKE else full


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not SMOKE:
        return (yield)
    try:
        return (yield)
    except AssertionError as exc:
        warnings.warn(
            f"[smoke] shape assertion skipped in {item.nodeid}: {exc}",
            stacklevel=1,
        )
        return None


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result.

    The experiments are deterministic, multi-second simulations; measuring
    one round is both sufficient and honest.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def report():
    """Persist (and echo) a bench's rendered figure report."""

    def _report(name: str, text: str) -> None:
        REPORT_DIR.mkdir(exist_ok=True)
        path = REPORT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n=== {name} ===")
        print(text)

    return _report
