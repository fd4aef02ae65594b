"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``                    — list the reproducible figures' records;
* ``figure <id>``             — run a figure record at full budget, print its
  report and a PASS/FAIL line per claim, exit 1 if a claim fails (e.g.
  ``figure fig8-top``, ``figure fig11-bottom``; an id prefix such as
  ``sec44`` runs every record it begins);
* ``demo``                    — the quickstart scenario;
* ``sweep --pes 2,4,8 ...``   — a custom half-loaded sweep.

The CLI is a thin veneer over :mod:`repro.experiments`; anything beyond a
quick look should use the library API or the benches.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from collections.abc import Sequence

from repro.analysis.report import render_weight_table
from repro.experiments import figures
from repro.experiments.results import format_sweep_table
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import run_sweep
from repro.obs.hub import ObservabilityConfig


def _cmd_list(_args) -> int:
    print(f"{'id':<24} {'figure':<14} description")
    for f in figures.FIGURES:
        print(f"{f.id:<24} {f.figure:<14} {f.description}")
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by the in-depth commands."""
    parser.add_argument(
        "--obs", action="store_true",
        help="record metrics, the decision audit log, and spans",
    )
    parser.add_argument(
        "--obs-jsonl", metavar="PATH", default=None,
        help="write the observability event stream as JSONL (implies --obs)",
    )
    parser.add_argument(
        "--obs-prom", metavar="PATH", default=None,
        help="write a Prometheus text snapshot (implies --obs)",
    )
    parser.add_argument(
        "--obs-console", metavar="SECS", type=float, default=0.0,
        help="print a console report line every SECS simulated seconds "
        "(implies --obs)",
    )


def _obs_config(args) -> ObservabilityConfig | None:
    """What the obs flags ask for, or ``None`` when none was given."""
    if not (args.obs or args.obs_jsonl or args.obs_prom
            or args.obs_console > 0):
        return None
    return ObservabilityConfig(
        console_interval=args.obs_console,
        jsonl_path=args.obs_jsonl,
        prometheus_path=args.obs_prom,
    )


def _apply_obs(config, args):
    """Enable observability on ``config`` when any obs flag was given."""
    obs = _obs_config(args)
    return config if obs is None else config.with_observability(obs)


def _obs_summary(result) -> str:
    """A few lines digesting the run's observability report."""
    report = result.obs
    outcomes: dict[str, int] = {}
    for record in report.audit:
        outcomes[record["outcome"]] = outcomes.get(record["outcome"], 0) + 1
    kinds: dict[str, int] = {}
    for span in report.spans:
        kinds[span["kind"]] = kinds.get(span["kind"], 0) + 1
    lines = [
        f"observability: {len(report.events)} events, "
        f"{len(report.audit)} audit rounds, {len(report.spans)} spans, "
        f"{len(report.metrics)} metric samples",
    ]
    if outcomes:
        pairs = ", ".join(
            f"{k}={v}" for k, v in sorted(outcomes.items())
        )
        lines.append(f"  audit outcomes: {pairs}")
    if kinds:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        lines.append(f"  span kinds: {pairs}")
    return "\n".join(lines)


def _print_obs(result, args) -> None:
    """The run's observability digest and where its exports went."""
    if result.obs is None:
        return
    print()
    print(_obs_summary(result))
    if args.obs_jsonl:
        print(f"  wrote events -> {args.obs_jsonl}")
    if args.obs_prom:
        print(f"  wrote metrics -> {args.obs_prom}")


def _cmd_figure(args) -> int:
    selected = figures.find(args.id)
    if not selected:
        print(f"unknown figure {args.id!r}; try `python -m repro list`",
              file=sys.stderr)
        return 2
    failed = 0
    for figure in selected:
        # The in-depth records observe their one run and keep it under
        # "result"; the others ignore the obs flags.
        measured = figure.run(False, _obs_config(args))
        print(f"== {figure.id} ({figure.figure}) ==")
        print(textwrap.fill(f"paper: {figure.quote}", width=76))
        print()
        print(figure.render(measured))
        if isinstance(measured, dict) and "result" in measured:
            _print_obs(measured["result"], args)
        print()
        bad = figure.failed(measured)
        for claim in figure.claims:
            verdict = "FAIL" if claim.name in bad else "PASS"
            print(f"{verdict} {figure.id}: {claim.name}")
        print()
        failed += len(bad)
    return 1 if failed else 0


def _cmd_demo(args) -> int:
    if args.backend == "process":
        return _run_process_demo(args)
    config = _apply_obs(figures.fig08_top_config(duration=200.0), args)
    result = run_experiment(config, "lb-adaptive")
    print(result.summary())
    print()
    print(render_weight_table(
        result.weight_series, times=[5, 15, 25, 50, 100, 150, 199],
        title="allocation weights over time:",
    ))
    _print_obs(result, args)
    return 0


def _run_process_demo(args) -> int:
    """``demo --backend=process``: real workers, a real kill, recovery."""
    from repro.experiments.process_backend import process_scenario

    kill = None if args.kill < 0 else args.kill
    if kill is not None and kill >= args.workers:
        print(f"--kill {kill} needs a worker index below --workers "
              f"{args.workers}", file=sys.stderr)
        return 2
    config = process_scenario(
        n_workers=args.workers,
        total_tuples=args.tuples,
        crash_worker=kill,
        crash_at_emitted=(
            max(1, args.tuples // 8) if kill is not None else None
        ),
        batch_size=args.batch_size,
    )
    config = _apply_obs(config, args)
    wire = (
        f"batched wire (B={args.batch_size})"
        if args.batch_size > 1 else "per-tuple wire"
    )
    if kill is None:
        print(f"process backend: {args.workers} worker processes, "
              f"{args.tuples} tuples, {wire}")
    else:
        print(f"process backend: {args.workers} worker processes, "
              f"{args.tuples} tuples, {wire}; SIGKILL worker {kill} an "
              f"eighth of the way through")
    result = run_experiment(config, "rr")
    print(result.summary())
    _print_obs(result, args)
    return 0


def _cmd_sweep(args) -> int:
    pes = [int(x) for x in args.pes.split(",")]
    rows = run_sweep(
        lambda n: figures.fig09_config(n, dynamic=args.dynamic),
        pes,
        figures.SWEEP_POLICIES,
    )
    print(format_sweep_table(rows, title="custom sweep:"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's experiments from the command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproducible figures").set_defaults(
        func=_cmd_list
    )
    figure = sub.add_parser("figure", help="run one figure's experiments")
    figure.add_argument(
        "id", help="record id or id prefix, e.g. fig8-top, fig12, sec44"
    )
    _add_obs_flags(figure)
    figure.set_defaults(func=_cmd_figure)
    demo = sub.add_parser("demo", help="a two-minute demonstration")
    demo.add_argument(
        "--backend", choices=("sim", "process"), default="sim",
        help="'sim' runs the simulator demo; 'process' runs real worker "
        "processes over sockets with a real mid-run SIGKILL",
    )
    demo.add_argument(
        "--workers", type=int, default=4,
        help="worker process count (process backend; default 4)",
    )
    demo.add_argument(
        "--tuples", type=int, default=400,
        help="tuple budget (process backend; default 400)",
    )
    demo.add_argument(
        "--kill", type=int, default=1, metavar="J",
        help="SIGKILL worker J an eighth of the way through "
        "(process backend; -1 disables; default 1)",
    )
    demo.add_argument(
        "--batch-size", type=int, default=1, metavar="B",
        help="tuples per DATA_BATCH wire frame (process backend; "
        "1 = per-tuple frames; default 1)",
    )
    _add_obs_flags(demo)
    demo.set_defaults(func=_cmd_demo)
    sweep = sub.add_parser("sweep", help="custom half-10x-loaded sweep")
    sweep.add_argument("--pes", default="2,4,8", help="comma-separated PE counts")
    sweep.add_argument("--dynamic", action="store_true",
                       help="remove the load an eighth through")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
