#!/usr/bin/env python3
"""Run one benchmark workload, check its output, print every metric.

    python3 benchmarks/e2e/run.py --workload proc-closed-b16 --seed 1

prints each end-to-end metric by name with its unit and, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` — the form ``BENCHMARK.json``'s
driver reads. ``--trace 1`` (or ``--traced``) is a separate run that
wraps each layer's public functions from here, prints the per-layer
metrics and writes the spans as JSONL. ``--repeat``, ``--check-noise``
and ``--smoke`` exercise the harness itself; see ``README.md``.

The harness finds the package at ``src/`` relative to the checkout it
sits in and needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from stats import relative_iqr, summarize, worsening  # noqa: E402

#: Fresh interpreters timed for ``setup_s`` (after one discarded warm-up).
SETUP_PROBES = 4
#: ``--smoke`` divides every workload's measured time by this.
SMOKE_DIVISOR = 20


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def require_package() -> None:
    """Make ``repro`` importable, or stop before measuring anything."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def stray_workers() -> list[int]:
    """Pids of ``repro.proc.worker`` processes whose harness has died.

    A worker normally exits when its parent's socket closes; one still
    alive and re-parented away from a harness would share the two cores
    with the run about to be measured.
    """
    strays = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
            if b"repro.proc.worker" not in cmdline:
                continue
            ppid = int((entry / "stat").read_text().rsplit(")", 1)[1].split()[1])
            parent = pathlib.Path("/proc", str(ppid), "cmdline").read_bytes()
        except (OSError, ValueError, IndexError):
            continue
        if ppid == 1 or b"python" not in parent:
            strays.append(int(entry.name))
    return strays


# ------------------------------------------------------------------ setup_s


def setup_probe(name: str) -> float:
    """What a user pays before the first tuple: import, config, spawn.

    Runs in a fresh interpreter (``--setup-probe``) so the import is a
    real one, not a ``sys.modules`` hit.
    """
    t0 = time.perf_counter()
    import repro  # noqa: F401
    from workloads import WORKLOADS, close_open_regions, open_region, sim_config

    workload = WORKLOADS[name]
    if workload.family == "proc":
        try:
            open_region(workload.shape, 0)
            return time.perf_counter() - t0
        finally:
            close_open_regions()
    if workload.family == "sim":
        from repro.experiments.runner import run_experiment  # noqa: F401

        sim_config(name == "sim-full", 0, 1000)
    else:
        from repro.core.balancer import BalancerConfig, LoadBalancer
        from repro.sim.fluid import FluidRegion  # noqa: F401

        LoadBalancer(64, BalancerConfig(clustering=True))
    return time.perf_counter() - t0


def measure_setup(name: str) -> float:
    """Median ``setup_s`` over ``SETUP_PROBES`` fresh interpreters.

    Set-up is CPU-bound (imports, interpreter start of each worker), so
    each probe is bracketed by the calibration kernel and read at
    reference-host speed like every other CPU-bound timing.
    """
    from hostspeed import Calibrated

    samples = []
    calibrated = Calibrated()
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        speed = calibrated.close()
        if i:  # the first fills the page cache and is thrown away
            samples.append(float(done.stdout.strip().splitlines()[-1]) / speed)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------- one run


def filler(unit: str, window_s: float) -> float:
    """What a workload prints for an end-to-end metric it does not define.

    The driver reads every end-to-end metric from every workload, so a
    cell with no meaning cannot be left out. It carries the length of the
    run's own measured window in the metric's unit (its reciprocal for a
    rate): a real measurement, steady, never zero, and obviously not a
    latency or a throughput to anyone reading it.
    """
    if unit == "ms":
        return window_s * 1e3
    if unit in ("s", "sim_s"):
        return window_s
    if unit == "1/s":
        return 1.0 / window_s
    raise ValueError(f"no filler for unit {unit!r}")


def run_once(spec: dict, name: str, seed: int, seconds: float, traced: bool,
             spans_path: pathlib.Path | None = None) -> dict:
    """One run of one workload: ``{"result": ..., "text": [...]}``."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    lines: list[str] = []
    fillers: set[str] = set()
    if traced:
        from layers import run_traced

        outcome, values, span_count = run_traced(
            workload, seed, seconds, spans_path
        )
        lines.append(f"spans: {span_count} written to {spans_path}")
        # A layer the workload never enters did no work: 0.
        metrics = {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        outcome = workload.run(seed, seconds)
        values = dict(outcome.e2e)
        # Memory is read before the set-up probes run: they are children too.
        values["peak_rss_mb"] = peak_rss_mb()
        values["setup_s"] = measure_setup(name)
        metrics = {}
        for m in spec["end_to_end"]:
            if m["name"] not in values:
                fillers.add(m["name"])
                values[m["name"]] = filler(m["unit"], outcome.window_s)
            metrics[m["name"]] = {
                "value": float(values[m["name"]]), "unit": m["unit"]
            }
    width = max(len(n) for n in metrics)
    for metric_name, cell in metrics.items():
        tag = "   (n/a on this workload: window filler)" if metric_name in fillers else ""
        lines.append(
            f"{metric_name:<{width}}  {cell['value']:>16.6g} {cell['unit']}{tag}"
        )
    lines += [f"note: {note}" for note in outcome.notes]
    lines.append(
        f"failed_fraction  {outcome.failed / outcome.attempted:g} "
        f"({outcome.failed} of {outcome.attempted} operations)"
    )
    # A metric that could not be computed (NaN) is a failed run too.
    correct = outcome.failed == 0 and all(
        cell["value"] == cell["value"] for cell in metrics.values()
    )
    return {
        "text": lines,
        "result": {
            "correct": correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        },
    }


# ------------------------------------------------------------- noise modes


def fingerprint() -> dict:
    """Enough about the host to tell two machines' numbers apart."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "commit": commit,
    }


def run_child(name: str, seed: int, seconds: float) -> dict:
    """One untraced run in its own interpreter, as the driver makes it."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.exit(
            f"error: {name} seed {seed} exited {done.returncode}\n"
            f"{done.stdout}{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def repeat_set(name: str, seeds: list[int], seconds: float) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        result = run_child(name, seed, seconds)
        for metric, cell in result["metrics"].items():
            values.setdefault(metric, []).append(cell["value"])
    return values


def print_summary(spec: dict, name: str, values: dict[str, list[float]]) -> None:
    print(f"{name}: {len(next(iter(values.values())))} runs")
    for metric in spec["end_to_end"]:
        s = summarize(values[metric["name"]])
        print(
            f"  {metric['name']:<22} median {s['median']:>14.6g} {metric['unit']:<5}"
            f" q1 {s['q1']:.6g} q3 {s['q3']:.6g}"
            f" range {s['rel_iqr']:.4f} (bound {metric['bound']})"
        )


def check_noise(spec: dict, name: str, seed: int, repeat: int, seconds: float) -> bool:
    """Two sets of runs of the same code must agree within the bounds."""
    first = repeat_set(name, [seed + i for i in range(repeat)], seconds)
    second = repeat_set(name, [seed + repeat + i for i in range(repeat)], seconds)
    print_summary(spec, name + " (first set)", first)
    print_summary(spec, name + " (second set)", second)
    ok = True
    for metric in spec["end_to_end"]:
        a = statistics.median(first[metric["name"]])
        b = statistics.median(second[metric["name"]])
        worse = worsening(a, b, metric["better"])
        spread = max(
            relative_iqr(first[metric["name"]]),
            relative_iqr(second[metric["name"]]),
        )
        steady = metric["name"] == "setup_s" or spread <= metric["bound"]
        agrees = worse <= metric["bound"]
        verdict = "ok" if steady and agrees else "FAIL"
        ok = ok and steady and agrees
        print(
            f"  {metric['name']:<22} second median worse by {worse:+.4f}, "
            f"spread {spread:.4f}, bound {metric['bound']}: {verdict}"
        )
    return ok


# -------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the names in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--json", type=pathlib.Path, help="also write the result here")
    parser.add_argument("--spans", type=pathlib.Path, help="where --traced writes its spans")
    parser.add_argument("--repeat", type=int, default=0, metavar="K",
                        help="K untraced runs on seeds seed..seed+K-1, summarised")
    parser.add_argument("--check-noise", action="store_true",
                        help="two sets of --repeat runs must agree within the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 time, correctness only")
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    require_package()
    if args.setup_probe:
        print(repr(setup_probe(args.setup_probe)))
        return 0

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds <= 0:
        parser.error("--seconds must be positive")
    traced = bool(args.trace or args.traced)

    strays = stray_workers()
    if strays:
        sys.exit(f"error: stray repro.proc.worker processes alive: {strays}")
    from workloads import WORKLOADS, close_open_regions
    atexit.register(close_open_regions)

    if args.smoke:
        failed = False
        for name in names:
            t0 = time.perf_counter()
            outcome = WORKLOADS[name].run(
                args.seed, seconds / SMOKE_DIVISOR, smoke=True
            )
            verdict = "ok" if outcome.failed == 0 else "FAILED"
            failed = failed or outcome.failed > 0
            print(
                f"{name:<18} {verdict}: {outcome.failed} of {outcome.attempted} "
                f"operations failed ({time.perf_counter() - t0:.1f} s)"
            )
        return 1 if failed else 0

    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")

    if args.check_noise or args.repeat:
        print("host: " + json.dumps(fingerprint()))
        repeat = args.repeat or 5
        if args.check_noise:
            return 0 if check_noise(spec, args.workload, args.seed, repeat, seconds) else 1
        values = repeat_set(
            args.workload, [args.seed + i for i in range(repeat)], seconds
        )
        print_summary(spec, args.workload, values)
        return 0

    spans_path = None
    if traced:
        spans_path = args.spans or OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
    run = run_once(spec, args.workload, args.seed, seconds, traced, spans_path)
    print(f"{args.workload} seed={args.seed} seconds={seconds:g} "
          f"{'traced' if traced else 'untraced'}")
    for line in run["text"]:
        print(line)
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(run["result"], indent=2) + "\n")
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
