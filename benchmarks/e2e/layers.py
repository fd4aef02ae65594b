"""The traced run: per-layer metrics for one workload.

A traced run spends half its time on the workload as shipped (the
reference its own end-to-end number is compared against) and half with
each layer's public functions wrapped from here (:mod:`tracing`). After
the run it times the layers that cannot be seen from the parent process
by calling their public functions directly: the frame codec on the
workload's own tuples, the worker loop fed those frames over a
harness-owned socket, and the control-plane kernels on state snapshotted
from the workload's balancer. Nothing here runs during an untraced run.
"""

from __future__ import annotations

import copy
import signal
import socket
import statistics
import threading
import time

from stats import worsening
from tracing import Tracer
from workloads import Outcome, Workload

_clock = time.perf_counter

#: Balancer snapshots kept per traced run (one every 50 rounds).
MAX_SNAPSHOTS = 6
SNAPSHOT_EVERY = 50
#: Per-layer names that are read from the untraced half of a traced run.
UNTRACED = (
    "emit_latency_p99_ms",
    "bench.generator.late_fraction",
    "bench.generator.max_lag_ms",
    "bench.host_factor",
)


def run_traced(workload: Workload, seed: int, seconds: float, spans_path):
    """``(merged outcome, per-layer values, spans written)``."""
    tracer = Tracer()
    half = seconds / 2.0
    family = workload.family
    variants = None
    if workload.name == "sim-full":
        # Observability's cost is its own A/B, interleaved repetition by
        # repetition and measured with tracing off.
        import dataclasses

        variants = {
            "obs-off": lambda c: dataclasses.replace(
                c, region=dataclasses.replace(c.region, observability=False)
            )
        }
    base = (
        workload.run(seed, half, variants=variants) if variants
        else workload.run(seed, half)
    )

    snapshots: list = []
    install = {"proc": _wrap_proc, "sim": _wrap_control, "control": _wrap_control}
    install[family](tracer, snapshots)
    if family != "proc":
        from repro.util.perf import COUNTERS, reset_counters

        reset_counters()
    try:
        traced = workload.run(seed, half, tracer)
    finally:
        tracer.restore()

    values = dict(traced.layers)
    # What describes the workload rather than a layer comes from the
    # untraced half.
    values.update({k: v for k, v in base.layers.items() if k in UNTRACED})
    if family == "proc":
        values.update(_proc_layers(tracer, traced, workload.shape.batch_size))
    else:
        rounds = tracer.calls("core.balancer.update")
        values.update(_control_layers(tracer, snapshots))
        if rounds:
            values["core.solver_calls_per_round"] = COUNTERS.solver_calls / rounds
            values["core.fits_per_round"] = COUNTERS.fits / rounds
            values["core.table_builds_per_round"] = COUNTERS.table_builds / rounds
    if variants:
        on = statistics.median(base.detail["rates"][""])
        off = statistics.median(base.detail["rates"]["obs-off"])
        # Wall time per tuple is 1/rate: (on - off) / off in time terms.
        values["obs.overhead_fraction"] = off / on - 1.0

    metric, better = workload.primary
    values["bench.trace_overhead_fraction"] = worsening(
        base.e2e[metric], traced.e2e[metric], better
    )
    attempted = base.attempted + traced.attempted
    failed = base.failed + traced.failed
    values["failed_fraction"] = failed / attempted
    written = tracer.write_jsonl(spans_path)
    merged = Outcome(
        attempted=attempted,
        failed=failed,
        window_s=base.window_s + traced.window_s,
        e2e=base.e2e,
        notes=base.notes + [
            f"untraced {metric} {base.e2e[metric]:.6g}, "
            f"traced {traced.e2e[metric]:.6g}"
        ],
    )
    return merged, values, written


# ------------------------------------------------------------- process side


def _wrap_proc(tracer: Tracer, _snapshots: list) -> None:
    from repro.net import framing
    from repro.proc.region import ProcessRegion

    for method in ("start", "wait_ready", "drain", "close"):
        tracer.wrap(ProcessRegion, method, f"proc.region.{method}")
    tracer.wrap(
        ProcessRegion, "submit", "proc.region.submit",
        hot=True, rid_of=lambda seq: seq,
    )
    for function in ("encode_data", "encode_data_batch"):
        tracer.wrap(framing, function, f"net.framing.{function}", hot=True)
    tracer.wrap(framing.MessageAssembler, "feed", "net.framing.feed", hot=True)
    for method in ("result", "result_batch"):
        tracer.wrap(framing.Message, method, f"net.framing.{method}", hot=True)


def _proc_layers(tracer: Tracer, traced: Outcome, batch_size: int) -> dict:
    submitted = traced.detail["submitted"]
    encode = (
        tracer.busy_seconds("net.framing.encode_data")
        + tracer.busy_seconds("net.framing.encode_data_batch")
    )
    decode = (
        tracer.busy_seconds("net.framing.feed")
        + tracer.busy_seconds("net.framing.result")
        + tracer.busy_seconds("net.framing.result_batch")
    )
    # submit's self time already excludes the framing spans under it;
    # time spent blocked on a full window is waiting, not dispatch work.
    dispatch = (
        tracer.self_seconds("proc.region.submit")
        - traced.layers["proc.region.blocked_s"]
    )
    values = {
        "proc.region.submit_self_us": max(0.0, dispatch) / submitted * 1e6,
        "net.framing.parent_encode_s": encode,
        "net.framing.parent_decode_s": decode,
    }
    sample = traced.detail["sample"]
    values.update(framing_probe(sample, batch_size))
    # The worker loop's own cost: service time zeroed, so what is left
    # is receive, decode, bookkeeping, encode and send.
    idle = [(seq, 0.0, body) for seq, _, body in sample]
    loop_b1, per_frame_b1 = worker_probe(idle, 1)
    loop_b16, per_frame_b16 = worker_probe(idle, 16)
    values["proc.worker.loop_us_per_tuple_b1"] = loop_b1
    values["proc.worker.loop_us_per_tuple_b16"] = loop_b16
    # How the worker acks on this workload's own wire.
    values["proc.worker.results_per_frame"] = (
        per_frame_b1 if batch_size == 1 else per_frame_b16
    )
    return values


def _frames(sample: list, batch_size: int, *, results: bool = False) -> list[bytes]:
    from repro.net import framing

    if batch_size == 1:
        one = framing.encode_result if results else framing.encode_data
        return [one(*entry) for entry in sample]
    many = framing.encode_result_batch if results else framing.encode_data_batch
    return [
        many(sample[i:i + batch_size])
        for i in range(0, len(sample), batch_size)
    ]


def _decode(blob: bytes, decode_one) -> int:
    """Reassemble and decode ``blob`` the way a receiver does; count tuples."""
    from repro.net import framing

    assembler = framing.MessageAssembler()
    tuples = 0
    for offset in range(0, len(blob), 65536):
        for message in assembler.feed(blob[offset:offset + 65536]):
            decoded = decode_one(message)
            tuples += len(decoded) if isinstance(decoded, list) else 1
    return tuples


def framing_probe(sample: list, batch_size: int, repeats: int = 3) -> dict:
    """Codec cost per tuple on the workload's own tuples, in-process."""
    from repro.net import framing

    batched = batch_size > 1
    data_decoder = framing.Message.data_batch if batched else framing.Message.data
    result_decoder = (
        framing.Message.result_batch if batched else framing.Message.result
    )
    n = len(sample)
    best = {"enc": [], "dec": [], "renc": [], "rdec": []}
    for _ in range(repeats):
        t0 = _clock()
        frames = _frames(sample, batch_size)
        best["enc"].append(_clock() - t0)
        blob = b"".join(frames)
        t0 = _clock()
        assert _decode(blob, data_decoder) == n
        best["dec"].append(_clock() - t0)
        t0 = _clock()
        rframes = _frames(sample, batch_size, results=True)
        best["renc"].append(_clock() - t0)
        rblob = b"".join(rframes)
        t0 = _clock()
        assert _decode(rblob, result_decoder) == n
        best["rdec"].append(_clock() - t0)
    per_tuple = {k: statistics.median(v) / n * 1e6 for k, v in best.items()}
    return {
        "net.framing.encode_us_per_tuple": per_tuple["enc"],
        "net.framing.decode_us_per_tuple": per_tuple["dec"],
        "net.framing.result_encode_us_per_tuple": per_tuple["renc"],
        "net.framing.result_decode_us_per_tuple": per_tuple["rdec"],
        "net.framing.bytes_per_tuple": len(blob) / n,
    }


def worker_probe(sample: list, batch_size: int) -> tuple[float, float]:
    """``WorkerMain`` in this process against a socket the harness owns.

    Every frame is on the wire before the worker asks for it, so the
    loop never waits for input. Returns ``(loop us per tuple, results
    per result frame)``. Must run on the main thread: the worker
    installs a SIGTERM handler.
    """
    from repro.net import framing
    from repro.proc.worker import WorkerMain

    blob = b"".join(_frames(sample, batch_size)) + framing.encode_eos()
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    received: list[bytes] = []

    def feed() -> None:
        conn, _ = listener.accept()
        with conn:
            # Written from a second thread: the worker answers while the
            # data is still going out, and both directions can fill.
            writer = threading.Thread(target=conn.sendall, args=(blob,))
            writer.start()
            while chunk := conn.recv(1 << 20):
                received.append(chunk)
            writer.join(timeout=30.0)

    feeder = threading.Thread(target=feed, name="bench-worker-feed")
    feeder.start()
    previous = signal.getsignal(signal.SIGTERM)
    try:
        worker = WorkerMain(
            "127.0.0.1", listener.getsockname()[1], 0, 0, mode="sleep"
        )
        t0 = _clock()
        worker.run()
        elapsed = _clock() - t0
    finally:
        signal.signal(signal.SIGTERM, previous)
        feeder.join(timeout=30.0)
        listener.close()
    frames = results = 0
    for message in framing.MessageAssembler().feed(b"".join(received)):
        if message.type == framing.MSG_RESULT:
            frames, results = frames + 1, results + 1
        elif message.type == framing.MSG_RESULT_BATCH:
            frames, results = frames + 1, results + len(message.result_batch())
    if results != len(sample):
        raise RuntimeError(
            f"worker probe answered {results} of {len(sample)} tuples"
        )
    return elapsed / len(sample) * 1e6, results / frames


# ------------------------------------------------------------- control side


def _wrap_control(tracer: Tracer, snapshots: list) -> None:
    from repro.core.balancer import LoadBalancer

    def snapshot(balancer, *_args, **_kwargs) -> None:
        if (
            balancer.rounds
            and balancer.rounds % SNAPSHOT_EVERY == 0
            and len(snapshots) < MAX_SNAPSHOTS
        ):
            snapshots.append((
                copy.deepcopy(balancer.functions),
                balancer.weights,
                balancer.config,
            ))

    tracer.wrap(LoadBalancer, "update", "core.balancer.update", after=snapshot)


def _time(function, repeats: int = 3) -> float:
    """Median wall seconds of ``function()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        t0 = _clock()
        function()
        samples.append(_clock() - t0)
    return statistics.median(samples)


def _control_layers(tracer: Tracer, snapshots: list) -> dict:
    """Round timings from the spans; kernel timings from the snapshots."""
    from repro.core.clustering import cluster_functions
    from repro.core.constraints import WeightConstraints
    from repro.core.monotone import monotone_regression
    from repro.core.policies import WeightedPolicy
    from repro.core.rap import solve_minimax_binary_search, solve_minimax_fox

    rounds = sorted(
        (end - start) * 1e3
        for _, name, start, end, *_rest in tracer.spans
        if name == "core.balancer.update"
    )
    values: dict[str, float] = {}
    if rounds:
        values["core.balancer.update_ms_p50"] = statistics.median(rounds)
        values["core.balancer.update_ms_max"] = rounds[-1]
    if not snapshots:
        return values
    timings: dict[str, list[float]] = {}

    def note(name: str, seconds: float) -> None:
        timings.setdefault(name, []).append(seconds)

    for functions, weights, config in snapshots:
        resolution = config.resolution
        constraints = WeightConstraints.incremental(
            weights, resolution,
            max_decrease=config.max_decrease,
            max_increase=config.max_increase,
            floor=config.weight_floor,
        )
        tables = [fn.table() for fn in functions]
        note("core.rap.fox_solve_ms", 1e3 * _time(
            lambda: solve_minimax_fox(tables, resolution, constraints)
        ))
        note("core.rap.binary_search_solve_ms", 1e3 * _time(
            lambda: solve_minimax_binary_search(tables, resolution, constraints)
        ))
        if len(functions) > 1:
            note("core.clustering.cluster_ms", 1e3 * _time(
                lambda: cluster_functions(
                    functions, config.cluster_threshold, delta=config.delta
                )
            ))

        def refit_all() -> None:
            # One control round's model work: fold a sample in at the
            # current weight, then rebuild the fitted table.
            for fn, weight in zip(functions, weights):
                if weight:
                    fn.observe(weight, fn.value(weight))
                    fn.table()

        note("core.rate_function.observe_refit_us",
             1e6 * _time(refit_all) / len(functions))
        raw = [
            [fn.raw_value(w) for w in fn.observed_weights()] for fn in functions
        ]
        note("core.monotone.pava_us", 1e6 * _time(
            lambda: [monotone_regression(values_) for values_ in raw]
        ) / len(functions))
        policy = WeightedPolicy(weights)
        note("core.policies.next_connection_us", 1e6 * _time(
            lambda: [policy.next_connection() for _ in range(1000)]
        ) / 1000)
        note("core.policies.allocate_batch_us", 1e6 * _time(
            lambda: [policy.allocate_batch(16) for _ in range(1000)]
        ) / 1000)
    values.update({name: statistics.median(v) for name, v in timings.items()})
    return values
