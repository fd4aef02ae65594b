"""Periodic human-readable console reporter.

Installed by the runner when ``ObservabilityConfig.console_interval``
is positive; fires on the *simulation* clock, so a report line
describes the run at a deterministic sim time even though it prints
during wall-clock execution. One line per tick:

    [obs t=40.0s] round 79 adopted w=[0.31 0.23 0.23 0.23] | emitted=61440 pending=12 blocked=3 spans=41

The reporter never mutates recorder state, so enabling it changes the
simulator's event stream (its own timer) but not any recorded metric.
"""

from __future__ import annotations

from collections.abc import Callable

from .hub import ObservabilityHub


def _fmt_weights(weights: list[float]) -> str:
    return "[" + " ".join(f"{w:.2f}" for w in weights) + "]"


class ConsoleReporter:
    """Renders one status line per tick from the hub's recorders."""

    def __init__(
        self,
        hub: ObservabilityHub,
        out: Callable[[str], None] = print,
    ) -> None:
        self.hub = hub
        self.out = out

    def line(self) -> str:
        """Compose the current status line (pure; no side effects)."""
        hub = self.hub
        now = hub.now
        record = hub.audit.last()
        if record is None:
            decision = "priming"
        else:
            decision = f"round {record.round} {record.outcome}"
            if record.new_weights:
                decision += f" w={_fmt_weights(record.new_weights)}"
        parts = [f"[obs t={now:.1f}s] {decision}"]
        stats = []
        emitted = hub.registry.read("merger_tuples_emitted_total")
        if emitted:
            stats.append(f"emitted={emitted:.0f}")
        pending = hub.registry.read("merger_pending_tuples")
        if pending:
            stats.append(f"pending={pending:.0f}")
        blocked = hub.registry.read("splitter_block_events_total")
        if blocked:
            stats.append(f"blocked={blocked:.0f}")
        if len(hub.tracer):
            stats.append(f"spans={len(hub.tracer)}")
        if stats:
            parts.append(" | " + " ".join(stats))
        return "".join(parts)

    def tick(self) -> None:
        """Emit one report line (scheduled via ``sim.call_every``)."""
        self.out(self.line())
