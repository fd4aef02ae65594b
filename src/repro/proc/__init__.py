"""The multi-process dataplane: real worker processes over real sockets.

The simulator (:mod:`repro.sim`) is the experiment workhorse; this
package is the *system*: the splitter and the ordered merger run in the
parent process, every worker is a separate OS process reached over a
framed TCP connection (:mod:`repro.net.framing`), and a
:class:`~repro.proc.supervisor.Supervisor` owns the worker lifecycle —
spawn, heartbeat liveness, crash detection, capped-jittered-backoff
restarts with a restart-budget circuit breaker, and quarantine.

Ordered exactly-once delivery holds across real ``SIGKILL``: every
in-flight tuple sits in a bounded per-worker retransmit buffer until its
result comes back, a dead worker's unacknowledged tuples are replayed to
survivors, and the merger deduplicates by sequence number while emitting
the gap-free ordered stream.

Entry points:

* :class:`~repro.proc.region.ProcessRegion` — the library API;
* ``python -m repro.proc.worker`` — the worker executable (spawned by
  the supervisor, rarely run by hand);
* :class:`~repro.proc.faults.RealFaultDriver` — arms a declarative
  :class:`~repro.faults.schedule.FaultSchedule` as real signals
  (``SIGKILL``/``SIGSTOP``/``SIGCONT``) against live worker processes;
* ``--backend=process`` on the CLI / ``RegionParams(backend="process")``
  via :func:`repro.experiments.process_backend.run_process_experiment`.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved lazily (PEP 562): the worker
#: executable imports this package on startup and must not pay for the
#: parent-side region/supervisor machinery it never uses.
_EXPORTS = {
    "ProcessRegion": "repro.proc.region",
    "ProcessRunStats": "repro.proc.region",
    "RealFaultDriver": "repro.proc.faults",
    "Supervisor": "repro.proc.supervisor",
    "SupervisorConfig": "repro.proc.supervisor",
    "WorkerSlot": "repro.proc.supervisor",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
