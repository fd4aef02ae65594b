"""Fault injection and failure recovery for the parallel region.

The paper assumes workers slow down but never die: the splitter blocks
forever on a stalled connection and the ordered merger deadlocks on any
lost sequence number. This package supplies what a production region
needs to survive exactly that:

* :mod:`repro.faults.schedule` — a :class:`FaultSchedule` (modeled on
  :class:`~repro.workloads.external_load.LoadSchedule`) of timed and
  progress-triggered faults: PE crashes, delayed restarts, connection
  stalls/flaps, and offered-rate bursts. Its one action list
  (:meth:`FaultSchedule.actions`) arms both the simulator and the
  process backend's fault driver, and
  :func:`~repro.faults.schedule.progress_actions` lists its
  count-triggered crashes with a load schedule's count-triggered
  changes;
* :mod:`repro.faults.injector` — the :class:`FaultInjector` that applies
  those faults to a live region and keeps the fault log;
* :mod:`repro.faults.recovery` — the :class:`RecoveryCoordinator`: a
  liveness monitor (progress staleness + saturated blocking) that fails
  dead channels over, quarantines them in the balancer, replays or skips
  their in-flight tuples, and reintegrates them on recovery. Its
  :class:`RecoveryLedger` keeps the episodes, ttq/ttr and their spans;
  the process supervisor holds the same ledger.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved lazily (PEP 562): the process
#: supervisor needs only :mod:`repro.faults.recovery` (its ledger)
#: and must not load the injector (and with it the simulated dataplane).
_EXPORTS = {
    "FaultInjector": "repro.faults.injector",
    "FaultRecord": "repro.faults.injector",
    "ChannelRecovery": "repro.faults.recovery",
    "RecoveryConfig": "repro.faults.recovery",
    "RecoveryCoordinator": "repro.faults.recovery",
    "RecoveryLedger": "repro.faults.recovery",
    "CountCrashEvent": "repro.faults.schedule",
    "CrashEvent": "repro.faults.schedule",
    "FaultSchedule": "repro.faults.schedule",
    "StallEvent": "repro.faults.schedule",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
