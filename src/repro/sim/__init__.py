"""Discrete-event simulation substrate.

The paper evaluates on a real IBM Streams cluster. We do not have that
cluster (or IBM Streams), so the primary experiment substrate is a
deterministic discrete-event simulator of the dataplane. The engine here is
generic; the streaming-specific entities live in :mod:`repro.net` and
:mod:`repro.streams`.

Two models are provided:

* :class:`Simulator` — the event-driven engine used by every paper-figure
  experiment. Backpressure, drafting, and the ordered merge are emergent.
* :mod:`repro.sim.fluid` — a steady-state fluid approximation used for fast
  controller unit tests and ablations.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event

__all__ = ["Simulator", "Event"]
