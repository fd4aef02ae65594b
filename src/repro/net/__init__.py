"""Data transport substrate.

The paper's data transport layer is TCP: one connection from the splitter to
each parallel worker PE, with a bounded send buffer on the splitter's host
and a bounded receive buffer on the worker's host. When both are full, a
send blocks — and the transport layer records for how long (Section 3).

Two implementations share that contract, and :class:`BlockingCounter`:

* :class:`SimulatedConnection` — deterministic, used by every experiment;
* the process region's frame writer (:func:`repro.proc.region.send_measured`)
  — real TCP to real worker processes, driven as the paper describes
  (non-blocking send, then a timed wait, measured), framed by
  :mod:`repro.net.framing`.
"""

from repro.net.blocking import BlockingCounter
from repro.net.buffers import BoundedBuffer, BufferFullError
from repro.net.connection import SimulatedConnection

__all__ = [
    "BlockingCounter",
    "BoundedBuffer",
    "BufferFullError",
    "SimulatedConnection",
]
