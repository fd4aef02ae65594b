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

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved lazily (PEP 562): the worker
#: executable imports :mod:`repro.net.framing` on every start and must
#: not pay for the simulator's transport it never uses.
_EXPORTS = {
    "BlockingCounter": "repro.net.blocking",
    "BoundedBuffer": "repro.net.buffers",
    "BufferFullError": "repro.net.buffers",
    "SimulatedConnection": "repro.net.connection",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
