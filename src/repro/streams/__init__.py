"""Streaming runtime substrate (the simulated IBM Streams dataplane).

The paper's system executes SPL applications as graphs of processing
elements (PEs) connected by tuple streams. This package models the part of
that runtime the paper evaluates: an ordered **data-parallel region** —

    source -> splitter == N connections ==> worker PEs ==> ordered merger -> sink

with a single-threaded splitter, bounded per-connection buffers
(:mod:`repro.net`), stateless workers whose service time follows an
integer-multiply cost model, and a merger that restores sequential
semantics. Backpressure and drafting are emergent properties of this model,
not scripted behaviours; tests assert they emerge.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved lazily (PEP 562): the process
#: dataplane needs one exception class from this package
#: (:class:`~repro.streams.splitter.RegionStalledError`) and must not pay
#: for the simulator, the application layer and the control plane to get it.
_EXPORTS = {
    "Application": "repro.streams.application",
    "ParallelRegionHandle": "repro.streams.application",
    "GraphError": "repro.streams.graph",
    "StreamGraph": "repro.streams.graph",
    "Host": "repro.streams.hosts",
    "Placement": "repro.streams.hosts",
    "OrderedMerger": "repro.streams.merger",
    "UnorderedMerger": "repro.streams.merger",
    "Filter": "repro.streams.operators",
    "Functor": "repro.streams.operators",
    "Operator": "repro.streams.operators",
    "PassThrough": "repro.streams.operators",
    "SinkOp": "repro.streams.operators",
    "SourceOp": "repro.streams.operators",
    "WorkerPE": "repro.streams.pe",
    "ParallelRegion": "repro.streams.region",
    "RegionParams": "repro.streams.region",
    "FiniteSource": "repro.streams.sources",
    "InfiniteSource": "repro.streams.sources",
    "RatedSource": "repro.streams.sources",
    "TupleSource": "repro.streams.sources",
    "RegionStalledError": "repro.streams.splitter",
    "Splitter": "repro.streams.splitter",
    "StreamTuple": "repro.streams.tuples",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
