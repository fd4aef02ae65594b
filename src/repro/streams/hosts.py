"""Host capacity model.

The paper's clusters mix two machine types:

* "slow" hosts — 2x Intel Xeon X5365 (8 cores total, no useful SMT);
* "fast" hosts — 2x Intel Xeon X5687 (8 cores, 2-way SMT, 16 hardware
  threads, and a faster core).

We model a host as ``cores`` physical cores with ``smt_per_core`` hardware
threads each. A thread runs integer multiplies at ``thread_speed``
multiplies per second; the extra SMT threads contribute a configurable
``smt_efficiency`` fraction of a full thread (the paper observes that for
its pure integer-multiply workload the fast host's throughput keeps rising
from 8 to 16 PEs, i.e. SMT is effective; default 1.0 reproduces that).

Capacity is shared equally among the PEs *placed* on the host. Placing more
PEs than hardware threads oversubscribes the host: total capacity stops
growing and per-PE speed falls — this is what degrades ``All-Slow`` beyond
8 PEs in Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.util.validation import check_fraction, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.streams.pe import WorkerPE


class Host:
    """A compute node that PEs are placed on."""

    def __init__(
        self,
        name: str,
        *,
        cores: int = 8,
        smt_per_core: int = 1,
        thread_speed: float = 1e6,
        smt_efficiency: float = 1.0,
    ) -> None:
        check_positive("cores", cores)
        check_positive("smt_per_core", smt_per_core)
        check_positive("thread_speed", thread_speed)
        check_fraction("smt_efficiency", smt_efficiency)
        self.name = name
        self.cores = int(cores)
        self.smt_per_core = int(smt_per_core)
        self.thread_speed = float(thread_speed)
        self.smt_efficiency = float(smt_efficiency)
        self._pes: list["WorkerPE"] = []
        self._per_pe_speed: float | None = None

    @property
    def placed(self) -> int:
        """Number of PEs placed on this host."""
        return len(self._pes)

    def place(self, pe: "WorkerPE") -> None:
        """Register a PE as running on this host."""
        self._pes.append(pe)
        self._per_pe_speed = None

    def total_capacity(self, n_active: int | None = None) -> float:
        """Aggregate processing capacity, in multiplies per second.

        The first ``cores`` PEs each get a full thread; the next
        ``cores * (smt_per_core - 1)`` get SMT threads discounted by
        ``smt_efficiency``; PEs beyond :attr:`threads` add nothing
        (oversubscription).
        """
        n = self.placed if n_active is None else n_active
        if n <= 0:
            return 0.0
        full_threads = min(n, self.cores)
        smt_threads = min(max(0, n - self.cores), self.cores * (self.smt_per_core - 1))
        return (full_threads + smt_threads * self.smt_efficiency) * self.thread_speed

    def per_pe_speed(self) -> float:
        """Multiplies per second available to each placed PE.

        Capacity is split evenly: with the paper's saturating workload all
        placed PEs are runnable essentially all the time, so the fair-share
        approximation is accurate and keeps the simulator deterministic.

        Cached between placements — every tuple's service time divides by
        this value, so recomputing it per tuple showed up in profiles.
        """
        speed = self._per_pe_speed
        if speed is not None:
            return speed
        n = len(self._pes)
        if n == 0:
            raise RuntimeError(f"host {self.name!r} has no PEs placed")
        speed = self.total_capacity(n) / n
        self._per_pe_speed = speed
        return speed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Host({self.name!r}, cores={self.cores}, smt={self.smt_per_core}, "
            f"thread_speed={self.thread_speed:g}, placed={self.placed})"
        )


@dataclass(slots=True)
class Placement:
    """Assignment of worker PEs to hosts.

    ``host_of[i]`` is the host for worker ``i``. The paper places one PE
    per core and keeps splitter and merger on a separate machine; the
    helper constructors encode the placements its experiments use.
    """

    host_of: list[Host] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.host_of)

    def __getitem__(self, idx: int) -> Host:
        return self.host_of[idx]

    @classmethod
    def single_host(cls, n_workers: int, host: Host) -> "Placement":
        """All workers on one host (``All-Fast`` / ``All-Slow`` in Fig. 11)."""
        return cls(host_of=[host] * n_workers)

    def hosts(self) -> list[Host]:
        """Distinct hosts, in first-use order."""
        seen: list[Host] = []
        for host in self.host_of:
            if host not in seen:
                seen.append(host)
        return seen
