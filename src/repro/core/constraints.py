"""Per-connection allocation weight bounds (the ``m_j <= w_j <= M_j`` of
Section 5.2).

The paper applies bounds "typically incrementally from the *current*
weights during each problem instance" — i.e. they rate-limit how far a
weight can move per control round. :meth:`WeightConstraints.incremental`
builds exactly that; :meth:`WeightConstraints.unbounded` allows the full
``[0, R]`` range.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(slots=True, frozen=True)
class WeightConstraints:
    """Lower and upper allocation-weight bounds per connection."""

    minima: tuple[int, ...]
    maxima: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.minima) != len(self.maxima):
            raise ValueError(
                f"minima ({len(self.minima)}) and maxima ({len(self.maxima)}) "
                "must have the same length"
            )
        for j, (lo, hi) in enumerate(zip(self.minima, self.maxima)):
            if lo < 0:
                raise ValueError(f"minima[{j}] must be non-negative, got {lo}")
            if hi < lo:
                raise ValueError(
                    f"maxima[{j}]={hi} is below minima[{j}]={lo}"
                )

    def __len__(self) -> int:
        return len(self.minima)

    @classmethod
    def unbounded(cls, n_connections: int, resolution: int) -> "WeightConstraints":
        """No bounds beyond the physical ``[0, R]`` range."""
        if n_connections <= 0:
            raise ValueError("need at least one connection")
        return cls(
            minima=(0,) * n_connections,
            maxima=(resolution,) * n_connections,
        )

    @classmethod
    def incremental(
        cls,
        current: Sequence[int],
        resolution: int,
        *,
        max_decrease: int | None = None,
        max_increase: int | None = None,
        floor: int = 0,
    ) -> "WeightConstraints":
        """Bounds that limit per-round movement from ``current`` weights.

        ``max_decrease`` / ``max_increase`` are in weight units (``None``
        means unlimited in that direction). ``floor`` imposes a global
        minimum weight (e.g. to keep every connection minimally probed).
        """
        if floor < 0:
            raise ValueError(f"floor must be non-negative, got {floor}")
        minima = []
        maxima = []
        for w in current:
            lo = floor if max_decrease is None else max(floor, w - max_decrease)
            hi = resolution if max_increase is None else min(resolution, w + max_increase)
            minima.append(min(lo, hi))
            maxima.append(hi)
        return cls(minima=tuple(minima), maxima=tuple(maxima))

    def feasible(self, resolution: int) -> bool:
        """Whether some allocation summing to ``resolution`` fits the bounds."""
        return sum(self.minima) <= resolution <= sum(self.maxima)
