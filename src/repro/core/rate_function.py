"""The per-connection blocking rate function ``F_j`` (Section 5.1).

``F_j(w)`` predicts the blocking rate connection ``j`` would experience if
the splitter gave it allocation weight ``w``, where ``w`` ranges over the
``R + 1`` discrete values ``0 .. R`` in units of ``1/R`` of the total
traffic (the paper uses ``R = 1000``, i.e. 0.1% granularity).

Construction follows the paper's three steps exactly:

1. **Smooth new data into the raw data.** Data arrives sparsely — usually a
   single new (weight, rate) sample for a single connection per collection
   interval, at that connection's *current* weight. Each observed weight
   keeps an exponentially smoothed value. The point ``(0, 0)`` is assumed.
2. **Monotone regression.** The raw points are forced non-decreasing with
   pool-adjacent-violators (:mod:`repro.core.monotone`), weighted by how
   much data each point has accumulated.
3. **Interpolation / extrapolation.** Missing weights between raw points
   are filled by linear interpolation; weights beyond the last raw point by
   linear extrapolation along the final segment's slope.

The exploration mechanism of Section 5.4 is :meth:`decay_above`: every
control round, predicted blocking for all weights above the connection's
current weight is reduced by a fixed fraction (the paper chose 10%), so
stale pessimism fades and the optimizer is eventually induced to re-explore.

Raw data and caching
--------------------

The raw data is three parallel columns sorted by weight: ``_xs`` (the
observed weights, ``0`` first), ``_vals`` (each weight's smoothed value)
and ``_counts`` (its observation count, capped at ``max_count``). A fit is
then one PAVA pass over ``_vals`` weighted by ``_counts``
(:func:`repro.core.monotone.pava`), with no sort and no lookup.
:meth:`observe` finds its weight by bisection and inserts a new one in
place; :meth:`decay_above` starts at the bisection index; :meth:`pooled`
merges its members' columns.

The monotone fit and the full fitted table ``[F(0) .. F(R)]`` are cached
and invalidated together by every mutation (:meth:`observe`,
:meth:`decay_above`, :meth:`decay_all`, :meth:`forget`). The fit's
breakpoints are ``_xs`` itself, so a fit read from the cache is valid
only until the next mutation. The table is built only where a caller
asks for it (:meth:`table`, :meth:`values`) — worth it for one that reads
most of the ``R + 1`` weights. The control round does not: the solver
and the clustering read a few weights per function through
:meth:`value`, which reads the table when one exists and otherwise
evaluates the fit's breakpoints; :meth:`knee_weight` always works from
the breakpoints. The table is built segment-by-segment with the exact
same arithmetic as the point-wise evaluation, so the two are
bit-identical.

Every evaluation is non-decreasing in the weight, fractional weights
included — the fitted breakpoints are, and each floating-point step of
the interpolation is monotone — which is what lets the solver bisect for
the end of a run (:func:`repro.core.rap.solve_minimax_fox`).
"""

from __future__ import annotations

import bisect

from repro.core.monotone import pava
from repro.util.perf import COUNTERS
from repro.util.validation import check_fraction, check_non_negative, check_positive

#: The paper's resolution: 1000 units of 0.1% each.
DEFAULT_RESOLUTION = 1000


class BlockingRateFunction:
    """One connection's predicted blocking rate versus allocation weight."""

    __slots__ = (
        "resolution",
        "smoothing_alpha",
        "max_count",
        "_xs",
        "_vals",
        "_counts",
        "_fit_cache",
        "_table",
    )

    def __init__(
        self,
        resolution: int = DEFAULT_RESOLUTION,
        *,
        smoothing_alpha: float = 0.5,
        max_count: int = 64,
    ) -> None:
        check_positive("resolution", resolution)
        check_fraction("smoothing_alpha", smoothing_alpha)
        if smoothing_alpha == 0.0:
            raise ValueError("smoothing_alpha must be positive")
        check_positive("max_count", max_count)
        self.resolution = int(resolution)
        self.smoothing_alpha = float(smoothing_alpha)
        self.max_count = int(max_count)
        # Raw smoothed data as columns sorted by weight. (0, 0) is assumed
        # and pinned at index 0.
        self._xs: list[int] = [0]
        self._vals: list[float] = [0.0]
        self._counts: list[int] = [1]
        self._fit_cache: tuple[list[int], list[float], float] | None = None
        self._table: list[float] | None = None

    # ------------------------------------------------------------- updates

    def _invalidate(self) -> None:
        self._fit_cache = None
        self._table = None

    def observe(self, weight: int, rate: float) -> None:
        """Smooth a new blocking-rate sample at ``weight`` into the data.

        Observations at weight 0 are ignored: a connection receiving no
        tuples cannot block, and the paper pins ``(0, 0)``. (A nonzero
        rate can still be *measured* at weight 0 while previously queued
        tuples drain; it is not predictive.)
        """
        self._check_weight(weight)
        check_non_negative("rate", rate)
        if weight == 0:
            return
        xs = self._xs
        i = bisect.bisect_left(xs, weight)
        if i < len(xs) and xs[i] == weight:
            value = self._vals[i]
            self._vals[i] = value + self.smoothing_alpha * (float(rate) - value)
            self._counts[i] = min(self._counts[i] + 1, self.max_count)
        else:
            xs.insert(i, weight)
            self._vals.insert(i, float(rate))
            self._counts.insert(i, 1)
        self._invalidate()

    def decay_above(self, weight: int, fraction: float = 0.1) -> None:
        """Reduce predicted blocking above ``weight`` by ``fraction``.

        The Section 5.4 exploration mechanism: geometric decay of every raw
        point beyond the current allocation weight. Repeated rounds flatten
        the function there, so the minimax optimizer will eventually push
        weight back up and trigger fresh data collection.
        """
        self._check_weight(weight)
        check_fraction("fraction", fraction)
        if fraction == 0.0:
            return
        self._decay_from(bisect.bisect_right(self._xs, weight), 1.0 - fraction)

    def forget(self) -> None:
        """Drop all observations (topology change)."""
        self._xs, self._vals, self._counts = [0], [0.0], [1]
        self._invalidate()

    def decay_all(self, fraction: float) -> None:
        """Decay every raw point by ``fraction`` (recovery reintegration).

        When a quarantined channel rejoins the region its old blocking
        data is stale — the failure may have been a transient overload, a
        restart on different hardware, or a recovered network path. Unlike
        :meth:`decay_above` (which only erodes pessimism beyond the
        current weight), this shrinks the whole function toward zero so
        the minimax optimizer is induced to re-explore the channel, while
        ``fraction < 1`` keeps a prior that damps the initial allocation
        swing. ``fraction=1.0`` is equivalent to :meth:`forget` except
        that observation counts are retained.
        """
        check_fraction("fraction", fraction)
        if fraction == 0.0:
            return
        self._decay_from(1, 1.0 - fraction)

    def _decay_from(self, start: int, keep: float) -> None:
        """Scale every positive raw value from index ``start`` by ``keep``."""
        vals = self._vals
        decayed = False
        for i in range(start, len(vals)):
            value = vals[i]
            if value > 0.0:
                vals[i] = value * keep
                decayed = True
        if decayed:
            self._invalidate()

    @classmethod
    def pooled(
        cls, members: "list[BlockingRateFunction]"
    ) -> "BlockingRateFunction":
        """A new function incorporating all raw data of ``members``.

        This is the Section 5.3 cluster function: member connections are
        believed to perform alike, so their raw points share a domain and
        can be pooled directly — values at the same weight are combined by
        a count-weighted average. The pooled function "will also tend to
        be more robust, because it incorporates more data than is
        available to just a single channel".

        ``smoothing_alpha`` and ``max_count`` are copied verbatim from the
        first member (no re-validation — members already validated them).
        The members' columns are merged by weight: each weight's
        count-weighted mass is added up in member order and divided once,
        so pooling two members is exactly order-independent (float ``+``
        and ``*`` are commutative); counts clamp to ``max_count`` only at
        the end.
        """
        if not members:
            raise ValueError("need at least one member function")
        first = members[0]
        resolution = first.resolution
        if any(m.resolution != resolution for m in members):
            raise ValueError("member functions must share a resolution")
        pooled = cls.__new__(cls)
        pooled.resolution = resolution
        pooled.smoothing_alpha = first.smoothing_alpha
        pooled.max_count = first.max_count
        mass: dict[int, float] = {}
        counts: dict[int, int] = {}
        for member in members:
            rows = zip(member._xs, member._vals, member._counts)
            next(rows)  # the pinned (0, 0)
            for weight, value, count in rows:
                prior = counts.get(weight)
                if prior is None:
                    mass[weight] = value * count
                    counts[weight] = count
                else:
                    mass[weight] += value * count
                    counts[weight] = prior + count
        xs = sorted(counts)
        max_count = pooled.max_count
        pooled._xs = [0, *xs]
        pooled._vals = [0.0, *[mass[w] / counts[w] for w in xs]]
        pooled._counts = [
            1, *[c if c < max_count else max_count for c in map(counts.get, xs)]
        ]
        pooled._fit_cache = None
        pooled._table = None
        return pooled

    # ------------------------------------------------------------- queries

    def observed_weights(self) -> list[int]:
        """Weights with raw data, ascending (always includes 0)."""
        return list(self._xs)

    def raw_value(self, weight: int) -> float | None:
        """Smoothed raw observation at ``weight``, or ``None``."""
        xs = self._xs
        i = bisect.bisect_left(xs, weight)
        return self._vals[i] if i < len(xs) and xs[i] == weight else None

    def value(self, weight: float) -> float:
        """``F_j(weight)`` — fitted, monotone, interpolated/extrapolated.

        Accepts fractional weights (linear interpolation); used by the
        cluster-level functions, which evaluate at ``W / cluster_size``.
        An integer weight is read from the cached table when one exists;
        otherwise the fit's breakpoints are evaluated point-wise with the
        arithmetic of :meth:`_build_table`, so the result is the same
        double either way.
        """
        if not 0 <= weight <= self.resolution:
            raise ValueError(
                f"weight must be in [0, {self.resolution}], got {weight}"
            )
        table = self._table
        if table is not None:
            iw = int(weight)
            if iw == weight:
                return table[iw]
        xs, ys, slope = self._fit()
        last_x = xs[-1]
        if weight >= last_x:
            if slope == 0.0:
                return ys[-1]
            return ys[-1] + slope * (weight - last_x)
        # xs[0] == 0 <= weight < xs[-1]: a segment always brackets it.
        idx = bisect.bisect_right(xs, weight)
        x0, y0 = xs[idx - 1], ys[idx - 1]
        dy = ys[idx] - y0
        if dy == 0.0:
            return y0
        return y0 + dy * (weight - x0) / (xs[idx] - x0)

    def table(self) -> list[float]:
        """The cached fitted table ``[F(0), F(1), ..., F(R)]``.

        Returns the internal cache — treat it as read-only. ``table()[w]``
        is the same double as ``value(w)``.
        """
        table = self._table
        if table is None:
            table = self._build_table()
        return table

    def values(self) -> list[float]:
        """A copy of the full fitted table ``[F(0), F(1), ..., F(R)]``."""
        return list(self.table())

    def knee_weight(self, threshold: float = 0.0) -> int:
        """The service-rate knee ``w_{j,s}`` (Section 5.3).

        The largest weight whose predicted blocking is at most
        ``threshold`` — "until the load on channel j is equal to its
        service rate, it experiences no blocking". Returns ``resolution``
        when the function never exceeds the threshold (no blocking seen).
        """
        # Read off the fit's breakpoints, not the table: the fitted values
        # are monotone non-decreasing, so the knee lies on the ramp that
        # leaves the last breakpoint at or below the threshold, and that
        # ramp is bisected with the table's own arithmetic — the index
        # ``bisect_right(table(), threshold) - 1`` without the table.
        xs, ys, slope = self._fit()
        idx = bisect.bisect_right(ys, threshold) - 1
        if idx < 0:
            return 0
        x0, y0 = xs[idx], ys[idx]
        if idx + 1 < len(xs):
            # ys[idx + 1] > threshold >= y0, so this ramp is sloped.
            dy, dx, hi = ys[idx + 1] - y0, xs[idx + 1] - x0, xs[idx + 1] - 1
        elif slope == 0.0:
            return self.resolution
        else:
            # The extrapolated tail, as a ramp of run 1 (x / 1 is exact).
            dy, dx, hi = slope, 1, self.resolution
        lo = x0
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if y0 + dy * (mid - x0) / dx <= threshold:
                lo = mid
            else:
                hi = mid - 1
        return lo

    # ------------------------------------------------------------- internal

    def _check_weight(self, weight: int) -> None:
        if not isinstance(weight, int):
            raise TypeError(f"weight must be an int, got {type(weight).__name__}")
        if not 0 <= weight <= self.resolution:
            raise ValueError(
                f"weight must be in [0, {self.resolution}], got {weight}"
            )

    def _fit(self) -> tuple[list[int], list[float], float]:
        """Monotone-regressed breakpoints plus extrapolation slope."""
        if self._fit_cache is not None:
            return self._fit_cache
        COUNTERS.fits += 1
        xs = self._xs
        ys = pava(self._vals, self._counts)
        if len(xs) >= 2:
            slope = max(0.0, (ys[-1] - ys[-2]) / (xs[-1] - xs[-2]))
        else:
            slope = 0.0
        self._fit_cache = (xs, ys, slope)
        return self._fit_cache

    def _build_table(self) -> list[float]:
        """Materialize ``[F(0) .. F(R)]`` from the fit, segment by segment.

        Uses the identical arithmetic of the point-wise interpolation
        (``y0 + (y1 - y0) * (w - x0) / (x1 - x0)`` inside a segment,
        ``ys[-1] + slope * (w - xs[-1])`` beyond the last raw point), so
        every entry equals what :meth:`value` computes point-wise.
        """
        COUNTERS.table_builds += 1
        xs, ys, slope = self._fit()
        resolution = self.resolution
        table = [0.0] * (resolution + 1)
        for idx in range(1, len(xs)):
            x0, x1 = xs[idx - 1], xs[idx]
            y0, y1 = ys[idx - 1], ys[idx]
            dy = y1 - y0
            end = min(x1, resolution + 1)
            if dy == 0.0:
                table[x0:end] = [y0] * (end - x0)
            else:
                dx = x1 - x0
                for w in range(x0, end):
                    table[w] = y0 + dy * (w - x0) / dx
        last_x, last_y = xs[-1], ys[-1]
        if slope == 0.0:
            table[last_x:] = [last_y] * (resolution + 1 - last_x)
        else:
            for w in range(last_x, resolution + 1):
                table[w] = last_y + slope * (w - last_x)
        self._table = table
        return table

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BlockingRateFunction(resolution={self.resolution}, "
            f"points={len(self._xs)})"
        )
