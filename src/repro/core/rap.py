"""Exact solvers for the minimax separable resource allocation problem.

The load-balancing optimization of Section 5.2:

    minimize   max_{1<=j<=N} F_j(w_j)
    subject to sum_j w_j = R,   m_j <= w_j <= M_j,   w_j integer

with every ``F_j`` monotone non-decreasing. Three exact solvers:

* :func:`solve_minimax_fox` — Fox's greedy marginal allocation [Fox 1966],
  granted a run at a time: ``O(N + A log R)`` for ``A`` alternations
  between connections, where the unit-step greedy is ``O(N + R log N)``.
  The paper uses the greedy ("the greedy Fox scheme suffices because both
  the number of connections N and the maximum number of iterations R are
  modest"). A simple interchange argument shows greedy is optimal for
  monotone minimax RAPs.
* :func:`solve_minimax_binary_search` — binary search on the optimal
  objective value over the set of attainable function values, in the
  spirit of Galil & Megiddo [1979]. Used to cross-validate Fox and in the
  solver micro-benchmarks.
* :func:`solve_minimax_bruteforce` — exhaustive enumeration for tiny
  instances; the test oracle.

All take ``functions`` as callables ``f(w) -> float`` over integer weights
*or* as pre-computed value tables (any sequence indexed by weight, e.g. the
cached ``[F(0)..F(R)]`` list from
:meth:`repro.core.rate_function.BlockingRateFunction.table`). Fox reads a
few entries per run, so a table is worth building only for a caller that
walks it densely, as the binary search's candidate scan does.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Sequence

from repro.core.constraints import WeightConstraints
from repro.util.perf import COUNTERS

RateFunction = Callable[[int], float] | Sequence[float]


def _as_evaluators(
    functions: Sequence[RateFunction],
) -> list[Callable[[int], float]]:
    """Normalize functions/tables into callables (tables via __getitem__)."""
    return [f if callable(f) else f.__getitem__ for f in functions]


class InfeasibleError(ValueError):
    """No allocation satisfies the bounds and the sum constraint."""


def _check_instance(
    functions: Sequence[RateFunction],
    resolution: int,
    constraints: WeightConstraints,
) -> None:
    if not functions:
        raise ValueError("need at least one function")
    if len(constraints) != len(functions):
        raise ValueError(
            f"{len(constraints)} constraint pairs for {len(functions)} functions"
        )
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    if any(hi > resolution for hi in constraints.maxima):
        raise ValueError("maxima exceed the resolution")
    if not constraints.feasible(resolution):
        raise InfeasibleError(
            f"bounds admit no allocation summing to {resolution}: "
            f"sum(minima)={sum(constraints.minima)}, "
            f"sum(maxima)={sum(constraints.maxima)}"
        )


def solve_minimax_fox(
    functions: Sequence[RateFunction],
    resolution: int,
    constraints: WeightConstraints | None = None,
) -> list[int]:
    """Fox's greedy marginal allocation (the paper's solver).

    Start every weight at its minimum; repeatedly give one more unit to
    the connection whose *next* value ``F_j(w_j + 1)`` is smallest (ties
    break on connection index, making the result deterministic); stop when
    the units are exhausted.

    Units are granted a run at a time. The connection popped from the heap
    would be popped again for as long as its next entry
    ``(F_j(w + 1), j)`` compares below the next contender's, so it takes
    every such unit at once — found by a doubling probe and a bisection
    over ``F_j`` — and is pushed back once. That is unit-step Fox's grants
    in unit-step Fox's order, ties included, **provided every ``F_j`` is
    non-decreasing over the integers**, which the problem's definition
    requires and :class:`~repro.core.rate_function.BlockingRateFunction`
    guarantees. A function that dips still gets a feasible allocation
    (bounds and sum hold), but a dip inside a run is not looked for, so it
    need not be the one unit steps would reach.
    """
    if constraints is None:
        constraints = WeightConstraints.unbounded(len(functions), resolution)
    _check_instance(functions, resolution, constraints)
    COUNTERS.solver_calls += 1
    functions = _as_evaluators(functions)

    weights = list(constraints.minima)
    maxima = constraints.maxima
    remaining = resolution - sum(weights)
    # Heap of (next value, connection), one entry per connection with
    # headroom.
    heap: list[tuple[float, int]] = []
    for j, fn in enumerate(functions):
        if weights[j] < maxima[j]:
            heap.append((fn(weights[j] + 1), j))
    heapq.heapify(heap)

    while remaining > 0 and heap:
        _value, j = heapq.heappop(heap)
        fn = functions[j]
        won = weights[j] + 1
        end = min(maxima[j], weights[j] + remaining)
        # ``lost`` is the first weight found not to win (``end + 1``: none
        # yet) and ``entry`` the heap entry computed there.
        lost, entry = end + 1, None
        if heap:
            contender = heap[0]
            step = 1
            while won + step <= end:  # gallop until a probe loses
                probe = (fn(won + step), j)
                if probe < contender:
                    won += step
                    step += step
                else:
                    lost, entry = won + step, probe
                    break
            while lost - won > 1:  # then bisect between the two
                mid = (won + lost) // 2
                probe = (fn(mid), j)
                if probe < contender:
                    won = mid
                else:
                    lost, entry = mid, probe
        else:
            won = end
        remaining -= won - weights[j]
        weights[j] = won
        # No entry means the run ended at ``end``: j is full or the units
        # are gone.
        if entry is not None:
            heapq.heappush(heap, entry)

    if remaining > 0:
        # feasible() guaranteed sum(maxima) >= resolution, so this cannot
        # happen; guard against inconsistent inputs anyway.
        raise InfeasibleError("ran out of capacity before allocating all units")
    return weights


def solve_minimax_binary_search(
    functions: Sequence[RateFunction],
    resolution: int,
    constraints: WeightConstraints | None = None,
) -> list[int]:
    """Binary search on the optimal minimax value (Galil-Megiddo style).

    For a candidate value ``lam``, each connection's weight can be pushed
    up to ``cap_j(lam) = max{w in [m_j, M_j] : F_j(w) <= lam}`` (or ``m_j``
    when even ``F_j(m_j) > lam`` — the minimum is forced regardless).
    ``lam`` is achievable iff ``sum_j cap_j(lam) >= R`` and
    ``lam >= max_j F_j(m_j)``. We binary-search the smallest achievable
    ``lam`` over the finite set of attainable values, then emit any
    allocation within the caps (greedily, lowest index first).
    """
    if constraints is None:
        constraints = WeightConstraints.unbounded(len(functions), resolution)
    _check_instance(functions, resolution, constraints)
    COUNTERS.solver_calls += 1
    functions = _as_evaluators(functions)

    forced = max(
        fn(lo) for fn, lo in zip(functions, constraints.minima)
    )

    # Candidate objective values: every attainable F_j(w) within bounds
    # that is >= the forced level.
    candidates = {forced}
    for fn, lo, hi in zip(functions, constraints.minima, constraints.maxima):
        candidates.update(
            v for w in range(lo, hi + 1) if (v := fn(w)) > forced
        )
    ordered = sorted(candidates)

    def caps_for(lam: float) -> list[int]:
        caps = []
        for fn, lo, hi in zip(functions, constraints.minima, constraints.maxima):
            # F_j is monotone: binary search the last w with F_j(w) <= lam.
            if fn(lo) > lam:
                caps.append(lo)
                continue
            a, b = lo, hi
            while a < b:
                mid = (a + b + 1) // 2
                if fn(mid) <= lam:
                    a = mid
                else:
                    b = mid - 1
            caps.append(a)
        return caps

    lo_idx, hi_idx = 0, len(ordered) - 1
    while lo_idx < hi_idx:
        mid = (lo_idx + hi_idx) // 2
        if sum(caps_for(ordered[mid])) >= resolution:
            hi_idx = mid
        else:
            lo_idx = mid + 1
    best = ordered[lo_idx]

    caps = caps_for(best)
    weights = list(constraints.minima)
    remaining = resolution - sum(weights)
    for j in range(len(weights)):
        grant = min(remaining, caps[j] - weights[j])
        weights[j] += grant
        remaining -= grant
        if remaining == 0:
            break
    if remaining != 0:
        raise InfeasibleError("binary search found no feasible objective value")
    return weights


def solve_minimax_bruteforce(
    functions: Sequence[RateFunction],
    resolution: int,
    constraints: WeightConstraints | None = None,
) -> list[int]:
    """Exhaustive search; exponential, for cross-validation in tests only.

    Among all optimal allocations, returns the lexicographically smallest
    objective then the one Fox would prefer is *not* guaranteed — callers
    should compare objective values, not weight vectors.
    """
    if constraints is None:
        constraints = WeightConstraints.unbounded(len(functions), resolution)
    _check_instance(functions, resolution, constraints)
    COUNTERS.solver_calls += 1
    functions = _as_evaluators(functions)

    ranges = [
        range(lo, hi + 1)
        for lo, hi in zip(constraints.minima, constraints.maxima)
    ]
    best_weights: list[int] | None = None
    best_value = float("inf")
    for combo in itertools.product(*ranges):
        if sum(combo) != resolution:
            continue
        value = max(fn(w) for fn, w in zip(functions, combo))
        if value < best_value:
            best_value = value
            best_weights = list(combo)
    if best_weights is None:
        raise InfeasibleError("no allocation sums to the resolution")
    return best_weights


def objective(
    functions: Sequence[RateFunction], weights: Sequence[int]
) -> float:
    """The minimax objective ``max_j F_j(w_j)`` for a given allocation."""
    if len(functions) != len(weights):
        raise ValueError("functions and weights must have the same length")
    return max(
        fn(w) for fn, w in zip(_as_evaluators(functions), weights)
    )
