"""The Horowitz–Sahni FPTAS for 2-machine unrelated scheduling [15].

§3.2 notes that Minimum Multiprocessor Scheduling with a fixed number of
machines admits a fully polynomial approximation scheme (Horowitz & Sahni,
J. ACM 1976) — but that the scheme stops applying once communications must
be mapped alongside computations.  We implement the scheme for the
2-machine case to make that remark concrete and to cross-check the
reduction oracle.

Algorithm: dynamic programming over the Pareto frontier of reachable
``(load1, load2)`` pairs, with trimming — points whose coordinates are
within a factor ``1 + ε/(2n)`` of a kept point are discarded.  The result
is a ``(1 + ε)``-approximation of the optimal makespan in time
``O(n² / ε)``.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import ReproError
from .reduction import MultiprocessorInstance

__all__ = ["fptas_two_machines", "exact_two_machines_dp"]


def fptas_two_machines(
    instance: MultiprocessorInstance, epsilon: float = 0.1
) -> Tuple[float, List[int]]:
    """A ``(1+ε)``-optimal allocation; returns ``(makespan, allocation)``."""
    if epsilon <= 0:
        raise ReproError("epsilon must be positive")
    n = len(instance.lengths)
    delta = epsilon / (2.0 * n)

    # Each frontier point carries the choice sequence encoded as a bitmask
    # (machine 2 = bit set); n ≤ 63 keeps the mask in one int.
    if n > 63:
        raise ReproError("fptas implementation limited to 63 tasks")
    frontier: List[Tuple[float, float, int]] = [(0.0, 0.0, 0)]
    for k, (l1, l2) in enumerate(instance.lengths):
        extended: List[Tuple[float, float, int]] = []
        for a, b, mask in frontier:
            extended.append((a + l1, b, mask))
            extended.append((a, b + l2, mask | (1 << k)))
        # Trim on (a, b) while keeping one witness mask per kept point.
        extended.sort(key=lambda p: (p[0], p[1]))
        kept: List[Tuple[float, float, int]] = []
        best_b = float("inf")
        for a, b, mask in extended:
            if b >= best_b:
                continue
            if (
                kept
                and a <= kept[-1][0] * (1 + delta)
                and b >= kept[-1][1] / (1 + delta)
            ):
                best_b = min(best_b, b)
                continue
            kept.append((a, b, mask))
            best_b = b
        frontier = kept

    a, b, mask = min(frontier, key=lambda p: max(p[0], p[1]))
    allocation = [2 if mask & (1 << k) else 1 for k in range(n)]
    return max(a, b), allocation


def exact_two_machines_dp(instance: MultiprocessorInstance) -> float:
    """Exact optimum via the untrimmed frontier (pseudo-polynomial oracle)."""
    frontier = {(0.0, 0.0)}
    for l1, l2 in instance.lengths:
        frontier = {
            point
            for a, b in frontier
            for point in ((a + l1, b), (a, b + l2))
        }
        # Prune dominated points to keep the set manageable.
        pruned = []
        for a, b in sorted(frontier):
            if not pruned or b < pruned[-1][1]:
                pruned.append((a, b))
        frontier = set(pruned)
    return min(max(a, b) for a, b in frontier)
