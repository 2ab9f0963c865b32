"""Steady-state scheduling core (paper §3–§4).

* :class:`Mapping` — task→PE assignment, the optimisation object;
* :func:`first_periods` / :func:`buffer_sizes` / :func:`buffer_requirements`
  — the §4.2 timing and memory model;
* :func:`analyze` / :func:`throughput` / :func:`speedup` — analytic period,
  feasibility and throughput of a mapping;
* :class:`DeltaAnalyzer` — incremental O(deg) re-evaluation of moves/swaps
  (the engine behind the neighbourhood-search heuristics), with batched
  ``score_moves`` / ``evaluate_moves`` / ``best_move`` neighbourhood
  scoring;
* :class:`CompiledGraph` / :func:`compile_graph` — the memoized
  integer-indexed graph arrays (CSR adjacency, flat cost tables) the
  delta engine runs on;
* :func:`resolve_backend` / :func:`available_backends` /
  :func:`cython_available` — kernel selection (the scalar reference
  kernel, or the fast engine: numpy's dense kernels plus the compiled
  extension when built; ``REPRO_KERNEL_BACKEND``);
* :class:`ClonePool` — free-list of analyzer clones recycled through
  in-place state copies (the GA's allocation-free generations);
* :mod:`~repro.steady_state.objective` — pluggable scheduling objectives
  (shared period, weighted per-app periods, max stretch) for
  multi-application workloads;
* :class:`PeriodicSchedule` — the explicit periodic schedule (Fig. 3).
"""

from .backend import (
    BACKEND_ENV_VAR,
    KERNEL_BACKENDS,
    NO_EXTENSION_ENV_VAR,
    available_backends,
    cython_available,
    resolve_backend,
)
from .compiled import CompiledGraph, compile_graph
from .delta import ClonePool, DeltaAnalyzer, MoveScore, ObjectiveScore
from .mapping import Mapping
from .objective import OBJECTIVES, make_objective
from .periods import (
    buffer_requirements,
    buffer_sizes,
    first_periods,
    spe_buffer_load,
)
from .schedule import (
    ComputeEvent,
    PeriodicSchedule,
    TransferEvent,
    build_schedule,
)
from .throughput import (
    PeriodAnalysis,
    ResourceLoad,
    Violation,
    analyze,
    assert_feasible,
    period,
    speedup,
    throughput,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "KERNEL_BACKENDS",
    "NO_EXTENSION_ENV_VAR",
    "available_backends",
    "cython_available",
    "resolve_backend",
    "CompiledGraph",
    "compile_graph",
    "ClonePool",
    "DeltaAnalyzer",
    "MoveScore",
    "ObjectiveScore",
    "OBJECTIVES",
    "make_objective",
    "Mapping",
    "buffer_requirements",
    "buffer_sizes",
    "first_periods",
    "spe_buffer_load",
    "ComputeEvent",
    "PeriodicSchedule",
    "TransferEvent",
    "build_schedule",
    "PeriodAnalysis",
    "ResourceLoad",
    "Violation",
    "analyze",
    "assert_feasible",
    "period",
    "speedup",
    "throughput",
]
