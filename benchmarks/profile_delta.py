"""cProfile helper for the delta-engine hot paths.

Answers "where does neighbourhood-search time actually go?" without
setting up a benchmark run — profile one of the three canonical
workloads on the paper's 50-task benchmark graph and print the top
functions by cumulative time:

``batched``
    Full move-neighbourhood sweeps through ``score_moves`` (the
    compiled-kernel hot path every search heuristic uses).
``scalar``
    The same sweeps through per-candidate ``score_move`` calls — the
    pre-batching access pattern, kept as the comparison basis of
    ``bench_kernel.py``'s ≥3× guard.
``apply``
    An apply-heavy random walk (the simulated-annealing profile),
    including the mapping-dependent buffer models.

``--backend`` picks the kernel (``python`` or ``auto``), so the same
workload can be profiled on the scalar kernel and on the fast engine;
run the ``auto`` profile under ``REPRO_NO_EXTENSION=1`` to see the
fast engine without the compiled extension.
``--trace`` additionally records the kernel spans of the profiled run
as a Chrome trace-event file (Perfetto / ``chrome://tracing``) — the
same instrumentation the online sweep's ``--trace`` flag uses, here as
a timeline view to complement the cProfile call-graph totals.

Usage (see the README "Performance architecture" section)::

    PYTHONPATH=src python benchmarks/profile_delta.py
    PYTHONPATH=src python benchmarks/profile_delta.py --mode scalar --rounds 50
    PYTHONPATH=src python benchmarks/profile_delta.py --mode apply --sort tottime
    PYTHONPATH=src python benchmarks/profile_delta.py --backend python
    PYTHONPATH=src python benchmarks/profile_delta.py --trace delta.trace.json
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import random
from pathlib import Path

from repro.generator import random_graph_1
from repro.heuristics import greedy_cpu
from repro.obs import tracing
from repro.platform import CellPlatform
from repro.steady_state import KERNEL_BACKENDS, DeltaAnalyzer


def _state(backend: str, apply_modes: bool = False) -> DeltaAnalyzer:
    graph = random_graph_1()
    platform = CellPlatform.qs22()
    mapping = greedy_cpu(graph, platform)
    if apply_modes:
        return DeltaAnalyzer(
            mapping,
            elide_local_comm=True,
            merge_same_pe_buffers=True,
            backend=backend,
        )
    return DeltaAnalyzer(mapping, backend=backend)


def run_batched(rounds: int, backend: str) -> float:
    state = _state(backend)
    names = state.graph.task_names()
    total = 0.0
    for rnd in range(rounds):
        # The per-candidate kernels are counters-only hot paths (no
        # spans of their own), so the profile harness brackets each
        # full-neighbourhood sweep to give --trace a timeline.
        with tracing.span("profile:batched.round", round=rnd):
            for name in names:
                for score in state.score_moves(name):
                    total += score.period
    return total


def run_scalar(rounds: int, backend: str) -> float:
    state = _state(backend)
    names = state.graph.task_names()
    n_pes = state.platform.n_pes
    total = 0.0
    for rnd in range(rounds):
        with tracing.span("profile:scalar.round", round=rnd):
            for name in names:
                for pe in range(n_pes):
                    total += state.score_move(name, pe).period
    return total


def run_apply(rounds: int, backend: str) -> float:
    state = _state(backend, apply_modes=True)
    names = state.graph.task_names()
    n_pes = state.platform.n_pes
    rng = random.Random(0)
    for rnd in range(rounds):
        with tracing.span("profile:apply.round", round=rnd):
            for _ in range(100):
                state.apply_move(
                    names[rng.randrange(len(names))], rng.randrange(n_pes)
                )
    return state.period()


MODES = {"batched": run_batched, "scalar": run_scalar, "apply": run_apply}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="batched")
    parser.add_argument(
        "--rounds", type=int, default=20,
        help="full-neighbourhood sweeps (or ×100 applies) to profile",
    )
    parser.add_argument(
        "--sort", default="cumulative",
        help="pstats sort key (cumulative, tottime, ncalls, ...)",
    )
    parser.add_argument(
        "--limit", type=int, default=25, help="rows of the stats table"
    )
    parser.add_argument(
        "--backend",
        choices=KERNEL_BACKENDS,
        default="auto",
        help="kernel to profile (default: auto, the fast engine)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="also write the run's kernel spans as Chrome trace-event "
        "JSON (load in Perfetto or chrome://tracing)",
    )
    args = parser.parse_args(argv)

    tracer = tracing.start(tracing.Tracer()) if args.trace else None
    profiler = cProfile.Profile()
    profiler.enable()
    MODES[args.mode](args.rounds, args.backend)
    profiler.disable()
    if tracer is not None:
        tracing.stop()
    stats = pstats.Stats(profiler)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    if tracer is not None:
        Path(args.trace).write_text(tracer.to_json() + "\n")
        print(
            f"{len(tracer.events)} spans written to {args.trace} "
            "(load in Perfetto)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
