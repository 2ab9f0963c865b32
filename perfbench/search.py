"""The offline search workloads: four strategies on the paper graphs.

``search-dense`` runs local search (from the critical-path mapping),
tabu search, simulated annealing and the genetic algorithm on graph1,
graph2 and graph3 under the default buffer model, where candidates are
scored by the dense batched kernel.  ``search-md`` runs the same four
on graph1 and graph3 with ``elide_local_comm`` and
``merge_same_pe_buffers`` on, where candidates are scored one at a time
by the mapping-dependent path.  Neither touches the online runtime.

One *pass* solves every (graph, strategy) pair once, in a fixed order.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.generator.costs import assign_costs
from repro.generator.paper_graphs import (
    random_graph_1,
    random_graph_2,
    random_graph_3,
)
from repro.generator.shapes import chain
from repro.graph.stream_graph import StreamGraph
from repro.heuristics import (
    critical_path_mapping,
    genetic_algorithm,
    greedy_cpu,
    local_search,
    simulated_annealing,
    tabu_search,
)
from repro.platform import CellPlatform
from repro.steady_state import DeltaAnalyzer, Mapping, analyze

from .common import Outcome, Speed, check, geomean, fifo_latencies, median, percentile
from .layers import STRATEGIES, LayerTrace, null_span

__all__ = [
    "WORKLOADS",
    "SearchInputs",
    "SearchWorkload",
    "check_passes",
    "measure",
    "measure_traced",
    "run_pass",
    "setup",
    "tiny",
]


def _tiny_graph() -> StreamGraph:
    return assign_costs(chain(12), ccr=0.775, seed=5, name="tiny-chain")


GRAPHS: Dict[str, Callable[[], StreamGraph]] = {
    "graph1": random_graph_1,
    "graph2": random_graph_2,
    "graph3": random_graph_3,
    "tiny": _tiny_graph,
}


@dataclass(frozen=True)
class SearchWorkload:
    graphs: Tuple[str, ...]
    mapping_dependent: bool
    #: Solve requests per second of the open-loop replay — fixed, about
    #: half of the speed-scaled closed-loop rate when the benchmark was
    #: set.
    open_rate: float
    #: Keyword overrides per strategy (only the test sizes use them).
    params: Dict[str, Dict] = field(default_factory=dict)


WORKLOADS: Dict[str, SearchWorkload] = {
    "search-dense": SearchWorkload(("graph1", "graph2", "graph3"), False, 4.0),
    "search-md": SearchWorkload(("graph1", "graph3"), True, 0.7),
}

#: Strategy parameters small enough for the benchmark's own tests.
TINY_PARAMS: Dict[str, Dict] = {
    "local_search": {"max_rounds": 3},
    "tabu_search": {"rounds": 4},
    "simulated_annealing": {"iterations": 150},
    "genetic_algorithm": {"generations": 2, "population_size": 6},
}

#: Requests in the open-loop replay (enough for ten beyond the p99).
OPEN_REQUESTS = 1000

#: Fewest passes per run: determinism is checked across passes.
MIN_PASSES = 2


def tiny(workload: SearchWorkload) -> SearchWorkload:
    return replace(workload, graphs=("tiny",), params=TINY_PARAMS)


@dataclass
class SearchInputs:
    platform: CellPlatform
    flags: Dict[str, bool]
    graphs: Dict[str, StreamGraph]
    #: (graph name, strategy, strategy seed), in pass order.
    specs: List[Tuple[str, str, int]]
    #: GREEDYCPU's period per graph under the workload's flags.
    greedy: Dict[str, float]


def setup(workload: SearchWorkload, seed: int) -> SearchInputs:
    """Graphs, solve list and GREEDYCPU references for one seed."""
    platform = CellPlatform.qs22()
    flags = {
        "elide_local_comm": workload.mapping_dependent,
        "merge_same_pe_buffers": workload.mapping_dependent,
    }
    graphs = {name: GRAPHS[name]() for name in workload.graphs}
    specs = [
        (name, strategy, random.Random(f"{seed}:{name}:{strategy}").randrange(2**31))
        for name in workload.graphs
        for strategy in STRATEGIES
    ]
    greedy = {
        name: analyze(greedy_cpu(graph, platform), **flags).period
        for name, graph in graphs.items()
    }
    return SearchInputs(platform, flags, graphs, specs, greedy)


def solve(
    inputs: SearchInputs, workload: SearchWorkload, spec: Tuple[str, str, int]
) -> Mapping:
    name, strategy, seed = spec
    graph, platform = inputs.graphs[name], inputs.platform
    params = dict(workload.params.get(strategy, {}), **inputs.flags)
    if strategy == "local_search":
        return local_search(critical_path_mapping(graph, platform), **params)
    solver = {
        "tabu_search": tabu_search,
        "simulated_annealing": simulated_annealing,
        "genetic_algorithm": genetic_algorithm,
    }[strategy]
    return solver(graph, platform, seed=seed, **params)


def run_pass(
    inputs: SearchInputs,
    workload: SearchWorkload,
    span=null_span,
    speed: Optional[Speed] = None,
) -> Tuple[List[Optional[Mapping]], List[float], List[float]]:
    """One pass: every solve once.

    Returns the mappings and each solve's raw and speed-scaled seconds
    (equal without ``speed``, which probes around every solve).
    """
    mappings: List[Optional[Mapping]] = []
    raw: List[float] = []
    scaled: List[float] = []
    mark = speed.mark() if speed is not None else 0
    with span("bench.pass"):
        for spec in inputs.specs:
            t0 = perf_counter()
            try:
                with span("heuristics." + spec[1]):
                    mapping = solve(inputs, workload, spec)
            except Exception:  # a failed solve is counted, not fatal
                traceback.print_exc()
                mapping = None
            raw.append(perf_counter() - t0)
            mappings.append(mapping)
            if speed is None:
                scaled.append(raw[-1])
            else:
                after = speed.mark()
                scaled.append(speed.scale(raw[-1], mark, after))
                mark = after
    return mappings, raw, scaled


def check_passes(
    inputs: SearchInputs, passes: List[List[Optional[Mapping]]]
) -> Tuple[List[Optional[float]], int]:
    """Re-check every returned mapping; returns periods and failures.

    A solve fails when it raised or returned an infeasible mapping.
    Every seed must give the same mapping on every pass, and each
    mapping's ``analyze()`` period must equal a fresh
    ``DeltaAnalyzer(...).snapshot()`` period bit for bit.
    """
    periods: List[Optional[float]] = []
    failed = sum(m is None for p in passes for m in p)
    for i, (graph, strategy, seed) in enumerate(inputs.specs):
        label = f"{strategy} on {graph} (seed {seed})"
        runs = [p[i] for p in passes if p[i] is not None]
        if not runs:
            periods.append(None)
            continue
        first = runs[0].to_dict()
        check(
            all(m.to_dict() == first for m in runs[1:]),
            "search.deterministic",
            f"{label} returned different mappings on different passes",
        )
        analysis = analyze(runs[0], **inputs.flags)
        if not analysis.feasible:
            failed += len(runs)
        check(analysis.feasible, "search.feasible", f"{label} is infeasible")
        snapshot = DeltaAnalyzer(runs[0], **inputs.flags).snapshot()
        check(
            snapshot.period.hex() == analysis.period.hex(),
            "search.snapshot_matches_analyze",
            f"{label}: analyze() period {analysis.period!r} != "
            f"snapshot() period {snapshot.period!r}",
        )
        periods.append(analysis.period)
    return periods, failed


def quality(inputs: SearchInputs, periods: List[Optional[float]]) -> Dict[str, float]:
    ratios = [
        period / inputs.greedy[spec[0]]
        for spec, period in zip(inputs.specs, periods)
        if period is not None
    ]
    return {
        "period_ratio": geomean(ratios),
        "acceptance_rate": sum(r <= 1.0 for r in ratios) / len(inputs.specs),
    }


def measure(
    workload: SearchWorkload, inputs: SearchInputs, seconds: float
) -> Outcome:
    """Untraced passes for ``seconds`` (at least :data:`MIN_PASSES`)."""
    passes, durations, walls, raw_walls = [], [], [], []
    speed = Speed()
    deadline = perf_counter() + seconds
    while len(walls) < MIN_PASSES or perf_counter() < deadline:
        mappings, raw, scaled = run_pass(inputs, workload, speed=speed)
        passes.append(mappings)
        durations.append(scaled)
        walls.append(sum(scaled))
        raw_walls.append(sum(raw))
    periods, failed = check_passes(inputs, passes)
    # Per-solve medians over passes: the latency of each request kind.
    per_solve = [median([d[i] for d in durations]) for i in range(len(inputs.specs))]
    open_lat = fifo_latencies(per_solve, workload.open_rate, OPEN_REQUESTS)
    solve_s = median(walls)
    metrics = {
        "solve_s": solve_s,
        "throughput_eps": len(inputs.specs) / solve_s,
        "p50_ms.closed": 1e3 * percentile(per_solve, 50),
        "p99_ms.closed": 1e3 * percentile(per_solve, 99),
        "p50_ms.open": 1e3 * percentile(open_lat, 50),
        "p99_ms.open": 1e3 * percentile(open_lat, 99),
        **quality(inputs, periods),
    }
    return Outcome(
        attempted=sum(len(p) for p in passes),
        failed=failed,
        metrics=metrics,
        details={
            "passes": len(walls),
            "solves_per_pass": len(inputs.specs),
            "raw.solve_s": median(raw_walls),
            "probe_ms.median": 1e3 * median(speed.probes),
        },
    )


def measure_traced(workload: SearchWorkload, inputs: SearchInputs):
    """One untraced and one traced pass; per-layer metrics of the latter.

    Returns the outcome and the layer trace.
    """
    plain, plain_raw, _ = run_pass(inputs, workload)
    trace = LayerTrace()
    with trace:
        traced, traced_raw, _ = run_pass(inputs, workload, trace.span)
    _, failed = check_passes(inputs, [plain, traced])
    metrics = trace.layer_metrics()
    metrics.update(empty_serve_layers())
    metrics["trace.overhead"] = sum(traced_raw) / sum(plain_raw)
    entered = sorted(
        name
        for name, value in metrics.items()
        if value and name.startswith(("graph.", "runtime.", "loadgen."))
    )
    check(
        not entered,
        "trace.bypass",
        f"search entered serving-only layers: {', '.join(entered)}",
    )
    outcome = Outcome(
        attempted=2 * len(inputs.specs), failed=failed, metrics=metrics
    )
    return outcome, [trace]


def empty_serve_layers() -> Dict[str, float]:
    """The serving-only layer metrics, which search never enters."""
    return {
        "runtime.scheduler.resident_apps.mean": 0.0,
        "runtime.service.queue_wait_ms.p50": 0.0,
        "runtime.service.queue_wait_ms.p99": 0.0,
        "runtime.service.loop.s": 0.0,
        "runtime.service.max_depth": 0,
        "loadgen.lag_ms.p50": 0.0,
        "loadgen.lag_ms.p99": 0.0,
    }
