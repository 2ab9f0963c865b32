"""Mapping heuristics beyond the paper's two baselines.

The paper's conclusion calls for "involved mapping heuristics which
approach the optimal throughput"; these are our take on that future work:

* :func:`critical_path_mapping` — HEFT-flavoured list scheduling adapted to
  steady state: tasks in decreasing upward rank, each placed on the PE
  minimising the resulting period, subject to the hard constraints;
* :func:`local_search` — steepest-descent move/swap refinement of any
  starting mapping under the analytic period, evaluated incrementally by
  :class:`~repro.steady_state.delta.DeltaAnalyzer` (O(deg) per candidate
  instead of a full O(V+E) ``analyze`` pass);
* :func:`simulated_annealing` / :func:`tabu_search` — metaheuristics that
  only become tractable with delta evaluation: thousands of candidate
  moves per run, each scored in O(deg);

All full-neighbourhood scans (``local_search`` moves and swaps, every
``tabu_search`` round, :func:`budgeted_descent`) go through the delta
engine's **two-phase selection** — ``best_candidate`` / ``best_move``:
phase 1 ranks every candidate by its value in a handful of dense matrix
passes (scalar sweeps under ``python``), without the mapping-dependent
buffer model; phase 2 scores exactly only the candidates that can win
(a lookup in the default buffer model, where the dense verdicts are
already exact).  The GA works on integer PE rows (``pe_row()``, in task
order): it scores random immigrants and whole generations by passing
their rows to the population-level ``score_assignments`` /
``evaluate_assignments`` pass (one dense matrix pass on the fast engine,
in every buffer model), with no task-name dicts on the way; its
mutation needs every target's verdict, so
it stays on the batched ``evaluate_moves`` sweep (which, in the
mapping-dependent models, derives the buffer model once for all targets
hosting none of the task's neighbours).
``simulated_annealing`` proposes one random candidate at a time, so its
``evaluate_move`` calls hit the scalar kernel with a single-target
sweep.  The kernel is picked
per process (``REPRO_KERNEL_BACKEND``, see
:mod:`repro.steady_state.backend`); every strategy returns the same
mapping on every kernel.
* :func:`genetic_algorithm` — population search over feasible mappings:
  PE-assignment crossover and delta-scored mutation on *cloned*
  :class:`DeltaAnalyzer` states, so offspring are evaluated incrementally
  instead of re-analysed from scratch;
* :func:`random_mapping` — feasibility-aware random mapping (baseline and
  test fixture).

Every search heuristic accepts ``elide_local_comm`` /
``merge_same_pe_buffers`` and then optimises under the corresponding
mapping-dependent buffer model (the paper's future-work optimisations),
evaluated incrementally by the same delta engine.

Every search heuristic also accepts ``objective`` (``"period"`` —
default — ``"weighted"`` or ``"max_stretch"``, see
:mod:`repro.steady_state.objective`): on a multi-application
:class:`~repro.graph.workload.Workload` composite the candidates are
ranked by that objective instead of the raw shared period, while
feasibility (the hard (1i)–(1k) constraints) is judged identically.  On
plain single-application graphs all objectives collapse to the period.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

from ..errors import MappingError
from ..graph.stream_graph import StreamGraph
from ..obs.tracing import span as _span
from ..platform.cell import CellPlatform
from ..steady_state.delta import ClonePool, DeltaAnalyzer
from ..steady_state.mapping import Mapping
from ..steady_state.objective import make_objective
from ..steady_state.periods import buffer_requirements
from ..steady_state.throughput import analyze
from .greedy import greedy_cpu, greedy_mem

__all__ = [
    "budgeted_descent",
    "critical_path_mapping",
    "genetic_algorithm",
    "local_search",
    "simulated_annealing",
    "tabu_search",
    "random_mapping",
]

#: How many accepted metaheuristic moves between O(V+E) re-anchoring
#: rebuilds of the incremental state (squashes float drift, see delta.py).
_RESYNC_EVERY = 256


def _upward_rank(graph: StreamGraph) -> Dict[str, float]:
    """HEFT upward rank with mean compute costs (communication excluded —
    on the Cell the per-edge transfer time is negligible next to compute)."""
    rank: Dict[str, float] = {}
    for name in reversed(graph.topological_order()):
        task = graph.task(name)
        mean_cost = 0.5 * (task.wppe + task.wspe)
        rank[name] = mean_cost + max(
            (rank[s] for s in graph.successors(name)), default=0.0
        )
    return rank


def critical_path_mapping(graph: StreamGraph, platform: CellPlatform) -> Mapping:
    """List-schedule tasks by upward rank, greedily minimising the period.

    For each task (most critical first), try every PE that keeps the hard
    constraints satisfiable and keep the placement whose *resulting partial
    period* — max over PE compute loads and interface loads so far — is
    smallest.  Unlike GREEDYCPU this accounts for the unrelated costs and
    the communication the placement creates.
    """
    need = buffer_requirements(graph)
    budget = platform.buffer_budget
    rank = _upward_rank(graph)
    order = sorted(graph.task_names(), key=lambda t: -rank[t])
    mem_used: Dict[int, float] = {i: 0.0 for i in platform.spe_indices}
    compute: Dict[int, float] = {i: 0.0 for i in range(platform.n_pes)}
    comm_in: Dict[int, float] = {i: 0.0 for i in range(platform.n_pes)}
    comm_out: Dict[int, float] = {i: 0.0 for i in range(platform.n_pes)}
    dma_in: Dict[int, int] = {i: 0 for i in platform.spe_indices}
    dma_proxy: Dict[int, int] = {i: 0 for i in platform.spe_indices}
    assignment: Dict[str, int] = {}

    def placement_cost(name: str, pe: int) -> Optional[float]:
        """Partial period if ``name`` goes on ``pe``; None if infeasible."""
        task = graph.task(name)
        if platform.is_spe(pe):
            if mem_used[pe] + need[name] > budget:
                return None
            new_dma_in = dma_in[pe]
            new_dma_proxy = dma_proxy[pe]
            for e in graph.in_edges(name):
                src_pe = assignment.get(e.src)
                if src_pe is not None and src_pe != pe:
                    new_dma_in += 1
            for e in graph.out_edges(name):
                dst_pe = assignment.get(e.dst)
                if dst_pe is not None and dst_pe != pe and platform.is_ppe(dst_pe):
                    new_dma_proxy += 1
            if new_dma_in > platform.dma_in_slots:
                return None
            if new_dma_proxy > platform.dma_proxy_slots:
                return None
        new_compute = compute[pe] + task.cost_on(platform.kind(pe))
        in_bytes = task.read
        out_bytes = task.write
        for e in graph.in_edges(name):
            src_pe = assignment.get(e.src)
            if src_pe is not None and src_pe != pe:
                in_bytes += e.data
        for e in graph.out_edges(name):
            dst_pe = assignment.get(e.dst)
            if dst_pe is not None and dst_pe != pe:
                out_bytes += e.data
        new_in = comm_in[pe] + in_bytes / platform.bw
        new_out = comm_out[pe] + out_bytes / platform.bw
        partial = max(new_compute, new_in, new_out)
        others = max(
            (
                max(compute[q], comm_in[q], comm_out[q])
                for q in range(platform.n_pes)
                if q != pe
            ),
            default=0.0,
        )
        return max(partial, others)

    for name in order:
        best_pe, best_cost = None, None
        for pe in range(platform.n_pes):
            cost = placement_cost(name, pe)
            if cost is not None and (best_cost is None or cost < best_cost):
                best_pe, best_cost = pe, cost
        if best_pe is None:  # PPE is always feasible, so never happens
            raise MappingError(f"no feasible PE for task {name!r}")
        task = graph.task(name)
        assignment[name] = best_pe
        compute[best_pe] += task.cost_on(platform.kind(best_pe))
        comm_in[best_pe] += task.read / platform.bw
        comm_out[best_pe] += task.write / platform.bw
        if platform.is_spe(best_pe):
            mem_used[best_pe] += need[name]
        for e in graph.in_edges(name):
            src_pe = assignment.get(e.src)
            if src_pe is not None and src_pe != best_pe:
                comm_in[best_pe] += e.data / platform.bw
                comm_out[src_pe] += e.data / platform.bw
                if platform.is_spe(best_pe):
                    dma_in[best_pe] += 1
                if platform.is_spe(src_pe) and platform.is_ppe(best_pe):
                    dma_proxy[src_pe] += 1
        for e in graph.out_edges(name):
            dst_pe = assignment.get(e.dst)
            if dst_pe is not None and dst_pe != best_pe:
                comm_out[best_pe] += e.data / platform.bw
                comm_in[dst_pe] += e.data / platform.bw
                if platform.is_spe(dst_pe):
                    dma_in[dst_pe] += 1
                if platform.is_spe(best_pe) and platform.is_ppe(dst_pe):
                    dma_proxy[best_pe] += 1
    return Mapping(graph, platform, assignment)


def local_search(
    mapping: Mapping,
    max_rounds: int = 50,
    try_swaps: bool = True,
    elide_local_comm: bool = False,
    merge_same_pe_buffers: bool = False,
    objective: str = "period",
) -> Mapping:
    """Steepest-descent refinement of ``mapping`` under ``objective``.

    Each round evaluates every single-task move (and optionally every
    task-pair swap) and applies the best strictly-improving *feasible* one;
    stops at a local optimum or after ``max_rounds``.

    Each round is one :meth:`DeltaAnalyzer.best_candidate` call: every
    candidate is ranked by its value in one batched pass, and only those
    that can win are scored exactly — under the mapping-dependent buffer
    models that is where the per-candidate buffer derivation goes.  The
    choice is the one an eager scan of every candidate makes; scores
    agree with a full ``analyze()`` of the candidate exactly for
    integer-valued costs and to within one ulp otherwise (see delta.py).

    ``elide_local_comm`` / ``merge_same_pe_buffers`` switch to the
    corresponding mapping-dependent buffer model; ``objective`` switches
    the ranking on workload composites (see the module docstring).
    """
    obj = make_objective(objective, mapping.graph)
    state = DeltaAnalyzer(
        mapping,
        elide_local_comm=elide_local_comm,
        merge_same_pe_buffers=merge_same_pe_buffers,
    )
    current_value = state.evaluate(obj).value if state.feasible else float("inf")

    for rnd in range(max_rounds):
        with _span("strategy:local_search.round", round=rnd):
            # Every move, then every distinct-PE swap: the best feasible
            # candidate strictly below the current value, earliest in
            # visit order on ties.
            found = state.best_candidate(
                objective=obj, bound=current_value, swaps=try_swaps
            )
            if found is None:
                break
            task, pe, partner, _score = found
            if partner is None:
                state.apply_move(task, pe)
            else:
                state.apply_swap(task, partner)
            # One O(V+E) rebuild per round: re-anchors the incremental
            # sums so the scores of the next round match a fresh
            # analyze() exactly.
            state.resync()
            current_value = (
                state.evaluate(obj).value if state.feasible else float("inf")
            )
    return state.mapping()


def budgeted_descent(
    state,
    objective=None,
    budget: int = 1,
    pes: Optional[List[int]] = None,
    period_cap: float = math.inf,
) -> int:
    """Steepest descent with an explicit move budget — in place.

    The remapping primitive of the online runtime
    (:mod:`repro.runtime.scheduler`), exposed here because it is a
    general neighbourhood-search building block: apply at most
    ``budget`` strictly-improving feasible single-task moves to
    ``state`` (a :class:`DeltaAnalyzer` or anything with its evaluation
    surface), each chosen as the best ``(objective value, period)`` over
    the whole move neighbourhood.  Unlike :func:`local_search` it
    mutates the given state, counts every applied move against the
    budget (each move is one task *migration* — a real reconfiguration
    cost online), and restricts candidate target PEs to ``pes``
    (default: all — pass the live subset to respect failed SPEs).

    Moves never violate hard constraints, and never push the period
    above ``period_cap`` unless the state is already past the cap — then
    any period-reducing move is allowed (the repair descent after an SPE
    failure).  ``objective`` is an objective *instance* (see
    :func:`repro.steady_state.objective.make_objective`) or ``None`` for
    the plain period.  Returns the number of moves applied.
    """
    if budget <= 0:
        return 0
    if pes is None:
        pes = list(range(state.platform.n_pes))
    moves = 0
    while moves < budget:
        # One batched neighbourhood scan per migration: `best_move`
        # shares the per-task precomputation across all target PEs and
        # applies the exact historical candidate ranking (strict
        # (value, period) improvement, earliest tie wins).
        found = state.best_move(None, pes, objective, period_cap=period_cap)
        if found is None:
            break
        state.apply_move(found[0], found[1])
        moves += 1
    return moves


def _feasible_start(
    graph: StreamGraph,
    platform: CellPlatform,
    start: Optional[Mapping],
    elide_local_comm: bool = False,
    merge_same_pe_buffers: bool = False,
) -> Mapping:
    """A feasible starting point: the given one, critical-path, or PPE-only.

    Feasibility is judged under the requested buffer model; the PPE-only
    fallback hosts no SPE buffers, so it is feasible under every model.
    """
    if start is None:
        start = critical_path_mapping(graph, platform)
    feasible = analyze(
        start,
        elide_local_comm=elide_local_comm,
        merge_same_pe_buffers=merge_same_pe_buffers,
    ).feasible
    if not feasible:
        start = Mapping.all_on_ppe(graph, platform)
    return start


def simulated_annealing(
    graph: StreamGraph,
    platform: CellPlatform,
    start: Optional[Mapping] = None,
    seed: int = 0,
    iterations: Optional[int] = None,
    initial_temperature: Optional[float] = None,
    swap_prob: float = 0.25,
    elide_local_comm: bool = False,
    merge_same_pe_buffers: bool = False,
    objective: str = "period",
) -> Mapping:
    """Metropolis search over feasible mappings under ``objective``.

    Random single-task moves (and, with probability ``swap_prob``,
    task-pair swaps) are scored by :class:`DeltaAnalyzer`; improving
    candidates are always accepted, worsening ones with probability
    ``exp(-Δvalue/temp)`` under a geometric cooling schedule.  Infeasible
    candidates are rejected outright, and the best *feasible* state seen
    is returned — starting from a feasible mapping (``start`` if feasible,
    else the always-feasible PPE-only mapping), so the result is never
    infeasible.  Feasibility follows the buffer model selected by
    ``elide_local_comm`` / ``merge_same_pe_buffers``; candidate ranking
    follows ``objective`` (see the module docstring).
    """
    rng = random.Random(seed)
    obj = make_objective(objective, graph)
    start = _feasible_start(
        graph, platform, start, elide_local_comm, merge_same_pe_buffers
    )
    state = DeltaAnalyzer(
        start,
        elide_local_comm=elide_local_comm,
        merge_same_pe_buffers=merge_same_pe_buffers,
    )
    names = graph.task_names()
    n_pes = platform.n_pes
    if n_pes < 2 or len(names) < 1:
        return start
    n_iter = iterations if iterations is not None else max(1500, 60 * len(names))

    current = state.evaluate(obj).value
    best_assignment = state.assignment()
    best_value = current
    # Clamp away zero/negative temperatures: 0 would divide by zero in the
    # Metropolis test and negatives would invert it; 1e-9 µs is cold enough
    # to behave as pure greedy acceptance.
    temperature = max(
        initial_temperature
        if initial_temperature is not None
        else 0.05 * current,
        1e-9,
    )
    # Geometric schedule reaching 0.1 % of the initial temperature.
    alpha = (1e-3) ** (1.0 / max(n_iter, 1))
    applied = 0

    # One span over the whole anneal: per-iteration spans (thousands of
    # ~10 µs proposals) would dominate the trace; proposal counts land
    # in the moves/swaps-scored metrics instead.
    with _span("strategy:simulated_annealing", iterations=n_iter):
        for _ in range(n_iter):
            if len(names) >= 2 and rng.random() < swap_prob:
                a, b = rng.sample(names, 2)
                if state.pe_of(a) == state.pe_of(b):
                    temperature *= alpha
                    continue
                score = state.evaluate_swap(a, b, obj)
                candidate = ("swap", a, b)
            else:
                name = names[rng.randrange(len(names))]
                pe = rng.randrange(n_pes)
                if pe == state.pe_of(name):
                    temperature *= alpha
                    continue
                score = state.evaluate_move(name, pe, obj)
                candidate = ("move", name, pe)
            if score.feasible:
                delta_t = score.value - current
                if delta_t <= 0 or rng.random() < math.exp(
                    -delta_t / temperature
                ):
                    if candidate[0] == "move":
                        state.apply_move(candidate[1], int(candidate[2]))
                    else:
                        state.apply_swap(candidate[1], candidate[2])
                    applied += 1
                    if applied % _RESYNC_EVERY == 0:
                        state.resync()
                    current = state.evaluate(obj).value
                    if current < best_value:
                        best_value = current
                        best_assignment = state.assignment()
            temperature *= alpha
    return Mapping(graph, platform, best_assignment)


def tabu_search(
    graph: StreamGraph,
    platform: CellPlatform,
    start: Optional[Mapping] = None,
    seed: int = 0,
    rounds: Optional[int] = None,
    tenure: Optional[int] = None,
    elide_local_comm: bool = False,
    merge_same_pe_buffers: bool = False,
    objective: str = "period",
) -> Mapping:
    """Tabu search over single-task moves under ``objective``.

    Each round picks the best feasible move of the full neighbourhood
    with :meth:`DeltaAnalyzer.best_candidate` (rows in a seeded shuffled
    order, so ties diversify) and applies it — even a worsening one,
    which lets the search climb out of the local optima where
    :func:`local_search` stops.  Recently moved tasks are tabu for
    ``tenure`` rounds unless the move beats the best value seen so far
    (aspiration).  Starts feasible and only ever visits feasible states,
    so the returned mapping is never infeasible.  Feasibility follows the
    buffer model selected by ``elide_local_comm`` /
    ``merge_same_pe_buffers``; candidate ranking follows ``objective``.
    """
    rng = random.Random(seed)
    obj = make_objective(objective, graph)
    start = _feasible_start(
        graph, platform, start, elide_local_comm, merge_same_pe_buffers
    )
    state = DeltaAnalyzer(
        start,
        elide_local_comm=elide_local_comm,
        merge_same_pe_buffers=merge_same_pe_buffers,
    )
    names = graph.task_names()
    n_pes = platform.n_pes
    if n_pes < 2 or len(names) < 1:
        return start
    n_rounds = rounds if rounds is not None else max(40, 2 * len(names))
    tabu_tenure = tenure if tenure is not None else max(4, len(names) // 4)

    tabu_until: Dict[str, int] = {}
    best_assignment = state.assignment()
    best_value = state.evaluate(obj).value
    applied = 0

    for rnd in range(n_rounds):
        with _span("strategy:tabu_search.round", round=rnd):
            scan = list(names)
            rng.shuffle(scan)  # deterministic per seed; diversifies ties
            # Tabu tasks only move when they beat the best value seen
            # (aspiration); the rest take the best feasible move.
            bounds = [
                best_value if tabu_until.get(name, 0) > rnd else math.inf
                for name in scan
            ]
            found = state.best_candidate(scan, objective=obj, bound=bounds)
            if found is None:
                break  # neighbourhood exhausted (tabu and non-aspiring)
            name, pe, _partner, _score = found
            state.apply_move(name, pe)
            applied += 1
            if applied % _RESYNC_EVERY == 0:
                state.resync()
            tabu_until[name] = rnd + 1 + tabu_tenure
            value = state.evaluate(obj).value
            if value < best_value:
                best_value = value
                best_assignment = state.assignment()
    return Mapping(graph, platform, best_assignment)


def genetic_algorithm(
    graph: StreamGraph,
    platform: CellPlatform,
    start: Optional[Mapping] = None,
    seed: int = 0,
    generations: Optional[int] = None,
    population_size: Optional[int] = None,
    elite: int = 2,
    crossover_prob: float = 0.9,
    mutation_prob: float = 0.4,
    tournament: int = 3,
    elide_local_comm: bool = False,
    merge_same_pe_buffers: bool = False,
    objective: str = "period",
) -> Mapping:
    """Population search over *feasible* mappings under ``objective``.

    The genome is the task → PE assignment vector.  Every individual is
    held as a :class:`DeltaAnalyzer`, so the genetic operators are cheap:

    * **crossover** — clone one parent, inherit a random subset of the
      PEs where the other parent differs (found by walking both parents'
      :meth:`~DeltaAnalyzer.pe_row` in task order, one ``rng.random()``
      per differing task), applied as one bulk
      :meth:`~DeltaAnalyzer.try_apply_changes`; if the blend is infeasible it
      is repaired by re-applying the inherited genes one by one, keeping
      only those that stay feasible (delta-scored repair);
    * **mutation** — move a random task to a delta-scored feasible PE
      (greedy-best half the time, uniform otherwise), O(deg) per try;
    * **selection** — size-``tournament`` tournaments on the period, with
      the ``elite`` best individuals cloned unchanged into the next
      generation.

    Random immigrants are drawn as PE rows and each generation is
    stacked from its individuals' ``pe_row()``; both go through the
    population-level ``score_assignments`` / ``evaluate_assignments``
    batch (one dense pass over K candidate rows on the fast engine, in
    every buffer model), and analyzers are built only for the feasible
    immigrants.  A per-generation cache keeps the tournament/sort
    lookups O(1); an assignment dict is built only when the best-ever
    individual improves.

    The population is seeded with the feasible members of {``start`` (or
    the critical-path mapping), GREEDYCPU, GREEDYMEM} plus random feasible
    immigrants, so the search starts from diverse, constraint-respecting
    stock.  Every individual visited is feasible, the best-ever assignment
    is tracked across generations, and the search is fully deterministic
    for a given ``seed``.  Feasibility follows the buffer model selected
    by ``elide_local_comm`` / ``merge_same_pe_buffers``; fitness follows
    ``objective`` (see the module docstring).
    """
    rng = random.Random(seed)
    obj = make_objective(objective, graph)
    flags = dict(
        elide_local_comm=elide_local_comm,
        merge_same_pe_buffers=merge_same_pe_buffers,
    )
    start = _feasible_start(
        graph, platform, start, elide_local_comm, merge_same_pe_buffers
    )
    names = graph.task_names()
    n_pes = platform.n_pes
    if n_pes < 2 or not names:
        return start
    pop_size = population_size or min(24, max(8, 4 + len(names) // 2))
    n_generations = (
        generations if generations is not None else max(15, len(names))
    )
    n_elite = max(1, min(elite, pop_size - 1))

    population: List[DeltaAnalyzer] = [DeltaAnalyzer(start, **flags)]
    # All population-batch scoring runs against this never-mutated state;
    # the candidates are full PE rows, so its own assignment is
    # irrelevant to the scores.
    scorer = population[0]
    for builder in (greedy_cpu, greedy_mem, critical_path_mapping):
        if len(population) >= pop_size:
            break
        try:
            candidate = DeltaAnalyzer(builder(graph, platform), **flags)
        except MappingError:
            continue
        if candidate.feasible:
            population.append(candidate)
    attempts = 0
    max_attempts = 20 * pop_size
    while len(population) < pop_size and attempts < max_attempts:
        # Draw a batch of immigrants and score them in one population
        # pass; analyzers are built only for the feasible draws.  The
        # batch never exceeds the open slots, so the rng draw sequence
        # matches the historical one-at-a-time loop exactly.
        batch = min(pop_size - len(population), max_attempts - attempts)
        draws = [[rng.randrange(n_pes) for _ in names] for _ in range(batch)]
        attempts += batch
        for row, verdict in zip(draws, scorer.score_assignments(draws)):
            if verdict.feasible:
                population.append(
                    DeltaAnalyzer(
                        Mapping(graph, platform, dict(zip(names, row))), **flags
                    )
                )

    # Retired generations are recycled through in-place state copies
    # instead of allocating a fresh analyzer per offspring.
    pool = ClonePool()

    fitness_cache: Dict[int, float] = {}

    if obj.needs_app_periods:
        def batch_fitness(states: List[DeltaAnalyzer]) -> List[float]:
            scores = scorer.evaluate_assignments(
                [st.pe_row() for st in states], obj
            )
            return [score.value for score in scores]

        def fitness(state: DeltaAnalyzer) -> float:
            value = fitness_cache.get(id(state))
            return state.evaluate(obj).value if value is None else value
    else:  # period objective: skip the ObjectiveScore plumbing
        def batch_fitness(states: List[DeltaAnalyzer]) -> List[float]:
            scores = scorer.score_assignments([st.pe_row() for st in states])
            return [score.period for score in scores]

        def fitness(state: DeltaAnalyzer) -> float:
            value = fitness_cache.get(id(state))
            return state.period() if value is None else value

    def mutate(state: DeltaAnalyzer, n_moves: int) -> None:
        for _ in range(n_moves):
            name = names[rng.randrange(len(names))]
            origin = state.pe_of(name)
            verdicts = state.evaluate_moves(name, objective=obj)  # batched
            feasible: List[Tuple[int, float]] = []
            for pe in range(n_pes):
                if pe == origin:
                    continue
                verdict = verdicts[pe]
                if verdict.feasible:
                    feasible.append((pe, verdict.value))
            if not feasible:
                continue
            if rng.random() < 0.5:
                target = min(feasible, key=lambda item: item[1])[0]
            else:
                target = feasible[rng.randrange(len(feasible))][0]
            state.apply_move(name, target)

    # Tight platforms can leave no feasible immigrants beyond the seeds;
    # pad the population with mutated clones (mutation preserves
    # feasibility, so the invariant holds).
    while len(population) < pop_size:
        parent = population[rng.randrange(len(population))]
        child = pool.clone(parent)
        mutate(child, 2)
        population.append(child)

    def select() -> DeltaAnalyzer:
        best = population[rng.randrange(len(population))]
        for _ in range(max(1, tournament) - 1):
            rival = population[rng.randrange(len(population))]
            if fitness(rival) < fitness(best):
                best = rival
        return best

    def crossover(a: DeltaAnalyzer, b: DeltaAnalyzer) -> DeltaAnalyzer:
        child = pool.clone(a)
        inherited = {
            names[t]: pe
            for t, (own, pe) in enumerate(zip(a.pe_row(), b.pe_row()))
            if own != pe and rng.random() < 0.5
        }
        if not inherited:
            return child
        if child.try_apply_changes(inherited).feasible:
            return child
        for name, pe in inherited.items():  # delta-scored repair
            if child.score_move(name, pe).feasible:
                child.apply_move(name, pe)
        return child

    best_assignment = start.to_dict()
    best_value = math.inf

    def track(states: List[DeltaAnalyzer]) -> None:
        """Batch-score a fresh generation, refresh the fitness cache and
        the best-ever assignment."""
        nonlocal best_assignment, best_value
        values = batch_fitness(states)
        fitness_cache.clear()
        for state, value in zip(states, values):
            fitness_cache[id(state)] = value
            if value < best_value:
                best_value = value
                best_assignment = state.assignment()

    track(population)
    for _generation in range(n_generations):
        with _span("strategy:genetic_algorithm.generation", gen=_generation):
            population.sort(key=fitness)
            offspring = [pool.clone(population[i]) for i in range(n_elite)]
            while len(offspring) < pop_size:
                parent = select()
                if rng.random() < crossover_prob:
                    child = crossover(parent, select())
                else:
                    child = pool.clone(parent)
                if rng.random() < mutation_prob:
                    mutate(child, 1 + rng.randrange(2))
                offspring.append(child)
            # The outgoing generation feeds the free-list (never the
            # shared batch scorer — its id may outlive the cleared
            # fitness cache).
            for state in population:
                if state is not scorer:
                    pool.retire(state)
            population = offspring
            track(population)

    best = Mapping(graph, platform, best_assignment)
    # Guard against ulp-level drift on non-integer graphs misjudging
    # feasibility: re-check with the reference model before returning.
    if not analyze(best, **flags).feasible:
        return start
    return best


def random_mapping(
    graph: StreamGraph,
    platform: CellPlatform,
    seed: int = 0,
    require_feasible: bool = True,
    max_attempts: int = 1000,
) -> Mapping:
    """A uniform random mapping; optionally rejection-sampled to feasibility."""
    rng = random.Random(seed)
    names = graph.task_names()
    for _ in range(max_attempts):
        assignment = {
            name: rng.randrange(platform.n_pes) for name in names
        }
        mapping = Mapping(graph, platform, assignment)
        if not require_feasible or analyze(mapping).feasible:
            return mapping
    # Fall back to the always-feasible PPE-only mapping.
    return Mapping.all_on_ppe(graph, platform)
