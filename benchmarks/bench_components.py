"""Micro-benchmarks of the substrates (regression tracking).

These time the pieces the experiment benches compose: the simulator's
event loop, the max-min allocator, the heuristics, the analytic model and
the generator.  Unlike the ``fig*`` benches they run several rounds, so
pytest-benchmark statistics are meaningful.
"""

import os
import random
import time

import pytest

from repro.generator import assign_costs, random_graph_1, random_topology
from repro.heuristics import critical_path_mapping, greedy_cpu, greedy_mem, local_search
from repro.platform import CellPlatform
from repro.simulator import FlowNetwork, SimConfig, simulate
from repro.steady_state import DeltaAnalyzer, analyze, build_schedule
from repro.steady_state.reference import _local_search_eager, _local_search_full


@pytest.fixture(scope="module")
def graph():
    return random_graph_1()


@pytest.fixture(scope="module")
def platform():
    return CellPlatform.qs22()


@pytest.fixture(scope="module")
def mapping(graph, platform):
    return greedy_cpu(graph, platform)


@pytest.mark.benchmark(group="components")
def test_simulator_event_rate(benchmark, mapping):
    """Simulate 200 instances of the 50-task graph (≈10k compute events)."""
    result = benchmark(simulate, mapping, 200, SimConfig.realistic())
    assert result.n_instances == 200


@pytest.mark.benchmark(group="components")
def test_analytic_model(benchmark, mapping):
    analysis = benchmark(analyze, mapping)
    assert analysis.period > 0


@pytest.mark.benchmark(group="components")
def test_schedule_construction(benchmark, mapping):
    schedule = benchmark(build_schedule, mapping)
    assert schedule.period_length > 0


@pytest.mark.benchmark(group="components")
@pytest.mark.parametrize(
    "heuristic", [greedy_cpu, greedy_mem, critical_path_mapping],
    ids=["greedy_cpu", "greedy_mem", "critical_path"],
)
def test_heuristics(benchmark, graph, platform, heuristic):
    mapping = benchmark(heuristic, graph, platform)
    assert mapping.n_tasks_on_spes() >= 0


@pytest.mark.benchmark(group="local-search")
def test_local_search_full_analyze(benchmark, mapping):
    """Seed evaluation path: a full O(V+E) analyze() per candidate."""
    refined = benchmark.pedantic(
        _local_search_full, args=(mapping, 2, True), rounds=3, iterations=1
    )
    assert analyze(refined).feasible


@pytest.mark.benchmark(group="local-search")
def test_local_search_delta(benchmark, mapping):
    """Delta evaluation path: O(deg) per candidate via DeltaAnalyzer."""
    refined = benchmark.pedantic(
        local_search,
        args=(mapping,),
        kwargs={"max_rounds": 2},
        rounds=3,
        iterations=1,
    )
    assert analyze(refined).feasible


def test_local_search_delta_speedup(mapping):
    """Acceptance: delta path >= 10x faster, equal-or-better period.

    Timed directly (not via pytest-benchmark) so the ratio is asserted,
    not just recorded, on the paper's 50-task random graph 1 / QS22 case.
    Best-of-3 per path: the minimum is robust to scheduler noise.  On
    shared CI runners (REPRO_BENCH_NO_TIMING_ASSERT=1) only the
    functional half — equal-or-better period — is asserted; the ~15x
    margin over the 10x threshold is not worth intermittent CI red.
    """

    def delta(rounds):
        return local_search(mapping, max_rounds=rounds)

    def full(rounds):
        return _local_search_full(mapping, rounds, True)

    def best_of(n, search):
        times, results = [], []
        for _ in range(n):
            start = time.perf_counter()
            results.append(search(2))
            times.append(time.perf_counter() - start)
        return min(times), results[-1]

    # Warm both paths once (memoized buffer_requirements, allocators).
    delta(1)
    full(1)

    t_delta, fast = best_of(3, delta)
    t_full, slow = best_of(3, full)

    # Equal-or-better period, with ulp headroom: on a near-tie the delta
    # and full paths may pick different (equally good) moves.
    assert analyze(fast).period <= analyze(slow).period * (1 + 1e-9)
    if os.environ.get("REPRO_BENCH_NO_TIMING_ASSERT"):
        return
    assert t_full >= 10.0 * t_delta, (
        f"delta path only {t_full / t_delta:.1f}x faster "
        f"({t_delta * 1e3:.1f} ms vs {t_full * 1e3:.1f} ms)"
    )


def test_two_phase_local_search_speedup(mapping):
    """Acceptance: two-phase selection >= 5x faster than the eager scan.

    ``local_search`` on graph 1 / QS22 with both mapping-dependent
    buffer flags, against ``_local_search_eager`` (every candidate's
    exact verdict, buffer model included), best of 3 each.  The two must
    return the same mapping; the ratio is asserted unless
    REPRO_BENCH_NO_TIMING_ASSERT is set.
    """
    flags = dict(elide_local_comm=True, merge_same_pe_buffers=True)

    def best_of(n, search):
        times, results = [], []
        for _ in range(n):
            start = time.perf_counter()
            results.append(search(mapping, **flags))
            times.append(time.perf_counter() - start)
        return min(times), results[-1]

    t_fast, fast = best_of(3, local_search)
    t_eager, eager = best_of(3, _local_search_eager)
    assert fast.to_dict() == eager.to_dict()
    if os.environ.get("REPRO_BENCH_NO_TIMING_ASSERT"):
        return
    assert t_eager >= 5.0 * t_fast, (
        f"two-phase selection only {t_eager / t_fast:.1f}x faster "
        f"({t_fast * 1e3:.1f} ms vs {t_eager * 1e3:.1f} ms)"
    )


@pytest.mark.benchmark(group="components")
def test_score_move_throughput(benchmark, mapping):
    """Scan the full move neighbourhood (~450 scored candidates)."""
    state = DeltaAnalyzer(mapping)
    names = mapping.graph.task_names()
    n_pes = mapping.platform.n_pes

    def scan():
        best = None
        for name in names:
            for pe in range(n_pes):
                score = state.score_move(name, pe)
                if score.feasible and (best is None or score.period < best):
                    best = score.period
        return best

    best = benchmark(scan)
    assert best is not None and best > 0


@pytest.mark.benchmark(group="components")
def test_generator(benchmark):
    def build():
        topo = random_topology(94, fat=0.45, density=0.18, jump=2, seed=1)
        return assign_costs(topo, ccr=0.775, seed=1)

    graph = benchmark(build)
    assert graph.n_tasks == 94


@pytest.mark.benchmark(group="components")
def test_maxmin_allocator(benchmark):
    rng = random.Random(7)
    caps = {}
    for pe in range(9):
        caps[("out", pe)] = 25_000.0
        caps[("in", pe)] = 25_000.0
    net = FlowNetwork(caps)
    for _ in range(40):
        net.start_flow(
            ("out", rng.randrange(9)), ("in", rng.randrange(9)), 1000.0
        )
    benchmark(net.allocate)
    net.check_capacities()
