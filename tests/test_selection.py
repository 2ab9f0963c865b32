"""Two-phase neighbourhood selection against the eager scan it replaces.

``local_search`` and ``tabu_search`` pick each step with
:meth:`DeltaAnalyzer.best_candidate`: rank every candidate by value
without the mapping-dependent buffer model, then score exactly only the
candidates that can win.  The eager oracles in
:mod:`repro.steady_state.reference` keep the old scan — every
candidate's exact verdict, strictly-best kept — and the two must return
the same mapping:

* on random small DAGs with integer and with float costs, in all four
  buffer-model modes, on QS22 and dual-Cell, under ``python`` and
  ``auto`` — bit-identical under ``python`` on both cost kinds (the
  ranking floats *are* the exact floats), and under ``auto`` on
  integer-cost graphs (float graphs carry the dense kernel's ulp
  contract, so only feasibility is demanded there);
* for the ``weighted`` and ``max_stretch`` objectives on a composite;
* on the benchmark's graph1/graph3 runs (both buffer flags, QS22,
  ``auto``) for the benchmark seeds 101–103.

Plus: building the dense mirror leaves every public batch API of a
mapping-dependent analyzer unchanged, and metrics/tracing never change
a choice.
"""

import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_delta import integer_cost_graph

from repro.generator import (
    assign_costs,
    random_graph_1,
    random_graph_3,
    random_topology,
)
from repro.graph import Workload
from repro.heuristics import (
    budgeted_descent,
    critical_path_mapping,
    local_search,
    tabu_search,
)
from repro.obs import metrics, tracing
from repro.platform import CellPlatform
from repro.steady_state import DeltaAnalyzer, Mapping, analyze
from repro.steady_state.backend import BACKEND_ENV_VAR
from repro.steady_state.reference import _local_search_eager, _tabu_search_eager

MODES = (
    {},
    {"elide_local_comm": True},
    {"merge_same_pe_buffers": True},
    {"elide_local_comm": True, "merge_same_pe_buffers": True},
)
MODE_IDS = ("default", "elide", "merge", "elide+merge")
BOTH_FLAGS = MODES[3]
PLATFORMS = {"qs22": CellPlatform.qs22(), "dual": CellPlatform.qs22_dual()}
BACKENDS = ("python", "auto")


@contextlib.contextmanager
def kernel(label):
    """Run the body with ``REPRO_KERNEL_BACKEND`` set to ``label``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(BACKEND_ENV_VAR, label)
        yield


def float_cost_graph(seed: int):
    """A small random DAG with non-integer costs and payloads."""
    rng = random.Random(seed)
    topo = random_topology(
        rng.randint(6, 14), fat=0.5, density=0.4, jump=2, seed=seed
    )
    return assign_costs(topo, ccr=rng.choice([0.775, 2.305, 4.6]), seed=seed)


def random_start(graph, platform, seed: int) -> Mapping:
    rng = random.Random(seed)
    return Mapping(
        graph,
        platform,
        {name: rng.randrange(platform.n_pes) for name in graph.task_names()},
    )


def composite(seed: int):
    w = Workload(f"mix{seed}")
    for i in range(3):
        w.add_app(
            f"app{i}",
            integer_cost_graph(seed * 10 + i, n_min=4, n_max=7),
            weight=1.0 + i,
        )
    return w.compile()


def assert_same_choices(graph, platform, mode, seed, exact, objective="period"):
    """Two-phase vs eager ``local_search`` and ``tabu_search``."""
    start = random_start(graph, platform, seed)
    fast = local_search(start, max_rounds=8, objective=objective, **mode)
    slow = _local_search_eager(start, max_rounds=8, objective=objective, **mode)
    tabu_kw = dict(seed=seed, rounds=8, objective=objective, **mode)
    fast_tabu = tabu_search(graph, platform, start, **tabu_kw)
    slow_tabu = _tabu_search_eager(graph, platform, start, **tabu_kw)
    if exact:
        assert fast.to_dict() == slow.to_dict()
        assert fast_tabu.to_dict() == slow_tabu.to_dict()
    else:
        assert analyze(fast_tabu, **mode).feasible


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestMatchesEagerScan:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_integer_costs(self, backend, mode, platform, seed):
        graph = integer_cost_graph(seed % 1000, n_min=5, n_max=12)
        with kernel(backend):
            assert_same_choices(graph, PLATFORMS[platform], mode, seed, True)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_float_costs(self, backend, mode, platform, seed):
        graph = float_cost_graph(seed % 1000)
        with kernel(backend):
            assert_same_choices(
                graph, PLATFORMS[platform], mode, seed, backend == "python"
            )

    @pytest.mark.parametrize("objective", ["weighted", "max_stretch"])
    @settings(max_examples=1, deadline=None)
    @given(seed=st.integers(0, 10**3))
    def test_composite_objectives(self, backend, mode, platform, objective, seed):
        graph = composite(seed)
        with kernel(backend):
            assert_same_choices(
                graph, PLATFORMS[platform], mode, seed, True, objective
            )


def benchmark_seed(seed: int, graph: str, strategy: str) -> int:
    """The strategy seed the repo benchmark derives for one solve."""
    return random.Random(f"{seed}:{graph}:{strategy}").randrange(2**31)


@pytest.mark.parametrize(
    "name, build", [("graph1", random_graph_1), ("graph3", random_graph_3)]
)
def test_benchmark_runs_match_eager_scan(name, build):
    """The ``search-md`` solves pick exactly what the eager scan picks."""
    graph, platform = build(), CellPlatform.qs22()
    with kernel("auto"):
        start = critical_path_mapping(graph, platform)
        assert (
            local_search(start, **BOTH_FLAGS).to_dict()
            == _local_search_eager(start, **BOTH_FLAGS).to_dict()
        )
        for seed in (101, 102, 103):
            kw = dict(seed=benchmark_seed(seed, name, "tabu_search"), **BOTH_FLAGS)
            assert (
                tabu_search(graph, platform, **kw).to_dict()
                == _tabu_search_eager(graph, platform, **kw).to_dict()
            )


def move_swap_results(state):
    names = state.graph.task_names()
    pairs = [(a, b) for a in names[:4] for b in names[4:8]]
    return [
        state.score_moves(names[0]),
        state.evaluate_moves(names[1]),
        state.score_move_matrix(),
        state.evaluate_all_moves(),
        state.score_swaps(pairs),
        state.evaluate_swaps(pairs),
    ]


@pytest.mark.parametrize("mode", MODES[1:], ids=MODE_IDS[1:])
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_mirror_leaves_public_batch_apis_unchanged(mode, platform):
    """The dense kernel never changes an md verdict: an md analyzer's
    batch verdicts are the exact per-candidate ones before and after it
    is built.  The move and swap batch APIs never build it; the
    assignment batches do on the numpy engine (the compiled extension
    scores md candidates natively), and the two-phase selection does on
    the fast engine; clones start without one."""
    graph = integer_cost_graph(17, n_min=10, n_max=14)
    with kernel("auto"):
        state = DeltaAnalyzer(random_start(graph, PLATFORMS[platform], 3), **mode)
        names = graph.task_names()
        changes = [{}, {names[0]: 1, names[2]: 3}, {names[1]: 0}]
        before = move_swap_results(state)
        per_candidate = [
            [state.score_changes(ch) for ch in changes],
            [state.evaluate_changes(ch) for ch in changes],
        ]
        assert state._dense_kernel is None
        assert [
            state.score_assignments(changes),
            state.evaluate_assignments(changes),
        ] == per_candidate
        assert (state._dense_kernel is not None) == (state.backend == "numpy")
        state.best_candidate(swaps=True)
        assert state._dense_kernel is not None
        assert move_swap_results(state) == before
        assert [
            state.score_assignments(changes),
            state.evaluate_assignments(changes),
        ] == per_candidate
        assert state.clone()._dense_kernel is None


def test_per_task_bounds_exclude_swaps():
    graph = integer_cost_graph(5)
    state = DeltaAnalyzer(random_start(graph, CellPlatform.qs22(), 1))
    bounds = [1e9] * graph.n_tasks
    with pytest.raises(ValueError):
        state.best_candidate(bound=bounds, swaps=True)
    with pytest.raises(ValueError):
        state.best_candidate(bound=bounds[1:])


@contextlib.contextmanager
def instrumentation(on: bool):
    """Metrics and tracing forced on or off; the ambient state restored."""
    saved = metrics.REGISTRY, tracing.TRACER
    metrics.disable()
    tracing.stop()
    registry = None
    if on:
        registry = metrics.enable(metrics.MetricsRegistry())
        tracing.start(tracing.Tracer())
    try:
        yield registry
    finally:
        metrics.disable()
        tracing.stop()
        if saved[0] is not None:
            metrics.enable(saved[0])
        if saved[1] is not None:
            tracing.start(saved[1])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", [MODES[0], BOTH_FLAGS], ids=["default", "md"])
def test_choices_identical_with_instrumentation(backend, mode):
    """Metrics and tracing are passive; the counters split the phases."""
    graph, platform = integer_cost_graph(23, n_min=12, n_max=16), CellPlatform.qs22()
    start = random_start(graph, platform, 9)

    def run():
        state = DeltaAnalyzer(start, **mode)
        budgeted_descent(state, budget=3)
        return [
            local_search(start, max_rounds=6, **mode).to_dict(),
            tabu_search(graph, platform, start, seed=4, rounds=6, **mode).to_dict(),
            state.assignment(),
        ]

    with kernel(backend):
        with instrumentation(False):
            plain = run()
        with instrumentation(True) as registry:
            traced = run()
    assert traced == plain
    counters = registry.counters
    assert counters["candidates_ranked"] > 0
    assert counters["candidates_ranked"] <= (
        counters["moves_scored"] + counters.get("swaps_scored", 0)
    )
    confirmed = counters.get("candidates_confirmed", 0)
    if mode:
        assert 0 < confirmed < counters["candidates_ranked"]
    else:
        assert confirmed == 0
