"""Property tests: DeltaAnalyzer vs full analyze(), and the delta heuristics.

The randomized consistency tests use graphs whose costs and payloads are
integer-valued floats: every per-PE sum then stays exactly representable,
so ``DeltaAnalyzer`` must agree with ``analyze()`` *bit for bit* after any
sequence of moves/swaps.  A separate test covers generator graphs with
arbitrary float costs, where agreement is within ulp-level tolerance.
"""

import random

import pytest

from repro.errors import MappingError
from repro.generator import assign_costs, random_topology
from repro.graph import DataEdge, StreamGraph, Task
from repro.heuristics import (
    critical_path_mapping,
    greedy_cpu,
    local_search,
    simulated_annealing,
    tabu_search,
)
from repro.platform import CellPlatform
from repro.steady_state import (
    DeltaAnalyzer,
    Mapping,
    MoveScore,
    analyze,
    buffer_requirements,
    period,
)
from repro.steady_state.reference import _local_search_full

#: Platforms cycled through by the randomized tests: the paper's single
#: Cell, the dual-Cell future-work configuration (exercises BIF link
#: bookkeeping), and a deliberately tight platform (small local stores and
#: DMA queues) so the violation bookkeeping sees both feasible and
#: infeasible states.
PLATFORMS = (
    CellPlatform.qs22(),
    CellPlatform.qs22_dual(),
    CellPlatform(
        n_ppe=1,
        n_spe=4,
        local_store=64 * 1024,
        code_size=32 * 1024,
        dma_in_slots=3,
        dma_proxy_slots=2,
        name="tight",
    ),
)


def integer_cost_graph(seed: int, n_min: int = 6, n_max: int = 24) -> StreamGraph:
    """A random DAG whose costs/payloads are all integer-valued floats."""
    rng = random.Random(seed)
    n = rng.randint(n_min, n_max)
    g = StreamGraph(f"intrand{seed}")
    names = [f"t{i}" for i in range(n)]
    for i, name in enumerate(names):
        g.add_task(
            Task(
                name,
                wppe=float(rng.randint(20, 900)),
                wspe=float(rng.randint(10, 2000)),
                read=float(rng.choice([0, 0, 0, 256, 1024])),
                write=float(rng.choice([0, 0, 0, 512])),
                peek=rng.choice([0, 0, 0, 1, 2]),
            )
        )
        if i:
            for p in rng.sample(range(i), k=min(i, rng.randint(1, 3))):
                if rng.random() < 0.8 and not g.has_edge(names[p], name):
                    g.add_edge(
                        DataEdge(names[p], name, float(rng.randint(1, 80) * 128))
                    )
    if g.n_edges == 0:
        g.add_edge(DataEdge(names[0], names[1], 1024.0))
    return g


def assert_snapshot_matches(state: DeltaAnalyzer) -> None:
    """snapshot() must equal a fresh analyze() field for field, bit for bit."""
    snap = state.snapshot()
    full = analyze(state.mapping())
    assert snap.period == full.period
    assert snap.loads == full.loads
    assert snap.violations == full.violations
    assert snap.buffer_bytes == full.buffer_bytes
    assert snap.dma_in == full.dma_in
    assert snap.dma_proxy == full.dma_proxy
    assert snap.link_loads == full.link_loads
    assert snap.feasible == full.feasible
    assert snap.mapping == full.mapping


class TestConsistency:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_sequences_exact(self, seed):
        """25 scenarios × 10 applies = 250 verified move/swap sequences."""
        g = integer_cost_graph(seed)
        platform = PLATFORMS[seed % len(PLATFORMS)]
        rng = random.Random(1000 + seed)
        names = g.task_names()
        mapping = Mapping(
            g, platform, {n: rng.randrange(platform.n_pes) for n in names}
        )
        state = DeltaAnalyzer(mapping)
        assert_snapshot_matches(state)
        for _step in range(10):
            if rng.random() < 0.35 and len(names) >= 2:
                a, b = rng.sample(names, 2)
                score = state.score_swap(a, b)
                candidate = (
                    state.mapping()
                    .with_assignment(a, state.pe_of(b))
                    .with_assignment(b, state.pe_of(a))
                )
                reference = analyze(candidate)
                assert score.period == reference.period
                assert score.feasible == reference.feasible
                state.apply_swap(a, b)
            else:
                task = rng.choice(names)
                pe = rng.randrange(platform.n_pes)
                score = state.score_move(task, pe)
                reference = analyze(state.mapping().with_assignment(task, pe))
                assert score.period == reference.period
                assert score.feasible == reference.feasible
                state.apply_move(task, pe)
            assert_snapshot_matches(state)

    def test_scores_do_not_mutate_state(self, qs22):
        g = integer_cost_graph(99)
        mapping = greedy_cpu(g, qs22)
        state = DeltaAnalyzer(mapping)
        before = state.snapshot()
        names = g.task_names()
        for name in names:
            for pe in range(qs22.n_pes):
                state.score_move(name, pe)
        state.score_swap(names[0], names[-1])
        after = state.snapshot()
        assert before.period == after.period
        assert before.loads == after.loads
        assert state.mapping() == mapping

    def test_noop_move_returns_current_score(self, qs22):
        g = integer_cost_graph(7)
        state = DeltaAnalyzer(greedy_cpu(g, qs22))
        name = g.task_names()[0]
        assert state.score_move(name, state.pe_of(name)) == state.score()
        # applying a no-op is also harmless
        state.apply_move(name, state.pe_of(name))
        assert_snapshot_matches(state)

    def test_generator_graph_sequences_close(self):
        """Arbitrary float costs: agreement within ulp-level tolerance."""
        g = assign_costs(random_topology(18, fat=0.5, seed=3), ccr=1.2, seed=3)
        platform = CellPlatform.qs22()
        rng = random.Random(5)
        names = g.task_names()
        state = DeltaAnalyzer(
            Mapping(g, platform, {n: rng.randrange(platform.n_pes) for n in names})
        )
        for _step in range(60):
            task = rng.choice(names)
            pe = rng.randrange(platform.n_pes)
            score = state.score_move(task, pe)
            reference = analyze(state.mapping().with_assignment(task, pe))
            assert score.period == pytest.approx(reference.period, rel=1e-9)
            assert score.feasible == reference.feasible
            state.apply_move(task, pe)
        snap, full = state.snapshot(), analyze(state.mapping())
        assert snap.period == pytest.approx(full.period, rel=1e-9)
        assert snap.feasible == full.feasible
        # resync() squashes any accumulated drift back to bit-identity
        state.resync()
        assert_snapshot_matches(state)

    def test_dual_cell_link_is_the_bottleneck_when_loaded(self):
        """Cross-cell traffic must show up in the period via the BIF link."""
        platform = CellPlatform.qs22_dual()
        g = StreamGraph("cross")
        g.add_task(Task("a", wppe=10.0, wspe=10.0))
        g.add_task(Task("b", wppe=10.0, wspe=10.0))
        g.add_edge(DataEdge("a", "b", 4_000_000.0))
        # a on cell 0's PPE, b on cell 1's PPE: the edge crosses the BIF.
        state = DeltaAnalyzer(Mapping(g, platform, {"a": 0, "b": 1}))
        assert state.period() == analyze(state.mapping()).period
        assert state.snapshot().link_loads
        # moving b next to a removes the link load entirely
        state.apply_move("b", 0)
        assert not state.snapshot().link_loads
        assert_snapshot_matches(state)

    def test_rejects_unknown_task_and_bad_pe(self, qs22):
        state = DeltaAnalyzer(greedy_cpu(integer_cost_graph(1), qs22))
        with pytest.raises(MappingError):
            state.score_move("nope", 0)
        with pytest.raises(MappingError):
            state.score_move(state.mapping().graph.task_names()[0], qs22.n_pes)

    def test_score_is_named_tuple(self, qs22):
        state = DeltaAnalyzer(greedy_cpu(integer_cost_graph(2), qs22))
        score = state.score()
        assert isinstance(score, MoveScore)
        assert score.period == state.period()
        assert score.feasible == state.feasible


class TestLocalSearchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_from_ppe_start(self, seed, qs22):
        g = integer_cost_graph(50 + seed, n_min=10, n_max=14)
        start = Mapping.all_on_ppe(g, qs22)
        fast = local_search(start, max_rounds=6)
        slow = _local_search_full(start, 6, True)
        assert fast.to_dict() == slow.to_dict()
        assert period(fast) == period(slow)

    def test_matches_reference_on_generator_graph(self, qs22):
        g = assign_costs(random_topology(14, fat=0.5, seed=8), ccr=1.0, seed=8)
        start = greedy_cpu(g, qs22)
        fast = local_search(start, max_rounds=8)
        slow = _local_search_full(start, 8, True)
        assert fast.to_dict() == slow.to_dict()
        assert period(fast) == period(slow)

    def test_matches_reference_without_swaps(self, qs22):
        g = integer_cost_graph(77, n_min=10, n_max=14)
        start = Mapping.all_on_ppe(g, qs22)
        fast = local_search(start, max_rounds=6, try_swaps=False)
        slow = _local_search_full(start, 6, False)
        assert fast.to_dict() == slow.to_dict()

    def test_matches_reference_on_dual_cell(self):
        platform = CellPlatform.qs22_dual()
        g = integer_cost_graph(33, n_min=8, n_max=12)
        start = Mapping.all_on_ppe(g, platform)
        fast = local_search(start, max_rounds=4)
        slow = _local_search_full(start, 4, True)
        assert fast.to_dict() == slow.to_dict()


class TestMetaheuristics:
    def tight_graph(self):
        g = StreamGraph("tight")
        g.add_task(Task("src", wppe=10.0, wspe=20.0))
        for i in range(20):
            g.add_task(Task(f"w{i}", wppe=100.0, wspe=40.0))
            g.add_edge(DataEdge("src", f"w{i}", 9000.0))
        return g

    @pytest.mark.parametrize("strategy", [simulated_annealing, tabu_search])
    def test_feasible_and_no_worse_than_start(self, strategy, qs22):
        g = integer_cost_graph(5, n_min=15, n_max=20)
        result = (
            strategy(g, qs22, iterations=600)
            if strategy is simulated_annealing
            else strategy(g, qs22, rounds=30)
        )
        analysis = analyze(result)
        assert analysis.feasible
        start = critical_path_mapping(g, qs22)
        assert analysis.period <= analyze(start).period

    @pytest.mark.parametrize("strategy", [simulated_annealing, tabu_search])
    def test_never_infeasible_under_tight_memory(self, strategy, qs22):
        g = self.tight_graph()
        result = strategy(g, qs22, seed=2, **(
            {"iterations": 400} if strategy is simulated_annealing else {"rounds": 20}
        ))
        assert analyze(result).feasible

    def test_zero_and_negative_temperature_are_clamped(self, qs22):
        # T=0 must behave as pure greedy acceptance, not divide by zero.
        g = integer_cost_graph(41, n_min=8, n_max=10)
        frozen = simulated_annealing(g, qs22, iterations=200, initial_temperature=0.0)
        assert analyze(frozen).feasible
        cold = simulated_annealing(g, qs22, iterations=200, initial_temperature=-5.0)
        assert analyze(cold).feasible

    def test_deterministic_per_seed(self, qs22):
        g = integer_cost_graph(12, n_min=12, n_max=16)
        a = simulated_annealing(g, qs22, seed=4, iterations=300)
        b = simulated_annealing(g, qs22, seed=4, iterations=300)
        assert a == b
        c = tabu_search(g, qs22, seed=4, rounds=15)
        d = tabu_search(g, qs22, seed=4, rounds=15)
        assert c == d

    def test_escapes_local_optimum_at_least_matches_local_search(self, qs22):
        # Tabu search applies worsening moves, so it must never end worse
        # than the steepest-descent local optimum it also visits.
        g = integer_cost_graph(21, n_min=15, n_max=20)
        start = critical_path_mapping(g, qs22)
        descended = local_search(start, max_rounds=20)
        tabu = tabu_search(g, qs22, start=start, rounds=40)
        assert period(tabu) <= period(descended) * 1.05

    def test_registered_in_strategies(self):
        from repro.experiments import STRATEGIES, build_mapping

        assert "simulated_annealing" in STRATEGIES
        assert "tabu_search" in STRATEGIES
        g = integer_cost_graph(30, n_min=8, n_max=10)
        platform = CellPlatform.qs22().with_spes(2)
        for name in ("simulated_annealing", "tabu_search"):
            mapping = build_mapping(name, g, platform)
            assert analyze(mapping).feasible


class TestBufferMemoization:
    def build(self):
        g = StreamGraph("memo")
        g.add_task(Task("a", wppe=10.0, wspe=5.0))
        g.add_task(Task("b", wppe=10.0, wspe=5.0, peek=1))
        g.add_task(Task("c", wppe=10.0, wspe=5.0))
        g.add_edge(DataEdge("a", "b", 100.0))
        g.add_edge(DataEdge("b", "c", 200.0))
        return g

    def test_cached_and_copied(self):
        g = self.build()
        first = buffer_requirements(g)
        second = buffer_requirements(g)
        assert first == second
        assert first is not second  # callers get private copies
        second["a"] = -1.0  # mutating a copy must not poison the cache
        assert buffer_requirements(g)["a"] == first["a"]

    def test_invalidated_by_graph_mutation(self):
        g = self.build()
        before = buffer_requirements(g)
        g.add_task(Task("d", wppe=1.0, wspe=1.0))
        g.add_edge(DataEdge("c", "d", 50.0))
        after = buffer_requirements(g)
        assert "d" in after
        assert after["c"] != before["c"]

    def test_invalidated_by_edge_replacement(self):
        g = self.build()
        before = buffer_requirements(g)
        g.replace_edge(DataEdge("a", "b", 1000.0))
        after = buffer_requirements(g)
        assert after["a"] != before["a"]

    def test_mapping_dependent_variants_not_cached(self, qs22):
        g = self.build()
        plain = buffer_requirements(g)
        mapping = Mapping.all_on_ppe(g, qs22)
        merged = buffer_requirements(g, mapping, merge_same_pe_buffers=True)
        assert merged["b"] < plain["b"]

    def test_version_counter_tracks_all_mutations(self):
        g = self.build()
        v0 = g.version
        g.replace_task(Task("a", wppe=20.0, wspe=5.0))
        assert g.version == v0 + 1
        g.replace_edge(DataEdge("a", "b", 300.0))
        assert g.version == v0 + 2
