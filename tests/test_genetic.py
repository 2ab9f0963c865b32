"""The genetic-algorithm strategy and metaheuristics under buffer modes.

Covers the population search itself (feasibility, determinism, elitism
floor, golden mappings on the paper graphs, generations scored on PE
rows), its registration in the experiment/CLI strategy registries and
the parallel sweep path, plus the satellite requirement that
``simulated_annealing`` / ``tabu_search`` stay feasible and no worse than
their start under ``elide_local_comm=True`` now that the delta engine
supports the mapping-dependent buffer models.
"""

import os
import sys
from collections import Counter

import pytest

from test_delta import integer_cost_graph

from repro.cli import main_solve
from repro.experiments import STRATEGIES, build_mapping, fig7_speedup
from repro.experiments.common import SEEDED_STRATEGIES
from repro.generator import random_graph_1, random_graph_3
from repro.graph import DataEdge, StreamGraph, Task
from repro.heuristics import (
    critical_path_mapping,
    genetic_algorithm,
    simulated_annealing,
    tabu_search,
)
from repro.platform import CellPlatform
from repro.simulator import SimConfig
from repro.steady_state import DeltaAnalyzer, analyze
from repro.steady_state.backend import BACKEND_ENV_VAR


def tight_graph() -> StreamGraph:
    """A fan-out whose buffers overflow an SPE if placed carelessly."""
    g = StreamGraph("tight")
    g.add_task(Task("src", wppe=10.0, wspe=20.0))
    for i in range(20):
        g.add_task(Task(f"w{i}", wppe=100.0, wspe=40.0))
        g.add_edge(DataEdge("src", f"w{i}", 9000.0))
    return g


#: GA results on the paper graphs (QS22, ``generations=6``), one hex
#: digit per task in ``graph.task_names()`` order: the PE the returned
#: mapping puts it on.  "md" turns both mapping-dependent buffer flags
#: on.  Every kernel selection must reproduce these exactly.
GA_GOLDEN = {
    ("graph1", "default", 0): "00010011235464201521070362142741012835436670431085",
    ("graph1", "default", 1): "00010011235462201521000362142741012835436670431085",
    ("graph1", "default", 2): "00010011235462201521000362142741012835436670431085",
    ("graph1", "md", 0): "00066545108046740206052184705044331165005420007700",
    ("graph1", "md", 1): "60063455718186600386055480321043030624065020586714",
    ("graph1", "md", 2): "75170555332081306172805082611244060465182247340064",
    ("graph3", "default", 0): "08100023143646057820807130500112230245430615214567",
    ("graph3", "default", 1): "00100823145546057820807130000112230245480615214567",
    ("graph3", "default", 2): "00100023143546057820807138500112230245430615214567",
    ("graph3", "md", 0): "00100823143546057820807130500112030245430615214567",
    ("graph3", "md", 1): "00100023143516057823807130500112230245470615214067",
    ("graph3", "md", 2): "00100023141546057820807133500112230245430618214267",
}
GA_GOLDEN_GRAPHS = {"graph1": random_graph_1, "graph3": random_graph_3}


@pytest.mark.parametrize("graph_name, mode, seed", sorted(GA_GOLDEN))
def test_golden_mappings(graph_name, mode, seed, qs22):
    graph = GA_GOLDEN_GRAPHS[graph_name]()
    md = mode == "md"
    result = genetic_algorithm(
        graph,
        qs22,
        seed=seed,
        generations=6,
        elide_local_comm=md,
        merge_same_pe_buffers=md,
    ).to_dict()
    row = "".join(format(result[name], "x") for name in graph.task_names())
    assert row == GA_GOLDEN[graph_name, mode, seed]


@pytest.mark.parametrize("md", (False, True), ids=("default", "md"))
def test_generations_scored_on_rows(monkeypatch, qs22, md):
    """The GA works on PE rows: it never converts dicts to a PE matrix,
    reads single PEs only while mutating and builds an assignment dict
    only when the best-ever individual improves."""
    monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
    watched = ("_assignment_rows", "pe_of", "assignment")
    callers = {name: Counter() for name in watched}

    def counting(name):
        original = getattr(DeltaAnalyzer, name)

        def wrapper(self, *args, **kwargs):
            code = sys._getframe(1).f_code
            module = os.path.basename(code.co_filename)
            callers[name][module, code.co_name] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for name in watched:
        monkeypatch.setattr(DeltaAnalyzer, name, counting(name))
    genetic_algorithm(
        random_graph_1(),
        qs22,
        seed=1,
        generations=4,
        elide_local_comm=md,
        merge_same_pe_buffers=md,
    )
    assert not callers["_assignment_rows"]
    assert set(callers["pe_of"]) == {("extra.py", "mutate")}
    # The md buffer model is re-derived from ``mapping()`` when an
    # analyzer is built; the GA itself asks only in ``track``.
    assert {
        caller for caller in callers["assignment"] if caller[0] == "extra.py"
    } == {("extra.py", "track")}


class TestGeneticAlgorithm:
    def test_feasible_and_no_worse_than_start(self, qs22):
        g = integer_cost_graph(5, n_min=15, n_max=20)
        result = genetic_algorithm(g, qs22, seed=0, generations=12)
        analysis = analyze(result)
        assert analysis.feasible
        start = critical_path_mapping(g, qs22)
        assert analysis.period <= analyze(start).period

    def test_deterministic_per_seed(self, qs22):
        g = integer_cost_graph(12, n_min=12, n_max=16)
        a = genetic_algorithm(g, qs22, seed=4, generations=8)
        b = genetic_algorithm(g, qs22, seed=4, generations=8)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_never_infeasible_under_tight_memory(self, qs22):
        result = genetic_algorithm(
            tight_graph(), qs22, seed=2, generations=8, population_size=10
        )
        assert analyze(result).feasible

    def test_degenerate_platform_returns_start(self):
        platform = CellPlatform.qs22().with_spes(0)
        g = integer_cost_graph(3, n_min=6, n_max=8)
        result = genetic_algorithm(g, platform, seed=1)
        assert analyze(result).feasible
        assert set(result.to_dict().values()) == {0}

    @pytest.mark.parametrize(
        "mode",
        (
            {"elide_local_comm": True},
            {"merge_same_pe_buffers": True},
            {"elide_local_comm": True, "merge_same_pe_buffers": True},
        ),
        ids=("elide", "merge", "elide+merge"),
    )
    def test_feasible_under_mapping_dependent_modes(self, qs22, mode):
        g = integer_cost_graph(9, n_min=12, n_max=16)
        result = genetic_algorithm(g, qs22, seed=3, generations=6, **mode)
        assert analyze(result, **mode).feasible

    def test_registered_in_strategies(self):
        assert "genetic_algorithm" in STRATEGIES
        assert "genetic_algorithm" in SEEDED_STRATEGIES
        g = integer_cost_graph(30, n_min=8, n_max=10)
        platform = CellPlatform.qs22().with_spes(2)
        for seed in (1, 2):
            mapping = build_mapping("genetic_algorithm", g, platform, seed=seed)
            assert analyze(mapping).feasible

    def test_selectable_from_cli(self, capsys, tmp_path):
        from repro.graph import save
        from repro.generator import assign_costs, random_topology

        graph = assign_costs(random_topology(8, seed=21), ccr=0.775, seed=21)
        path = str(save(graph, tmp_path / "graph.json"))
        assert (
            main_solve([path, "--strategy", "genetic_algorithm", "--json"])
            == 0
        )
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        assert payload["throughput_per_s"] > 0

    def test_parallel_sweep_matches_serial(self):
        """fig7 sweep of the GA: identical results for any worker count."""
        g = integer_cost_graph(44, n_min=8, n_max=10)
        platform = CellPlatform.qs22().with_spes(3)
        kwargs = dict(
            spe_counts=(0, 2),
            strategies=("genetic_algorithm",),
            n_instances=120,
            config=SimConfig.ideal(),
            base_platform=platform,
        )
        serial = fig7_speedup.run_one(g, **kwargs)
        fanned = fig7_speedup.run_one(g, jobs=2, **kwargs)
        assert serial.points == fanned.points


class TestMetaheuristicsUnderElide:
    @pytest.mark.parametrize(
        "strategy", (simulated_annealing, tabu_search, genetic_algorithm)
    )
    def test_feasible_and_no_worse_than_start(self, strategy, qs22):
        g = integer_cost_graph(5, n_min=15, n_max=20)
        start = critical_path_mapping(g, qs22)
        budget = (
            {"iterations": 500}
            if strategy is simulated_annealing
            else {"rounds": 25}
            if strategy is tabu_search
            else {"generations": 8}
        )
        result = strategy(
            g, qs22, start=start, seed=1, elide_local_comm=True, **budget
        )
        analysis = analyze(result, elide_local_comm=True)
        assert analysis.feasible
        assert analysis.period <= analyze(start, elide_local_comm=True).period

    @pytest.mark.parametrize("strategy", (simulated_annealing, tabu_search))
    def test_never_infeasible_under_tight_memory(self, strategy, qs22):
        result = strategy(
            tight_graph(),
            qs22,
            seed=2,
            elide_local_comm=True,
            merge_same_pe_buffers=True,
            **(
                {"iterations": 300}
                if strategy is simulated_annealing
                else {"rounds": 15}
            ),
        )
        assert analyze(
            result, elide_local_comm=True, merge_same_pe_buffers=True
        ).feasible

    def test_elision_unlocks_buffer_bound_graphs(self, qs22):
        """A mapping infeasible under duplicated buffers can become
        feasible once local edges are elided — the metaheuristics must be
        able to exploit that headroom rather than fall back to the PPE."""
        g = tight_graph()
        result = tabu_search(
            g, qs22, seed=0, rounds=20,
            elide_local_comm=True, merge_same_pe_buffers=True,
        )
        flagged = analyze(
            result, elide_local_comm=True, merge_same_pe_buffers=True
        )
        assert flagged.feasible
        # And the elided model never reports larger SPE footprints than
        # the paper's duplicated-buffer model for the same mapping.
        plain = analyze(result)
        for spe, used in flagged.buffer_bytes.items():
            assert used <= plain.buffer_bytes[spe]
