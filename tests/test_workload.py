"""Workload layer: composite semantics, per-app analysis, delta parity,
and the pluggable objective layer.

The acceptance bar for the co-scheduling refactor: on a 3-application
workload, ``DeltaAnalyzer.snapshot()`` must stay bit-identical to the
flagged ``analyze()`` in **all** buffer-model modes across hundreds of
randomized move/swap sequences (4 modes × 6 seeds × 10 applies = 240
verified sequences per run), per-app periods included.
"""

import random

import pytest

from repro.apps import audio_encoder, crypto_pipeline, video_pipeline
from repro.errors import ObjectiveError, WorkloadError
from repro.graph import CompositeGraph, StreamGraph, Task, Workload
from repro.heuristics import (
    genetic_algorithm,
    local_search,
    simulated_annealing,
    tabu_search,
)
from repro.platform import CellPlatform
from repro.steady_state import (
    OBJECTIVES,
    DeltaAnalyzer,
    Mapping,
    analyze,
    make_objective,
)
from repro.steady_state.objective import reference_periods
from repro.steady_state.reference import _local_search_full

#: The four buffer-model configurations the delta engine supports.
ALL_MODES = (
    {},
    {"elide_local_comm": True},
    {"merge_same_pe_buffers": True},
    {"elide_local_comm": True, "merge_same_pe_buffers": True},
)
MODE_IDS = ("default", "elide", "merge", "elide+merge")

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


def three_app_workload() -> Workload:
    """The canonical 3-app mix (36 tasks, all integer-valued costs)."""
    w = Workload("mix3")
    w.add_app("audio", audio_encoder(), weight=2.0)
    w.add_app("video", video_pipeline(), weight=1.0, target_period=2000.0)
    w.add_app("crypto", crypto_pipeline(), weight=0.5)
    return w


@pytest.fixture(scope="module")
def composite() -> CompositeGraph:
    return three_app_workload().compile()


# ---------------------------------------------------------------------- #
# Composite-graph semantics


class TestCompositeSemantics:
    def test_namespacing_and_bookkeeping(self, composite):
        assert composite.app_names == ("audio", "video", "crypto")
        assert composite.n_tasks == (
            audio_encoder().n_tasks
            + video_pipeline().n_tasks
            + crypto_pipeline().n_tasks
        )
        for app in composite.app_names:
            names = composite.app_tasks[app]
            assert names, f"app {app} has no tasks"
            for name in names:
                assert name.startswith(app + ":")
                assert composite.app_of[name] == app
                assert composite.app_of_task(name) == app
            # Source/sink bookkeeping matches the member graph's.
            assert composite.app_sources[app]
            assert composite.app_sinks[app]
            for source in composite.app_sources[app]:
                assert composite.in_degree(source) == 0
            for sink in composite.app_sinks[app]:
                assert composite.out_degree(sink) == 0
        assert composite.app_weights == {
            "audio": 2.0, "video": 1.0, "crypto": 0.5,
        }
        assert composite.app_targets["video"] == 2000.0
        assert composite.app_targets["audio"] is None

    def test_no_cross_app_edges(self, composite):
        for edge in composite.edges():
            assert composite.app_of[edge.src] == composite.app_of[edge.dst]

    def test_edge_and_cost_fidelity(self, composite):
        """Each member survives namespacing with costs and edges intact."""
        audio = audio_encoder()
        assert composite.n_edges >= audio.n_edges
        for edge in audio.edges():
            mirrored = composite.edge("audio:" + edge.src, "audio:" + edge.dst)
            assert mirrored.data == edge.data
        for task in audio.tasks():
            mirrored = composite.task("audio:" + task.name)
            assert mirrored.wppe == task.wppe
            assert mirrored.wspe == task.wspe
            assert mirrored.peek == task.peek

    def test_compile_memoized_until_mutation(self):
        w = three_app_workload()
        first = w.compile()
        assert w.compile() is first  # same version, cached object
        member = w.app("audio").graph
        member.replace_task(member.task("framing"))
        second = w.compile()
        assert second is not first

    def test_duplicate_and_invalid_apps_rejected(self):
        w = Workload()
        g = StreamGraph("g")
        g.add_task(Task("a", wppe=1.0, wspe=1.0))
        w.add_app("g", g)
        with pytest.raises(WorkloadError, match="duplicate"):
            w.add_app("g", g)
        with pytest.raises(WorkloadError, match="weight"):
            w.add_app("h", g, weight=0.0)
        with pytest.raises(WorkloadError, match="target_period"):
            w.add_app("h", g, target_period=-1.0)
        with pytest.raises(WorkloadError, match="no application"):
            Workload("empty").compile()

    def test_from_graphs_and_weight_mismatch(self):
        graphs = [audio_encoder(), crypto_pipeline()]
        w = Workload.from_graphs(graphs, weights=[1.0, 3.0])
        assert w.app_names() == ["audio-encoder", "crypto-pipeline"]
        assert w.app("crypto-pipeline").weight == 3.0
        with pytest.raises(WorkloadError, match="weights"):
            Workload.from_graphs(graphs, weights=[1.0])

    def test_composite_usable_by_existing_layers(self, composite):
        """The whole point: a composite is a plain StreamGraph downstream."""
        platform = CellPlatform.qs22()
        mapping = Mapping.all_on_ppe(composite, platform)
        analysis = analyze(mapping)
        assert analysis.feasible
        # All three apps run on one PPE: each app's own period is its
        # compute sum there, and the shared period is the total.
        assert analysis.period == pytest.approx(
            sum(analysis.app_periods.values())
        )


# ---------------------------------------------------------------------- #
# Per-app periods in analyze()


class TestAppPeriods:
    def test_plain_graph_has_no_app_periods(self, composite):
        mapping = Mapping.all_on_ppe(audio_encoder(), CellPlatform.qs22())
        assert analyze(mapping).app_periods == {}

    def test_app_period_never_beats_shared_period(self, composite):
        platform = CellPlatform.qs22()
        rng = random.Random(7)
        names = composite.task_names()
        for _ in range(5):
            mapping = Mapping(
                composite,
                platform,
                {n: rng.randrange(platform.n_pes) for n in names},
            )
            analysis = analyze(mapping)
            assert set(analysis.app_periods) == set(composite.app_names)
            for app_period in analysis.app_periods.values():
                assert app_period <= analysis.period + 1e-12

    def test_single_app_workload_app_period_equals_period(self):
        w = Workload("solo")
        w.add_app("only", crypto_pipeline())
        composite = w.compile()
        platform = CellPlatform.qs22()
        rng = random.Random(3)
        mapping = Mapping(
            composite,
            platform,
            {
                n: rng.randrange(platform.n_pes)
                for n in composite.task_names()
            },
        )
        analysis = analyze(mapping)
        assert analysis.app_periods == {"only": analysis.period}

    def test_report_mentions_apps(self, composite):
        mapping = Mapping.all_on_ppe(composite, CellPlatform.qs22())
        report = analyze(mapping).report()
        for app in composite.app_names:
            assert app in report


# ---------------------------------------------------------------------- #
# Delta parity on composites — the acceptance bar


def assert_snapshot_matches(state: DeltaAnalyzer) -> None:
    """snapshot() must equal the flagged analyze() bit for bit."""
    snap = state.snapshot()
    full = analyze(
        state.mapping(),
        elide_local_comm=state.elide_local_comm,
        merge_same_pe_buffers=state.merge_same_pe_buffers,
    )
    assert snap.period == full.period
    assert snap.app_periods == full.app_periods
    assert snap.loads == full.loads
    assert snap.violations == full.violations
    assert snap.buffer_bytes == full.buffer_bytes
    assert snap.dma_in == full.dma_in
    assert snap.dma_proxy == full.dma_proxy
    assert snap.link_loads == full.link_loads
    assert snap.feasible == full.feasible
    assert snap.mapping == full.mapping


class TestCompositeDeltaParity:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_sequences_bit_identical(self, composite, mode, seed):
        """4 modes x 6 seeds x 10 applies = 240 verified sequences."""
        platform = PLATFORMS[seed % len(PLATFORMS)]
        rng = random.Random(9000 + seed)
        names = composite.task_names()
        state = DeltaAnalyzer(
            Mapping(
                composite,
                platform,
                {n: rng.randrange(platform.n_pes) for n in names},
            ),
            **mode,
        )
        assert_snapshot_matches(state)
        obj = make_objective("weighted", composite)
        for _step in range(10):
            if rng.random() < 0.35:
                a, b = rng.sample(names, 2)
                if state.pe_of(a) == state.pe_of(b):
                    continue
                candidate = (
                    state.mapping()
                    .with_assignment(a, state.pe_of(b))
                    .with_assignment(b, state.pe_of(a))
                )
                reference = analyze(candidate, **mode)
                score = state.evaluate_swap(a, b, obj)
                assert score.period == reference.period
                assert score.feasible == reference.feasible
                assert score.value == obj.value(
                    reference.period, reference.app_periods
                )
                state.apply_swap(a, b)
            else:
                task = rng.choice(names)
                pe = rng.randrange(platform.n_pes)
                reference = analyze(
                    state.mapping().with_assignment(task, pe), **mode
                )
                score = state.evaluate_move(task, pe, obj)
                assert score.period == reference.period
                assert score.feasible == reference.feasible
                assert score.value == obj.value(
                    reference.period, reference.app_periods
                )
                state.apply_move(task, pe)
            assert_snapshot_matches(state)

    @pytest.mark.parametrize("mode", ALL_MODES, ids=MODE_IDS)
    def test_clone_and_bulk_changes(self, composite, mode):
        """clone() + score_changes/apply_changes parity on composites."""
        platform = CellPlatform.qs22_dual()
        rng = random.Random(77)
        names = composite.task_names()
        state = DeltaAnalyzer(
            Mapping(
                composite,
                platform,
                {n: rng.randrange(platform.n_pes) for n in names},
            ),
            **mode,
        )
        clone = state.clone()
        changes = {
            n: rng.randrange(platform.n_pes) for n in rng.sample(names, 8)
        }
        score = clone.score_changes(changes)
        clone.apply_changes(changes)
        assert clone.period() == score.period
        assert_snapshot_matches(clone)
        # The original is untouched.
        assert state.assignment() != clone.assignment()
        assert_snapshot_matches(state)

    def test_app_periods_track_resync(self, composite):
        """resync() leaves per-app sums exactly where analyze puts them."""
        platform = CellPlatform.qs22()
        rng = random.Random(5)
        names = composite.task_names()
        state = DeltaAnalyzer(
            Mapping(
                composite,
                platform,
                {n: rng.randrange(platform.n_pes) for n in names},
            )
        )
        for _ in range(30):
            state.apply_move(rng.choice(names), rng.randrange(platform.n_pes))
        state.resync()
        assert_snapshot_matches(state)
        assert state.app_periods() == analyze(state.mapping()).app_periods


# ---------------------------------------------------------------------- #
# Objective layer


class TestObjectives:
    def test_registry_and_unknown_objective(self, composite):
        assert OBJECTIVES == ("period", "weighted", "max_stretch")
        with pytest.raises(ObjectiveError, match="unknown objective"):
            make_objective("fastest", composite)

    def test_period_objective_is_default_everywhere(self, composite):
        obj = make_objective("period", composite)
        assert not obj.needs_app_periods
        assert obj.value(42.0, None) == 42.0

    def test_plain_graph_collapses_to_period(self):
        graph = audio_encoder()
        for name in OBJECTIVES:
            obj = make_objective(name, graph)
            assert not obj.needs_app_periods
            assert obj.value(7.0, {}) == 7.0

    def test_weighted_value(self, composite):
        obj = make_objective("weighted", composite)
        app_periods = {"audio": 100.0, "video": 10.0, "crypto": 4.0}
        assert obj.value(123.0, app_periods) == pytest.approx(
            2.0 * 100.0 + 1.0 * 10.0 + 0.5 * 4.0
        )

    def test_max_stretch_uses_targets_and_bounds(self, composite):
        refs = reference_periods(composite)
        assert refs["video"] == 2000.0  # declared target wins
        audio = audio_encoder()
        expected = max(min(t.wppe, t.wspe) for t in audio.tasks())
        assert refs["audio"] == expected  # graph-derived lower bound
        obj = make_objective("max_stretch", composite)
        app_periods = {
            "audio": refs["audio"] * 3.0,
            "video": 2000.0,
            "crypto": refs["crypto"],
        }
        assert obj.value(0.0, app_periods) == pytest.approx(3.0)

    def test_reference_periods_reject_plain_graph(self):
        with pytest.raises(ObjectiveError, match="not a workload composite"):
            reference_periods(audio_encoder())

    def test_reference_periods_mixed_targets(self):
        """Apps with and without targets coexist: declared targets are
        honoured verbatim, the rest fall back to the graph-derived lower
        bound — the exact split admission control decides on."""
        w = Workload("mixed")
        w.add_app("qos", audio_encoder(), target_period=1234.5)
        w.add_app("besteffort", video_pipeline())  # no target
        w.add_app("tight", crypto_pipeline(), target_period=1.0)
        refs = reference_periods(w.compile())
        assert set(refs) == {"qos", "besteffort", "tight"}
        assert refs["qos"] == 1234.5
        assert refs["tight"] == 1.0  # even tighter than the lower bound
        video = video_pipeline()
        assert refs["besteffort"] == max(
            min(t.wppe, t.wspe) for t in video.tasks()
        )
        assert all(ref > 0 for ref in refs.values())

    def test_reference_periods_degenerate_bound_clamped(self):
        """A zero-cost best-effort app still gets a positive (finite-
        stretch) reference."""
        g = StreamGraph("free")
        # min(wppe, wspe) == 0: the naive lower bound degenerates to zero.
        g.add_task(Task("noop", wppe=1.0, wspe=0.0))
        w = Workload("clamp")
        w.add_app("free", g)
        w.add_app("paid", audio_encoder(), target_period=500.0)
        refs = reference_periods(w.compile())
        assert refs["free"] > 0  # clamped away from zero
        assert refs["paid"] == 500.0
        # The max_stretch objective stays finite with the clamped ref.
        obj = make_objective("max_stretch", w.compile())
        value = obj.value(0.0, {"free": 0.0, "paid": 250.0})
        assert value == pytest.approx(0.5)


# ---------------------------------------------------------------------- #
# Objective-aware heuristics on composites


HEURISTIC_CASES = (
    ("weighted", simulated_annealing),
    ("weighted", tabu_search),
    ("weighted", genetic_algorithm),
    ("max_stretch", simulated_annealing),
    ("max_stretch", tabu_search),
    ("max_stretch", genetic_algorithm),
)


class TestObjectiveHeuristics:
    @pytest.mark.parametrize(
        "objective,heuristic",
        HEURISTIC_CASES,
        ids=[f"{o}-{h.__name__}" for o, h in HEURISTIC_CASES],
    )
    def test_feasible_and_deterministic(self, composite, objective, heuristic):
        platform = CellPlatform.qs22().with_spes(4)
        kwargs = dict(seed=11, objective=objective)
        if heuristic is simulated_annealing:
            kwargs["iterations"] = 300
        elif heuristic is tabu_search:
            kwargs["rounds"] = 8
        else:
            kwargs.update(generations=3, population_size=8)
        first = heuristic(composite, platform, **kwargs)
        second = heuristic(composite, platform, **kwargs)
        assert first.to_dict() == second.to_dict()  # deterministic per seed
        assert analyze(first).feasible  # feasible-only contract

    def test_local_search_improves_objective_not_worse(self, composite):
        platform = CellPlatform.qs22().with_spes(4)
        start = Mapping.all_on_ppe(composite, platform)
        obj = make_objective("weighted", composite)
        before = obj.value(
            analyze(start).period, analyze(start).app_periods
        )
        refined = local_search(
            start, max_rounds=3, try_swaps=False, objective="weighted"
        )
        analysis = analyze(refined)
        after = obj.value(analysis.period, analysis.app_periods)
        assert analysis.feasible
        assert after <= before

    def test_local_search_full_path_matches_delta_path(self, composite):
        """The full-analyze() oracle ranks by the same values."""
        platform = CellPlatform.qs22().with_spes(2)
        start = Mapping.all_on_ppe(composite, platform)
        fast = local_search(
            start, max_rounds=2, try_swaps=False, objective="max_stretch"
        )
        slow = _local_search_full(
            start, 2, False, obj=make_objective("max_stretch", composite)
        )
        assert fast.to_dict() == slow.to_dict()

    def test_weighted_objective_shifts_the_optimum(self):
        """A heavily-weighted app drags resources toward itself: its own
        period under the weighted optimum is no worse than under the
        period optimum (sanity that the objective actually steers)."""
        w = Workload("skew")
        w.add_app("hot", audio_encoder(), weight=100.0)
        w.add_app("cold", video_pipeline(), weight=0.01)
        composite = w.compile()
        platform = CellPlatform.qs22().with_spes(3)
        by_period = tabu_search(
            composite, platform, seed=2, rounds=12, objective="period"
        )
        by_weight = tabu_search(
            composite, platform, seed=2, rounds=12, objective="weighted"
        )
        hot_period = analyze(by_weight).app_periods["hot"]
        hot_baseline = analyze(by_period).app_periods["hot"]
        assert hot_period <= hot_baseline + 1e-9
