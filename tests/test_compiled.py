"""The compiled-kernel layer: ``CompiledGraph`` arrays and the batched API.

Three families of guarantees:

* **structure** — the integer-indexed arrays are a faithful view of the
  graph: name↔index is a bijection preserving insertion order
  (hypothesis property), CSR adjacency matches ``in_edges``/``out_edges``
  edge for edge, incident edge ids follow global edge order (the
  ``buffer_requirements`` accumulation order), and composites carry an
  ``app_index`` that agrees with ``CompositeGraph.app_of``;
* **memoization** — ``compile_graph`` is cached per graph *version*:
  same version returns the same object, any mutation recompiles (the
  version-bump side is audited in ``test_graph_version.py``);
* **batched = scalar** — ``score_moves`` / ``evaluate_moves`` /
  ``best_move`` return exactly the per-candidate verdicts on
  integer-cost graphs, across platforms (incl. dual-Cell BIF links),
  buffer-model modes (where the batched API falls back to the
  per-candidate path) and objectives, interleaved with applies; and the
  incrementally-maintained ``tasks_on`` membership matches the O(V)
  reference after arbitrary move sequences;
* **fast = scalar = analyze** — a hypothesis property suite: on the
  fast engine (``auto``: numpy's dense kernels), every whole-neighbourhood /
  swap-pair / population batch returns bit-identical verdicts to the
  scalar kernel *and* to a fresh ``analyze()`` of the explicitly-built
  candidate mapping, across all four buffer-model modes, the test
  platforms and all three objectives (``tests/test_backend.py`` covers
  the selection layer itself).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_delta import PLATFORMS, integer_cost_graph

from repro.errors import MappingError
from repro.graph import DataEdge, StreamGraph, Task, Workload
from repro.platform import CellPlatform
from repro.steady_state import (
    DeltaAnalyzer,
    Mapping,
    analyze,
    compile_graph,
    make_objective,
)

MODES = (
    {},
    {"elide_local_comm": True},
    {"merge_same_pe_buffers": True},
    {"elide_local_comm": True, "merge_same_pe_buffers": True},
)
MODE_IDS = ("default", "elide", "merge", "elide+merge")


def build_composite(seed: int = 0):
    w = Workload(f"mix{seed}")
    for i in range(3):
        w.add_app(f"app{i}", integer_cost_graph(seed * 10 + i, n_min=4, n_max=8))
    return w.compile()


class TestCompiledStructure:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_name_index_round_trip(self, seed):
        """names[index[n]] == n for every task, in insertion order."""
        g = integer_cost_graph(seed % 1000)
        cg = compile_graph(g)
        assert list(cg.names) == g.task_names()
        assert len(cg.index) == cg.n == g.n_tasks
        for tid, name in enumerate(cg.names):
            assert cg.index[name] == tid
            assert cg.names[cg.index[name]] == name

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_csr_matches_adjacency(self, seed):
        """CSR slices reproduce in_edges/out_edges edge for edge."""
        g = integer_cost_graph(seed % 1000)
        cg = compile_graph(g)
        for tid, name in enumerate(cg.names):
            ins = [
                (cg.names[cg.in_src[k]], cg.in_data[k])
                for k in range(cg.in_ptr[tid], cg.in_ptr[tid + 1])
            ]
            assert ins == [(e.src, e.data) for e in g.in_edges(name)]
            outs = [
                (cg.names[cg.out_dst[k]], cg.out_data[k])
                for k in range(cg.out_ptr[tid], cg.out_ptr[tid + 1])
            ]
            assert outs == [(e.dst, e.data) for e in g.out_edges(name)]

    def test_edge_arrays_follow_insertion_order(self):
        g = integer_cost_graph(7)
        cg = compile_graph(g)
        edges = list(g.edges())
        assert cg.n_edges == len(edges)
        for e, edge in enumerate(edges):
            assert cg.names[cg.edge_src[e]] == edge.src
            assert cg.names[cg.edge_dst[e]] == edge.dst
            assert cg.edge_data[e] == edge.data
            assert cg.edge_keys[e] == edge.key

    def test_incident_ids_follow_global_edge_order(self):
        """inc_eid per task is sorted — the accumulation order
        buffer_requirements uses, the bit-exactness anchor of the
        mapping-dependent modes."""
        g = integer_cost_graph(11)
        cg = compile_graph(g)
        for tid in range(cg.n):
            eids = cg.inc_eid[cg.inc_ptr[tid]:cg.inc_ptr[tid + 1]]
            assert eids == sorted(eids)
            for e in eids:
                assert tid in (cg.edge_src[e], cg.edge_dst[e])

    def test_cost_tables_and_need(self):
        g = integer_cost_graph(3)
        cg = compile_graph(g)
        from repro.steady_state import buffer_requirements

        need = buffer_requirements(g)
        for tid, task in enumerate(g.tasks()):
            assert cg.wppe[tid] == task.wppe
            assert cg.wspe[tid] == task.wspe
            assert cg.read[tid] == task.read
            assert cg.write[tid] == task.write
            assert cg.peek[tid] == task.peek
            assert cg.need_default[tid] == need[task.name]

    def test_plain_graph_has_no_app_index(self):
        cg = compile_graph(integer_cost_graph(5))
        assert cg.app_index is None
        assert cg.app_names == ()

    def test_composite_app_index_agrees_with_app_of(self):
        """The flat app_index reproduces CompositeGraph.app_of exactly."""
        composite = build_composite(2)
        cg = compile_graph(composite)
        assert cg.app_names == composite.app_names
        assert cg.app_index is not None
        for tid, name in enumerate(cg.names):
            assert cg.app_names[cg.app_index[tid]] == composite.app_of[name]


class TestCompiledMemoization:
    def test_same_version_shares_one_compilation(self):
        g = integer_cost_graph(1)
        assert compile_graph(g) is compile_graph(g)

    def test_analyzers_share_the_compilation(self):
        g = integer_cost_graph(1)
        platform = CellPlatform.qs22()
        mapping = Mapping.all_on_ppe(g, platform)
        a = DeltaAnalyzer(mapping)
        b = DeltaAnalyzer(mapping)
        assert a._cg is b._cg is compile_graph(g)
        assert a.clone()._cg is a._cg

    def test_mutation_recompiles(self):
        g = integer_cost_graph(1)
        before = compile_graph(g)
        g.replace_task(Task("t0", wppe=123.0, wspe=45.0))
        after = compile_graph(g)
        assert after is not before
        assert after.version == g.version
        assert after.wppe[after.index["t0"]] == 123.0


def as_move_score(score):
    """The ``MoveScore`` view of an ``ObjectiveScore``."""
    return (score.period, score.feasible, score.n_violations)


def assert_twins_agree(state, rng):
    """Every ``score_*`` method equals the ``MoveScore`` view of its
    ``evaluate_*`` twin called with ``objective=None``, origin entries
    and one-element batches included."""
    names = state.graph.task_names()
    n_pes = state.platform.n_pes
    name = rng.choice(names)
    origin = state.pe_of(name)
    for pe in range(n_pes):
        assert state.score_move(name, pe) == as_move_score(
            state.evaluate_move(name, pe)
        )
    for pes in (None, [origin], rng.sample(range(n_pes), k=3)):
        assert state.score_moves(name, pes) == [
            as_move_score(s) for s in state.evaluate_moves(name, pes)
        ]
    pairs = [tuple(rng.sample(names, 2)) for _ in range(5)] + [(name, name)]
    for a, b in pairs:
        assert state.score_swap(a, b) == as_move_score(state.evaluate_swap(a, b))
    for batch in (pairs, pairs[:1]):
        assert state.score_swaps(batch) == [
            as_move_score(s) for s in state.evaluate_swaps(batch)
        ]
    changes = [
        {},
        {name: origin},
        {name: rng.randrange(n_pes)},
        {t: rng.randrange(n_pes) for t in rng.sample(names, 3)},
    ]
    for ch in changes:
        assert state.score_changes(ch) == as_move_score(state.evaluate_changes(ch))
    for batch in (changes, changes[2:3]):
        assert state.score_assignments(batch) == [
            as_move_score(s) for s in state.evaluate_assignments(batch)
        ]
    for tasks in (None, [name]):
        period, nviol = state.score_move_matrix(tasks)
        rows = state.evaluate_all_moves(tasks)
        assert [list(r) for r in period] == [[s.period for s in r] for r in rows]
        assert [list(r) for r in nviol] == [
            [s.n_violations for s in r] for r in rows
        ]


def manual_best_move(state, tasks, pes, objective, cap):
    """The historical per-candidate ``(value, period)`` scan."""
    current = state.evaluate(objective)
    best = None
    best_key = (current.value, current.period)
    for name in tasks:
        origin = state.pe_of(name)
        for pe in pes:
            if pe == origin:
                continue
            score = state.evaluate_move(name, pe, objective)
            if not score.feasible:
                continue
            if score.period > cap and score.period >= current.period:
                continue
            key = (score.value, score.period)
            if key < best_key:
                best, best_key = (name, pe, score), key
    return best


def assert_best_move_cases(state, rng, objective=None):
    """``best_move`` == the manual scan over whole and partial
    neighbourhoods: all tasks and one task, all PEs and a live subset,
    no cap, a cap the state is under and a cap it is already past."""
    names = state.graph.task_names()
    n_pes = state.platform.n_pes
    live = sorted(rng.sample(range(n_pes), k=n_pes // 2 + 1))
    period = state.period()
    one = [rng.choice(names)]
    for tasks, pes in ((None, None), (None, live), (one, None), (one, live)):
        for cap in (math.inf, period * 1.02, period * 0.5):
            expected = manual_best_move(
                state,
                names if tasks is None else tasks,
                range(n_pes) if pes is None else pes,
                objective,
                cap,
            )
            assert state.best_move(tasks, pes, objective, cap) == expected


class TestBatchedEquivalence:
    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_score_moves_matches_score_move(self, seed, mode):
        """Batched == scalar verdicts, interleaved with random applies;
        every score_* method == its evaluate_* twin, on both engines."""
        g = integer_cost_graph(seed)
        platform = PLATFORMS[seed % len(PLATFORMS)]
        for backend in ("python", "auto"):
            rng = random.Random(9000 + seed)
            twin_rng = random.Random(7000 + seed)
            names = g.task_names()
            state = DeltaAnalyzer(
                Mapping(
                    g, platform,
                    {n: rng.randrange(platform.n_pes) for n in names},
                ),
                backend=backend,
                **mode,
            )
            for _ in range(6):
                name = rng.choice(names)
                batched = state.score_moves(name)
                assert len(batched) == platform.n_pes
                for pe in range(platform.n_pes):
                    assert batched[pe] == state.score_move(name, pe)
                # a custom target list stays aligned with its entries
                subset = rng.sample(range(platform.n_pes), k=3)
                for pe, score in zip(subset, state.score_moves(name, subset)):
                    assert score == state.score_move(name, pe)
                assert_twins_agree(state, twin_rng)
                state.apply_move(
                    rng.choice(names), rng.randrange(platform.n_pes)
                )

    @pytest.mark.parametrize("objective", ("period", "weighted", "max_stretch"))
    @pytest.mark.parametrize("dual", (False, True), ids=("qs22", "dual"))
    def test_evaluate_moves_matches_on_composites(self, objective, dual):
        composite = build_composite(1)
        platform = CellPlatform.qs22_dual() if dual else CellPlatform.qs22()
        obj = make_objective(objective, composite)
        rng = random.Random(31)
        names = composite.task_names()
        state = DeltaAnalyzer(
            Mapping(
                composite, platform,
                {n: rng.randrange(platform.n_pes) for n in names},
            )
        )
        for _ in range(8):
            name = rng.choice(names)
            batched = state.evaluate_moves(name, objective=obj)
            for pe in range(platform.n_pes):
                assert batched[pe] == state.evaluate_move(name, pe, obj)
            state.apply_move(rng.choice(names), rng.randrange(platform.n_pes))

    def test_origin_entry_is_current_score(self):
        g = integer_cost_graph(4)
        platform = CellPlatform.qs22()
        state = DeltaAnalyzer(Mapping.all_on_ppe(g, platform))
        name = g.task_names()[0]
        assert state.score_moves(name)[state.pe_of(name)] == state.score()

    def test_best_move_matches_manual_scan(self):
        """best_move == the historical per-candidate argmin loop, in all
        four buffer modes on both engines, with and without a period cap
        and a live-PE subset, for whole neighbourhoods and one task —
        and under ``weighted`` / ``max_stretch`` on a two-app composite."""
        w = Workload("pair")
        for i in range(2):
            w.add_app(f"app{i}", integer_cost_graph(40 + i, n_min=5, n_max=8))
        composite = w.compile()
        cases = [(integer_cost_graph(20 + seed), None) for seed in range(4)]
        cases += [
            (composite, make_objective(name, composite))
            for name in ("weighted", "max_stretch")
        ]
        for seed, (g, obj) in enumerate(cases):
            platform = PLATFORMS[seed % len(PLATFORMS)]
            names = g.task_names()
            for mode in MODES:
                for backend in ("python", "auto"):
                    rng = random.Random(seed)
                    state = DeltaAnalyzer(
                        Mapping(
                            g, platform,
                            {n: rng.randrange(platform.n_pes) for n in names},
                        ),
                        backend=backend,
                        **mode,
                    )
                    for _ in range(2):
                        assert_best_move_cases(state, rng, obj)
                        state.apply_move(
                            rng.choice(names), rng.randrange(platform.n_pes)
                        )

    def test_validation_errors(self):
        g = integer_cost_graph(2)
        platform = CellPlatform.qs22()
        state = DeltaAnalyzer(Mapping.all_on_ppe(g, platform))
        with pytest.raises(MappingError):
            state.score_moves("missing-task")
        with pytest.raises(MappingError):
            state.score_moves(g.task_names()[0], [0, platform.n_pes])
        with pytest.raises(MappingError):
            state.evaluate_move(g.task_names()[0], -1)


class TestMembership:
    def test_tasks_on_matches_reference_after_moves(self):
        g = integer_cost_graph(8)
        platform = CellPlatform.qs22()
        rng = random.Random(5)
        names = g.task_names()
        state = DeltaAnalyzer(Mapping.all_on_ppe(g, platform))
        for _ in range(60):
            state.apply_move(rng.choice(names), rng.randrange(platform.n_pes))
            mapping = state.mapping()
            for pe in range(platform.n_pes):
                assert state.tasks_on(pe) == mapping.tasks_on(pe)

    def test_clone_membership_is_independent(self):
        g = integer_cost_graph(8)
        platform = CellPlatform.qs22()
        state = DeltaAnalyzer(Mapping.all_on_ppe(g, platform))
        twin = state.clone()
        name = g.task_names()[0]
        state.apply_move(name, 1)
        assert name in state.tasks_on(1)
        assert name not in twin.tasks_on(1)
        assert name in twin.tasks_on(0)

    def test_tasks_on_rejects_bad_pe(self):
        g = integer_cost_graph(8)
        state = DeltaAnalyzer(Mapping.all_on_ppe(g, CellPlatform.qs22()))
        with pytest.raises(MappingError):
            state.tasks_on(99)


class TestNumpyBackendProperty:
    """Hypothesis: fast engine == scalar kernel == fresh ``analyze()``.

    Every example builds one random integer-cost graph, mapping, buffer
    mode and platform, then checks the vectorized batches entry for
    entry against the scalar per-candidate verdicts — plus one
    explicitly-applied candidate against a from-scratch ``analyze()``,
    anchoring both kernels to the reference model."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 500),
        mode_i=st.integers(0, len(MODES) - 1),
        plat_i=st.integers(0, len(PLATFORMS) - 1),
        data=st.data(),
    )
    def test_move_matrix_matches_scalar_and_analyze(
        self, seed, mode_i, plat_i, data
    ):
        g = integer_cost_graph(seed, n_min=5, n_max=9)
        platform = PLATFORMS[plat_i]
        mode = MODES[mode_i]
        names = g.task_names()
        n_pes = platform.n_pes
        assignment = {
            n: data.draw(st.integers(0, n_pes - 1), label=n) for n in names
        }
        mapping = Mapping(g, platform, assignment)
        scalar = DeltaAnalyzer(mapping, backend="python", **mode)
        vector = DeltaAnalyzer(mapping, backend="auto", **mode)

        worst, nviol = vector.score_move_matrix()
        for i, name in enumerate(names):
            for pe, score in enumerate(scalar.score_moves(name)):
                assert float(worst[i][pe]) == score.period
                assert int(nviol[i][pe]) == score.n_violations
        assert vector.best_move() == scalar.best_move()

        # Anchor one candidate to the reference model: apply it on both
        # analyzers and compare the committed state to a fresh analyze().
        name = data.draw(st.sampled_from(names), label="move-task")
        pe = data.draw(st.integers(0, n_pes - 1), label="move-pe")
        scalar.apply_move(name, pe)
        vector.apply_move(name, pe)
        reference = analyze(
            Mapping(g, platform, dict(assignment, **{name: pe})), **mode
        )
        for state in (scalar, vector):
            assert state.period() == reference.period
            assert state.feasible == reference.feasible
        # ...and the matrices re-agree on the mutated state.
        worst, nviol = vector.score_move_matrix()
        ref_w, ref_v = scalar.score_move_matrix()
        for i in range(len(names)):
            for pe in range(n_pes):
                assert float(worst[i][pe]) == float(ref_w[i][pe])
                assert int(nviol[i][pe]) == int(ref_v[i][pe])

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 4),
        objective=st.sampled_from(("period", "weighted", "max_stretch")),
        dual=st.booleans(),
        data=st.data(),
    )
    def test_objective_batches_match_on_composites(
        self, seed, objective, dual, data
    ):
        composite = build_composite(seed)
        platform = CellPlatform.qs22_dual() if dual else CellPlatform.qs22()
        obj = make_objective(objective, composite)
        names = composite.task_names()
        n_pes = platform.n_pes
        assignment = {
            n: data.draw(st.integers(0, n_pes - 1), label=n) for n in names
        }
        mapping = Mapping(composite, platform, assignment)
        scalar = DeltaAnalyzer(mapping, backend="python")
        vector = DeltaAnalyzer(mapping, backend="auto")

        rows = vector.evaluate_all_moves(objective=obj)
        for i, name in enumerate(names):
            assert rows[i] == scalar.evaluate_moves(name, objective=obj)

        pairs = [
            tuple(data.draw(st.permutations(names), label=f"pair{k}")[:2])
            for k in range(4)
        ] + [(names[0], names[0])]
        assert vector.evaluate_swaps(pairs, obj) == [
            scalar.evaluate_swap(a, b, obj) for a, b in pairs
        ]

        candidates = [
            {
                n: data.draw(st.integers(0, n_pes - 1), label=f"cand{k}-{n}")
                for n in data.draw(
                    st.lists(st.sampled_from(names), max_size=5, unique=True),
                    label=f"cand{k}",
                )
            }
            for k in range(3)
        ] + [{}]
        assert vector.evaluate_assignments(candidates, obj) == [
            scalar.evaluate_changes(ch, obj) for ch in candidates
        ]


def make_graph_with_dangling_cache() -> StreamGraph:
    g = StreamGraph("cached")
    g.add_task(Task("a", wppe=1.0, wspe=1.0))
    g.add_task(Task("b", wppe=1.0, wspe=1.0))
    g.add_edge(DataEdge("a", "b", 64.0))
    return g


def test_cache_does_not_leak_across_id_reuse():
    """A new graph reusing a dead graph's id() must not see its arrays."""
    g = make_graph_with_dangling_cache()
    cg = compile_graph(g)
    assert cg.n == 2
    # A second, different graph never returns the first one's compilation.
    h = integer_cost_graph(99)
    assert compile_graph(h) is not cg
    assert compile_graph(h).n == h.n_tasks
