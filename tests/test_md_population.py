"""Dense population passes and shared target sweeps in the
mapping-dependent buffer models.

Two exact optimisations of the ``elide_local_comm`` /
``merge_same_pe_buffers`` scoring paths, each checked against the code
it stands in for:

* **dense md population pass** — on the numpy engine,
  ``score_assignments`` / ``evaluate_assignments`` derive every
  candidate's ``firstPeriod``, edge sizes and per-task footprints in one
  matrix pass.  Each row must equal a fresh ``analyze()`` of the
  candidate mapping bit for bit — on float-cost graphs too, with peeks,
  several sources, no edges or a single task, on one and two Cells, for
  change sets from ``{}`` to whole mappings — and, on integer-cost
  graphs, the ``python`` engine's per-candidate ``score_changes``.  On
  composites, objectives that read per-app periods get ``analyze()``'s;
* **shared md sweep** — ``score_moves`` / ``evaluate_moves`` derive the
  buffer model once for all targets that host none of the task's
  neighbours.  Every sweep must equal a per-target ``_deltas_ids``
  loop bit for bit, including a crafted case whose neighbour-free target
  hosts two residents whose footprints change (the per-SPE float sum
  depends on the assembly order, pinned here by hand) and a target that
  hosts a neighbour (whose model differs from the shared one).
"""

import contextlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_delta import integer_cost_graph

from repro.graph import DataEdge, StreamGraph, Task, Workload
from repro.platform import CellPlatform
from repro.steady_state import (
    NO_EXTENSION_ENV_VAR,
    DeltaAnalyzer,
    Mapping,
    analyze,
    make_objective,
)
from repro.steady_state.periods import buffer_requirements

MD_MODES = (
    {"elide_local_comm": True},
    {"merge_same_pe_buffers": True},
    {"elide_local_comm": True, "merge_same_pe_buffers": True},
)
MD_IDS = ("elide", "merge", "elide+merge")
PLATFORMS = {"qs22": CellPlatform.qs22(), "dual": CellPlatform.qs22_dual()}


@contextlib.contextmanager
def engine(label):
    """Analyzers built in the body resolve to ``label``: ``numpy`` is the
    fast engine with the compiled extension hidden."""
    with pytest.MonkeyPatch.context() as mp:
        if label == "numpy":
            mp.setenv(NO_EXTENSION_ENV_VAR, "1")
        yield "python" if label == "python" else "auto"


def analyzer(mapping, label, **mode):
    with engine(label) as backend:
        state = DeltaAnalyzer(mapping, backend=backend, **mode)
    assert state.backend == label
    return state


def float_dag(seed: int, n: int, edges: bool = True) -> StreamGraph:
    """A random DAG with non-integer costs and payloads, peeks and
    (usually) several sources; payloads large enough that some buffer
    windows overflow a local store.  Edges are inserted in random order,
    so a task's in- and out-edges interleave in the global edge order
    the footprint sums follow."""
    rng = random.Random(seed)
    g = StreamGraph(f"fdag{seed}")
    names = [f"t{i}" for i in range(n)]
    for name in names:
        g.add_task(
            Task(
                name,
                wppe=rng.uniform(5.0, 900.0),
                wspe=rng.uniform(5.0, 2000.0),
                read=rng.choice([0.0, rng.uniform(1.0, 4096.0)]),
                write=rng.choice([0.0, rng.uniform(1.0, 4096.0)]),
                peek=rng.choice([0, 0, 1, 2, 3]),
            )
        )
    if edges:
        pairs = [
            (i, j)
            for j in range(1, n)
            for i in rng.sample(range(j), k=min(j, rng.randint(0, 3)))
        ]
        rng.shuffle(pairs)
        for i, j in pairs:
            g.add_edge(DataEdge(names[i], names[j], rng.uniform(1.0, 3e4)))
    return g


def candidates(names, n_pes, rng):
    """``{}``, sparse change sets and whole mappings."""
    sparse = [
        {t: rng.randrange(n_pes) for t in rng.sample(names, min(2, len(names)))}
        for _ in range(3)
    ]
    whole = [{t: rng.randrange(n_pes) for t in names} for _ in range(3)]
    return [{}] + sparse + whole


def reference(graph, platform, base, changes, mode):
    return analyze(Mapping(graph, platform, dict(base, **changes)), **mode)


# ---------------------------------------------------------------------- #
# Dense md population pass


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 14),
    edges=st.booleans(),
    mode=st.sampled_from(MD_MODES),
    platform=st.sampled_from(sorted(PLATFORMS)),
)
@example(seed=0, n=1, edges=True, mode=MD_MODES[2], platform="qs22")
@example(seed=1, n=6, edges=False, mode=MD_MODES[0], platform="dual")
def test_dense_population_matches_analyze_on_float_graphs(
    seed, n, edges, mode, platform
):
    graph = float_dag(seed, n, edges)
    plat = PLATFORMS[platform]
    rng = random.Random(seed)
    names = graph.task_names()
    base = {t: rng.randrange(plat.n_pes) for t in names}
    state = analyzer(Mapping(graph, plat, base), "numpy", **mode)
    cands = candidates(names, plat.n_pes, rng)
    scores = state.score_assignments(cands)
    values = state.evaluate_assignments(cands)
    assert state._dense_kernel is not None  # the dense pass ran
    # The per-task footprints themselves, not only the verdicts they
    # decide: buffer_requirements()'s floats, row by row.
    need = state._dense_kernel._md_need(state._assignment_rows(cands))
    for changes, row in zip(cands, need):
        mapping = Mapping(graph, plat, dict(base, **changes))
        ref_need = buffer_requirements(graph, mapping, **mode)
        assert row.tolist() == [ref_need[t] for t in names]
    for changes, score, value in zip(cands, scores, values):
        ref = reference(graph, plat, base, changes, mode)
        assert score.period == ref.period
        assert score.n_violations == len(ref.violations)
        assert score.feasible == ref.feasible
        assert (value.value, value.period, value.n_violations) == (
            ref.period,
            ref.period,
            len(ref.violations),
        )


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("mode", MD_MODES, ids=MD_IDS)
@pytest.mark.parametrize("seed", range(4))
def test_dense_population_matches_scalar_on_integer_graphs(seed, mode, platform):
    graph = integer_cost_graph(seed, n_min=6, n_max=16)
    plat = PLATFORMS[platform]
    rng = random.Random(seed)
    names = graph.task_names()
    mapping = Mapping(graph, plat, {t: rng.randrange(plat.n_pes) for t in names})
    dense = analyzer(mapping, "numpy", **mode)
    scalar = analyzer(mapping, "python", **mode)
    cands = candidates(names, plat.n_pes, rng)
    assert dense.score_assignments(cands) == [
        scalar.score_changes(ch) for ch in cands
    ]
    assert dense.evaluate_assignments(cands) == [
        scalar.evaluate_changes(ch) for ch in cands
    ]
    assert dense._dense_kernel is not None


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    objective=st.sampled_from(("weighted", "max_stretch")),
    mode=st.sampled_from(MD_MODES),
    platform=st.sampled_from(sorted(PLATFORMS)),
)
def test_dense_population_app_periods_on_composites(
    seed, objective, mode, platform
):
    w = Workload(f"fmix{seed}")
    for i in range(3):
        w.add_app(f"app{i}", float_dag(seed + i, 3 + i), weight=1.0 + i)
    graph = w.compile()
    plat = PLATFORMS[platform]
    obj = make_objective(objective, graph)
    rng = random.Random(seed)
    names = graph.task_names()
    base = {t: rng.randrange(plat.n_pes) for t in names}
    state = analyzer(Mapping(graph, plat, base), "numpy", **mode)
    cands = candidates(names, plat.n_pes, rng)
    for changes, score in zip(cands, state.evaluate_assignments(cands, obj)):
        ref = reference(graph, plat, base, changes, mode)
        assert score.value == obj.value(ref.period, ref.app_periods)
        assert (score.period, score.n_violations) == (
            ref.period,
            len(ref.violations),
        )


# ---------------------------------------------------------------------- #
# Shared md target sweeps


def per_target(state, tid, pes):
    origin = state._pe[tid]
    return [None if pe == origin else state._deltas_ids({tid: pe}) for pe in pes]


def assert_sweeps_match(state):
    """Every task's sweep equals the per-target delta loop bit for bit:
    the deltas themselves, and the public verdicts built from them."""
    pes = list(range(state.platform.n_pes))
    for name in state.graph.task_names():
        tid = state._tid(name)
        ref = per_target(state, tid, pes)
        assert state._sweep_deltas(tid, pes) == ref
        assert state.score_moves(name) == [
            state._judge(d, None, False) for d in ref
        ]
        assert state.evaluate_moves(name) == [
            state._judge(d, None, True) for d in ref
        ]


@pytest.mark.parametrize("label", ["python", "numpy"])
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("mode", MD_MODES, ids=MD_IDS)
@pytest.mark.parametrize("seed", range(3))
def test_md_sweeps_match_per_target_deltas(seed, mode, platform, label):
    """Random float graphs, interleaved with applies."""
    graph = float_dag(seed, 12)
    plat = PLATFORMS[platform]
    rng = random.Random(seed)
    names = graph.task_names()
    mapping = Mapping(graph, plat, {t: rng.randrange(plat.n_pes) for t in names})
    state = analyzer(mapping, label, **mode)
    for _ in range(3):
        assert_sweeps_match(state)
        state.apply_move(rng.choice(names), rng.randrange(plat.n_pes))


def order_sensitive_graph():
    """Moving ``t`` off ``a``'s PE lengthens its first period by one
    (under elision), which shrinks ``x → r1`` and ``x → r2`` by 0.5
    bytes each while ``t``'s own footprint grows to 2**53.  ``r1`` and
    ``r2`` keep their first period (the ``y`` chain dominates).

    Placement: a, t on SPE 1; x on SPE 2; the y chain alternates SPEs 3
    and 4; r1, r2 on SPE 5 — a target hosting none of t's neighbours."""
    g = StreamGraph("order")
    for name in ("a", "t", "x", "y0", "y1", "y2", "y3", "r1", "r2"):
        g.add_task(Task(name, wppe=10.0, wspe=10.0))
    for src, dst, data in (
        ("a", "t", 2.0**52 - 1),
        ("t", "x", 1.0),
        ("x", "r1", 0.5),
        ("x", "r2", 0.5),
        ("y0", "y1", 1.0),
        ("y1", "y2", 1.0),
        ("y2", "y3", 1.0),
        ("y3", "r1", 1.0),
        ("y3", "r2", 1.0),
    ):
        g.add_edge(DataEdge(src, dst, data))
    placement = dict(a=1, t=1, x=2, y0=3, y1=4, y2=3, y3=4, r1=5, r2=5)
    return Mapping(g, CellPlatform.qs22(), placement)


@pytest.mark.parametrize("label", ["python", "numpy"])
@pytest.mark.parametrize(
    "mode", [MD_MODES[0], MD_MODES[2]], ids=["elide", "elide+merge"]
)
def test_shared_sweep_keeps_the_buffer_assembly_order(mode, label):
    state = analyzer(order_sensitive_graph(), label, **mode)
    tid = state._tid("t")
    pes = list(range(state.platform.n_pes))
    sweep = state._sweep_deltas(tid, pes)
    assert sweep == per_target(state, tid, pes)
    # SPE 5 is neighbour-free but hosts r1 and r2, whose footprints
    # change: the moved task's 2**53 first, then -0.5 twice, each step
    # rounding back to 2**53 — the residents first would give 2**53 - 1.
    fp_new, _esize, need_new = sweep[5][9]
    assert fp_new[tid] == 2
    assert need_new[tid] == 2.0**53
    assert need_new[state._tid("r1")] == need_new[state._tid("r2")] == 4.0
    assert sweep[5][4][5] == 2.0**53
    # SPE 2 hosts the consumer x: its model is not the shared one.
    assert sweep[2][9] != sweep[5][9]
    assert sweep[3][9] == sweep[5][9]
    assert_sweeps_match(state)
