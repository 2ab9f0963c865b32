"""Composite assembly from per-app blocks: exact, field for field.

``Workload.compile`` keeps one namespaced block per application (its
prefixed tasks and edges plus its member ``CompiledGraph``), and
``compile_graph`` assembles a fresh composite's ``CompiledGraph`` by
concatenating the member compilations with index offsets.  The contract
pinned here:

* after every workload operation the online runtime performs —
  ``add_app``, ``remove_app``, ``replace_graph`` with a ``scaled()``
  copy and the swap back to the original object, a member mutation —
  the assembled ``CompiledGraph`` equals ``CompiledGraph(composite)`` in
  every slot, element types included, and so do the numpy ``arrays()``;
* a composite mutated after ``compile()`` built it takes the full build;
* blocks are reused while their member is unchanged and rebuilt when it
  changes.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import DataEdge, StreamGraph, Task, Workload
from repro.obs import metrics
from repro.steady_state import compile_graph
from repro.steady_state.compiled import CompiledGraph, _assemble

SLOTS = tuple(s for s in CompiledGraph.__slots__ if s != "_np")


def random_dag(seed: int, float_costs: bool, n_max: int = 7) -> StreamGraph:
    """A random DAG, usually with several sources; ``int`` or ``float``
    costs and payloads (element types must survive assembly)."""
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    num = (lambda a, b: rng.uniform(a, b)) if float_costs else rng.randint
    g = StreamGraph(f"dag{seed}")
    names = [f"t{i}" for i in range(n)]
    for i, name in enumerate(names):
        g.add_task(
            Task(
                name,
                wppe=num(1, 900),
                wspe=num(1, 900),
                read=rng.choice([0, 0, 256, num(1, 512)]),
                write=rng.choice([0, 0, num(1, 512)]),
                peek=rng.choice([0, 0, 1, 2]),
            )
        )
        for p in range(i):
            if rng.random() < 0.35:
                g.add_edge(DataEdge(names[p], name, num(0, 4096)))
    return g


def assert_same_compiled(got: CompiledGraph, want: CompiledGraph) -> None:
    for slot in SLOTS:
        a, b = getattr(got, slot), getattr(want, slot)
        assert type(a) is type(b), slot
        assert a == b, slot
        if isinstance(a, (list, tuple)):
            assert [type(x) for x in a] == [type(x) for x in b], slot
        elif isinstance(a, dict):
            assert list(a.items()) == list(b.items()), slot


def assert_same_arrays(got: CompiledGraph, want: CompiledGraph) -> None:
    a, b = vars(got.arrays()), vars(want.arrays())
    assert a.keys() == b.keys()
    for key, value in a.items():
        other = b[key]
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype, key
            assert np.array_equal(value, other), key
        else:
            assert value == other, key


def assert_assembled_exact(workload: Workload) -> None:
    composite = workload.compile()
    blocks = composite.member_blocks()
    assert blocks is not None
    full = CompiledGraph(composite)
    assembled = _assemble(composite, blocks)
    assert_same_compiled(assembled, full)
    assert_same_arrays(assembled, full)
    assert_same_compiled(compile_graph(composite), full)


#: One workload operation: (kind, app slot, graph seed, float costs).
OPS = st.tuples(
    st.sampled_from(["add", "add", "remove", "perturb", "restore", "mutate"]),
    st.integers(0, 5),
    st.integers(0, 10**6),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=14))
def test_assembly_exact_under_churn(ops):
    """Random 1–6-app workloads under add/remove/replace/mutate cycles,
    app names reused across cycles."""
    w = Workload("churn")
    originals = {}
    for kind, slot, seed, float_costs in ops:
        name = f"app{slot}"
        if kind == "add":
            if name in w:
                continue
            w.add_app(name, random_dag(seed, float_costs))
        elif name not in w:
            continue
        elif kind == "remove":
            w.remove_app(name)
            originals.pop(name, None)
        elif kind == "perturb":
            graph = w.app(name).graph
            originals.setdefault(name, graph)
            w.replace_graph(name, graph.scaled(1.0 + (seed % 7) / 8.0))
        elif kind == "restore":
            if name in originals:
                w.replace_graph(name, originals.pop(name))
        else:
            graph = w.app(name).graph
            task = graph.task(graph.task_names()[seed % graph.n_tasks])
            graph.replace_task(task.scaled(1.5))
            if seed % 2 and f"x{seed}" not in graph:  # names stay unique
                graph.add_task(Task(f"x{seed}", wppe=3, wspe=4.5))
                graph.add_edge(DataEdge(task.name, f"x{seed}", 100))
        if len(w):
            assert_assembled_exact(w)


def test_block_reuse_and_rebuild():
    w = Workload("reuse")
    w.add_app("a", random_dag(1, False))
    w.add_app("b", random_dag(2, True))
    w.compile()
    block_a, block_b = w._blocks["a"], w._blocks["b"]
    original = w.app("b").graph
    w.add_app("c", random_dag(3, True))
    w.compile()
    assert w._blocks["a"] is block_a and w._blocks["b"] is block_b
    w.replace_graph("b", original.scaled(2.0))
    w.compile()
    assert w._blocks["a"] is block_a and w._blocks["b"] is not block_b
    w.replace_graph("b", original)  # swap back: rebuilt, not resurrected
    w.compile()
    assert w._blocks["b"].graph is original
    w.remove_app("a")
    assert "a" not in w._blocks
    block_c = w._blocks["c"]
    w.app("c").graph.replace_task(Task("t0", wppe=7, wspe=8))
    assert_assembled_exact(w)
    assert w._blocks["c"] is not block_c
    assert w._blocks["c"].version == w.app("c").graph.version


def test_mutated_composite_takes_full_build():
    w = Workload("mut")
    w.add_app("a", random_dag(11, True))
    w.add_app("b", random_dag(12, False))
    composite = w.compile()
    assert composite.member_blocks() is not None
    registry = metrics.enable(metrics.MetricsRegistry())
    try:
        task = composite.task("b:t0")
        composite.replace_task(Task(task.name, wppe=task.wppe + 1.0, wspe=task.wspe))
        composite.add_task(Task("a:extra", wppe=1.0, wspe=2.0))
        composite.app_of["a:extra"] = "a"
        composite.add_edge(DataEdge("a:t0", "a:extra", 64.0))
        assert composite.member_blocks() is None
        cg = compile_graph(composite)
    finally:
        metrics.disable()
    assert "compile.composites_assembled" not in registry.counters
    assert_same_compiled(cg, CompiledGraph(composite))
    assert cg.wppe[cg.index["b:t0"]] == task.wppe + 1.0
    # The blocks stayed untouched: the next composite is the clean union.
    assert "a:extra" not in w._blocks["a"].succ["a:t0"]
    w.rename("mut2")
    fresh = w.compile()
    assert "a:extra" not in fresh
    assert_assembled_exact(w)


def test_colliding_prefixed_names_rejected():
    """App ``a`` task ``b:c`` and app ``a:b`` task ``c`` both namespace
    to ``a:b:c``; the composite refuses the collision."""
    w = Workload("clash")
    w.add_app("a", StreamGraph.from_parts([Task("b:c", wppe=1, wspe=1)], []))
    w.add_app("a:b", StreamGraph.from_parts([Task("c", wppe=1, wspe=1)], []))
    with pytest.raises(GraphError, match="duplicate task name 'a:b:c'"):
        w.compile()


def test_counters_count_blocks_and_assemblies():
    registry = metrics.enable(metrics.MetricsRegistry())
    try:
        w = Workload("count")
        for i in range(4):
            w.add_app(f"app{i}", random_dag(20 + i, bool(i % 2)))
        compile_graph(w.compile())
        w.remove_app("app1")
        compile_graph(w.compile())
    finally:
        metrics.disable()
    assert registry.counters["compile.blocks_built"] == 4
    assert registry.counters["compile.composites_assembled"] == 2
