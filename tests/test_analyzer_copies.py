"""In-place analyzer copies and how analyzers are freed.

``DeltaAnalyzer.copy_from`` overwrites an analyzer's mutable state from a
compatible one, and ``ClonePool`` recycles retired analyzers through it
(the genetic algorithm's generation loop).  These tests pin:

* a copy reproduces the source exactly: ``snapshot()``, ``tasks_on``
  and per-application periods, on ``graph1`` and a two-application
  composite, in all four buffer models, under ``python`` and ``auto``;
* copies share no mutable state — later moves on either side stay there;
* ``copy_from`` refuses analyzers that differ in flags, graph or backend;
* the pool misses, then hits with the recycled object, discards
  incompatible retired analyzers, and counts both outcomes;
* a dropped analyzer, its clones and its pooled copies are freed by
  reference counting alone: nothing they own refers back to them.
"""

import gc
import random
import weakref

import pytest

from test_population_rows import composite

from repro.errors import MappingError
from repro.generator import random_graph_1
from repro.obs import metrics
from repro.platform import CellPlatform
from repro.steady_state import ClonePool, DeltaAnalyzer, Mapping, analyze

MODES = (
    {},
    {"elide_local_comm": True},
    {"merge_same_pe_buffers": True},
    {"elide_local_comm": True, "merge_same_pe_buffers": True},
)
MODE_IDS = ("default", "elide", "merge", "elide+merge")
BACKENDS = ("python", "auto")
PLATFORM = CellPlatform.qs22()
GRAPHS = {"graph1": random_graph_1, "composite": lambda: composite(3)}


def start_state(graph, backend, mode, seed=0):
    rng = random.Random(seed)
    assignment = {t: rng.randrange(PLATFORM.n_pes) for t in graph.task_names()}
    return DeltaAnalyzer(Mapping(graph, PLATFORM, assignment), backend=backend, **mode)


def random_moves(state, rng, n=25):
    names = state.graph.task_names()
    for _ in range(n):
        state.apply_move(rng.choice(names), rng.randrange(PLATFORM.n_pes))


def assert_same_state(dst, src):
    assert dst.snapshot() == src.snapshot()
    assert dst.app_periods() == src.app_periods()
    assert dst.pe_row() == src.pe_row()
    for pe in range(PLATFORM.n_pes):
        assert dst.tasks_on(pe) == src.tasks_on(pe)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_copy_from_reproduces_the_source(backend, mode, graph_name):
    graph = GRAPHS[graph_name]()
    rng = random.Random(7)
    src = start_state(graph, backend, mode)
    dst = src.clone()
    random_moves(src, rng)
    # The drifted incremental state is copied bit for bit ...
    assert dst.copy_from(src) is dst
    assert_same_state(dst, src)
    # ... and a re-anchored one equals analyze().
    src.resync()
    dst.copy_from(src)
    assert_same_state(dst, src)
    assert dst.snapshot() == analyze(dst.mapping(), **mode)

    # Later moves on either analyzer stay there.
    before = src.snapshot()
    random_moves(dst, rng)
    assert src.snapshot() == before
    after_dst = dst.snapshot()
    random_moves(src, rng)
    assert dst.snapshot() == after_dst


@pytest.mark.parametrize("backend", BACKENDS)
def test_copy_from_rejects_incompatible_analyzers(backend):
    graph = random_graph_1()
    state = start_state(graph, backend, {})
    others = [
        start_state(graph, backend, {"elide_local_comm": True}),
        start_state(graph, backend, {"merge_same_pe_buffers": True}),
        start_state(composite(3), backend, {}),
        start_state(graph, "auto" if backend == "python" else "python", {}),
    ]
    for other in others:
        assert not state.compatible_with(other)
        assert not other.compatible_with(state)
        with pytest.raises(MappingError, match="copy_from requires"):
            state.copy_from(other)
        with pytest.raises(MappingError, match="copy_from requires"):
            other.copy_from(state)
    assert state.compatible_with(start_state(graph, backend, {}, seed=1))


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_clone_pool_recycles_compatible_analyzers(
    backend, mode, graph_name, monkeypatch
):
    registry = metrics.MetricsRegistry()
    monkeypatch.setattr(metrics, "REGISTRY", registry)
    graph = GRAPHS[graph_name]()
    parent = start_state(graph, backend, mode)
    pool = ClonePool()

    first = pool.clone(parent)  # empty pool: a plain clone
    assert first is not parent
    assert_same_state(first, parent)
    random_moves(first, random.Random(1))
    pool.retire(first)
    assert len(pool) == 1

    second = pool.clone(parent)  # the retired analyzer, overwritten
    assert second is first
    assert len(pool) == 0
    assert_same_state(second, parent)

    # An incompatible retired analyzer is discarded, not returned.
    flipped = {"elide_local_comm": not mode.get("elide_local_comm", False)}
    pool.retire(start_state(graph, backend, {**mode, **flipped}))
    third = pool.clone(parent)
    assert third is not first
    assert len(pool) == 0
    assert_same_state(third, parent)

    counters = registry.counters
    assert counters["clone_pool_hits"] == 1
    assert counters["clone_pool_misses"] == 2


def test_clone_pool_keeps_at_most_max_free():
    parent = start_state(random_graph_1(), "python", {})
    pool = ClonePool()
    for _ in range(ClonePool.MAX_FREE + 3):
        pool.retire(parent)
    assert len(pool) == ClonePool.MAX_FREE


@pytest.mark.parametrize(
    "mode", [{}, {"elide_local_comm": True}], ids=["default", "elide"]
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_dropped_analyzers_are_freed_by_reference_counting(backend, mode):
    graph = random_graph_1()
    gc.collect()
    gc.disable()
    try:
        state = start_state(graph, backend, mode)
        pool = ClonePool()
        pool.retire(state.clone())
        copies = [state, state.clone(), pool.clone(state)]
        assert len(pool) == 0  # the last copy was a pool hit
        rows = [state.pe_row(), copies[1].pe_row()]
        for copy in copies:
            copy._dense()  # the dense kernel under auto; None under python
            copy.score_assignments(rows)
            copy.apply_move(graph.task_names()[0], 1)
        refs = [weakref.ref(copy) for copy in copies]
        del state, copies, copy
        assert [ref() is None for ref in refs] == [True] * len(refs)
    finally:
        gc.enable()
