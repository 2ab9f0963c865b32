"""Compiled integer-indexed graph arrays — the delta engine's hot-path kernel.

Every search layer (``local_search``, the metaheuristics, the GA's
repair/mutation, the online runtime's admission and budgeted descent)
funnels through :class:`~repro.steady_state.delta.DeltaAnalyzer`, whose
original bookkeeping was string-keyed: every candidate score walked
``Dict[str, ...]`` adjacency and cost tables, hashing task-name strings
millions of times per run.  :class:`CompiledGraph` compiles a
:class:`~repro.graph.stream_graph.StreamGraph` (or a workload
:class:`~repro.graph.workload.CompositeGraph`) once into flat,
integer-indexed arrays:

* **task ids** — ``names[tid]`` / ``index[name]``: tasks numbered in
  graph insertion order, so iterating ``range(n)`` reproduces the exact
  accumulation order of ``analyze()`` / ``graph.tasks()``;
* **CSR adjacency** — ``in_ptr``/``in_src``/``in_data``/``in_eid`` and
  the ``out_*`` mirror: the in/out edges of task ``t`` are the slice
  ``ptr[t]:ptr[t+1]``, an O(deg) walk with zero hashing;
* **edge ids** — ``edge_src``/``edge_dst``/``edge_data`` in insertion
  order (the order ``graph.edges()`` yields and every reference float
  accumulation uses), plus ``inc_ptr``/``inc_eid``: each task's incident
  edge ids in *global* edge order — the accumulation order
  ``periods.buffer_requirements`` uses, which is what keeps recomputed
  per-task footprints bit-identical under the mapping-dependent buffer
  models;
* **cost tables** — ``wppe``/``wspe``/``read``/``write``/``peek`` as
  flat lists of floats/ints indexed by tid;
* **derived constants** — ``topo_index`` (position in one fixed
  topological order, the worklist priority under ``elide_local_comm``)
  and ``need_default`` (the mapping-independent §4.2 per-task footprint,
  shared read-only by every default-mode analyzer on the graph);
* **application index** — on composites, ``app_index[tid]`` maps each
  task to its application's position in ``app_names`` (``None`` on
  plain graphs, which therefore pay nothing).

Compilation is memoized per graph and invalidated by
:attr:`StreamGraph.version` — the same contract as the memoized
``buffer_requirements`` (and audited the same way in
``tests/test_graph_version.py``): mutate the graph, and the next
:func:`compile_graph` call recompiles.

Composite assembly
------------------

A composite fresh from :meth:`~repro.graph.workload.Workload.compile`
is the disjoint union of its applications, each of which the workload
already holds compiled on its own (one cached block per app).
:func:`compile_graph` then concatenates those member compilations with
index offsets instead of recompiling the union, in O(composite) list
work with no string hashing beyond the name index, and the result equals
``CompiledGraph(composite)`` field for field (``tests/test_composite_blocks.py``):

* tasks and edges are numbered app-major, so names, cost tables and
  edge arrays concatenate; task ids shift by the number of tasks before
  the app (``t0``), edge ids by the number of edges before it (``e0``);
* with no cross-app edges every in-, out- and incident edge of a task
  belongs to its app, so a task's CSR slice is the member's slice
  shifted by ``e0`` (``2·e0`` for the incident lists, two entries per
  edge), in the same global edge order;
* ``need_default`` is a per-task sum over its own app's edges, in the
  same order, so its floats are the member's;
* ``topo_index`` comes from :meth:`StreamGraph.topological_order`: Kahn's
  algorithm with a LIFO stack seeded by every source in task order.  The
  composite stack holds app 0's sources at the bottom and the last app's
  on top; popping a task only pushes tasks of its own app, so the last
  app is drained exactly as it is alone, then the one before it, and so
  on.  The composite order is each app's standalone order, apps in
  reverse, and app ``k``'s offset is the number of tasks in the apps
  *after* it.

Only an unchanged composite is assembled
(:meth:`~repro.graph.workload.CompositeGraph.member_blocks`): one mutated
after :meth:`Workload.compile` built it takes the full build.  The member
compilations live in the workload's blocks, not in the
:func:`compile_graph` memo, so they are freed with their application.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from ..graph.stream_graph import StreamGraph
from ..graph.workload import CompositeGraph
from ..obs import metrics as _metrics
from .periods import buffer_requirements

__all__ = ["CompiledGraph", "compile_graph"]


class CompiledGraph:
    """Immutable integer-indexed view of one graph version.

    Built by :func:`compile_graph`; treat every field as read-only —
    instances are shared by all :class:`DeltaAnalyzer` objects (and
    their clones) on the same graph version.
    """

    __slots__ = (
        "version",
        "n",
        "n_edges",
        "names",
        "index",
        "wppe",
        "wspe",
        "read",
        "write",
        "peek",
        "in_ptr",
        "in_src",
        "in_data",
        "in_eid",
        "out_ptr",
        "out_dst",
        "out_data",
        "out_eid",
        "edge_src",
        "edge_dst",
        "edge_data",
        "edge_keys",
        "inc_ptr",
        "inc_eid",
        "topo_index",
        "need_default",
        "app_names",
        "app_index",
        "_np",
    )

    def __init__(self, graph: StreamGraph) -> None:
        names: Tuple[str, ...] = tuple(graph.task_names())
        index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        n = len(names)
        self.version: int = graph.version
        self.n: int = n
        self.names: Tuple[str, ...] = names
        self.index: Dict[str, int] = index

        # Per-task cost tables (flat, indexed by tid).
        wppe: List[float] = [0.0] * n
        wspe: List[float] = [0.0] * n
        read: List[float] = [0.0] * n
        write: List[float] = [0.0] * n
        peek: List[int] = [0] * n
        for t, task in enumerate(graph.tasks()):
            wppe[t] = task.wppe
            wspe[t] = task.wspe
            read[t] = task.read
            write[t] = task.write
            peek[t] = task.peek
        self.wppe, self.wspe = wppe, wspe
        self.read, self.write = read, write
        self.peek = peek

        # Edges in insertion order — the reference accumulation order.
        edge_src: List[int] = []
        edge_dst: List[int] = []
        edge_data: List[float] = []
        edge_keys: List[Tuple[str, str]] = []
        for edge in graph.edges():
            edge_src.append(index[edge.src])
            edge_dst.append(index[edge.dst])
            edge_data.append(edge.data)
            edge_keys.append(edge.key)
        m = len(edge_src)
        self.n_edges = m
        self.edge_src, self.edge_dst = edge_src, edge_dst
        self.edge_data, self.edge_keys = edge_data, edge_keys

        # CSR adjacency + per-task incident edge ids in global edge order.
        in_count = [0] * n
        out_count = [0] * n
        inc_count = [0] * n
        for e in range(m):
            out_count[edge_src[e]] += 1
            in_count[edge_dst[e]] += 1
            inc_count[edge_src[e]] += 1
            inc_count[edge_dst[e]] += 1
        in_ptr = _prefix(in_count)
        out_ptr = _prefix(out_count)
        inc_ptr = _prefix(inc_count)
        in_src = [0] * m
        in_data = [0.0] * m
        in_eid = [0] * m
        out_dst = [0] * m
        out_data = [0.0] * m
        out_eid = [0] * m
        inc_eid = [0] * (2 * m)
        in_fill = list(in_ptr)
        out_fill = list(out_ptr)
        inc_fill = list(inc_ptr)
        for e in range(m):
            u, v, d = edge_src[e], edge_dst[e], edge_data[e]
            k = out_fill[u]
            out_dst[k], out_data[k], out_eid[k] = v, d, e
            out_fill[u] = k + 1
            k = in_fill[v]
            in_src[k], in_data[k], in_eid[k] = u, d, e
            in_fill[v] = k + 1
            k = inc_fill[u]
            inc_eid[k] = e
            inc_fill[u] = k + 1
            k = inc_fill[v]
            inc_eid[k] = e
            inc_fill[v] = k + 1
        self.in_ptr, self.in_src, self.in_data, self.in_eid = (
            in_ptr, in_src, in_data, in_eid,
        )
        self.out_ptr, self.out_dst, self.out_data, self.out_eid = (
            out_ptr, out_dst, out_data, out_eid,
        )
        self.inc_ptr, self.inc_eid = inc_ptr, inc_eid

        # One fixed topological order: the worklist priority that keeps
        # the elide_local_comm firstPeriod propagation monotone.
        topo_index = [0] * n
        for pos, name in enumerate(graph.topological_order()):
            topo_index[index[name]] = pos
        self.topo_index = topo_index

        # Mapping-independent §4.2 footprints, shared read-only by every
        # default-mode analyzer on this graph version.
        need = buffer_requirements(graph)
        self.need_default: List[float] = [need[name] for name in names]

        # Application index (workload composites only).
        app_of = getattr(graph, "app_of", None) or None
        if app_of is not None:
            app_names = tuple(getattr(graph, "app_names", ()))
            app_pos = {app: i for i, app in enumerate(app_names)}
            self.app_names: Tuple[str, ...] = app_names
            self.app_index: Optional[List[int]] = [
                app_pos[app_of[name]] for name in names
            ]
        else:
            self.app_names = ()
            self.app_index = None

        # Lazy numpy mirrors (built on first arrays() call).
        self._np = None

    @property
    def n_apps(self) -> int:
        return len(self.app_names)

    def arrays(self):
        """Numpy mirrors of the compiled arrays, built once per graph.

        Returns a read-only namespace of mapping-independent ndarrays
        shared by every dense-kernel analyzer on this graph version:
        cost tables, edge endpoint/byte arrays, static per-task in/out
        aggregates, the app index, and the sorted direct-edge pair table
        the swap kernel looks pairs up in.
        """
        if self._np is None:
            from .backend_numpy import build_graph_arrays

            self._np = build_graph_arrays(self)
        return self._np

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        apps = f", {self.n_apps} apps" if self.app_index is not None else ""
        return (
            f"CompiledGraph({self.n} tasks, {self.n_edges} edges{apps}, "
            f"version={self.version})"
        )


def _prefix(counts: List[int]) -> List[int]:
    """Exclusive prefix sums: the CSR row-pointer array."""
    ptr = [0] * (len(counts) + 1)
    total = 0
    for i, c in enumerate(counts):
        ptr[i] = total
        total += c
    ptr[len(counts)] = total
    return ptr


#: Memoized compilations, keyed by ``id(graph)`` and validated against a
#: weak reference (id reuse) and the graph's mutation counter (staleness)
#: — the same pattern as ``periods._REQUIREMENTS_CACHE``.
_COMPILE_CACHE: Dict[int, Tuple["weakref.ref", CompiledGraph]] = {}


#: How :func:`_assemble` shifts each member field into the composite.
_CONCATENATED = (
    "wppe",
    "wspe",
    "read",
    "write",
    "peek",
    "need_default",
    "in_data",
    "out_data",
    "edge_data",
)
_TASK_IDS = ("in_src", "out_dst", "edge_src", "edge_dst")
_EDGE_IDS = ("in_eid", "out_eid", "inc_eid")
_EDGE_PTRS = ("in_ptr", "out_ptr")


def _assemble(graph: CompositeGraph, blocks) -> CompiledGraph:
    """``CompiledGraph(graph)`` by concatenating the per-app member
    compilations (see "Composite assembly" in the module docstring)."""
    cg = CompiledGraph.__new__(CompiledGraph)
    for slot in _CONCATENATED + _TASK_IDS + _EDGE_IDS + _EDGE_PTRS:
        setattr(cg, slot, [])
    names: List[str] = []
    edge_keys: List[Tuple[str, str]] = []
    inc_ptr: List[int] = []
    topo_index: List[int] = []
    app_index: List[int] = []
    n = sum(block.compiled.n for block in blocks)
    t0 = e0 = 0
    for k, block in enumerate(blocks):
        m = block.compiled
        for slot in _CONCATENATED:
            getattr(cg, slot).extend(getattr(m, slot))
        for slot in _TASK_IDS:
            getattr(cg, slot).extend([t + t0 for t in getattr(m, slot)])
        for slot in _EDGE_IDS:
            getattr(cg, slot).extend([e + e0 for e in getattr(m, slot)])
        for slot in _EDGE_PTRS:
            getattr(cg, slot).extend([p + e0 for p in getattr(m, slot)[:-1]])
        inc_ptr += [p + 2 * e0 for p in m.inc_ptr[:-1]]
        after = n - t0 - m.n
        topo_index += [p + after for p in m.topo_index]
        names += block.names
        edge_keys += block.edges.keys()
        app_index += [k] * m.n
        t0 += m.n
        e0 += m.n_edges
    cg.in_ptr.append(e0)
    cg.out_ptr.append(e0)
    inc_ptr.append(2 * e0)
    cg.version = graph.version
    cg.n = n
    cg.n_edges = e0
    cg.names = tuple(names)
    cg.index = {name: i for i, name in enumerate(names)}
    cg.edge_keys = edge_keys
    cg.inc_ptr = inc_ptr
    cg.topo_index = topo_index
    cg.app_names = tuple(graph.app_names)
    cg.app_index = app_index
    cg._np = None
    return cg


def compile_graph(graph: StreamGraph) -> CompiledGraph:
    """The memoized :class:`CompiledGraph` of ``graph``'s current version.

    A workload composite still as :meth:`Workload.compile` built it is
    assembled from its per-app blocks; every other graph is compiled
    from scratch.
    """
    key = id(graph)
    entry = _COMPILE_CACHE.get(key)
    if entry is not None:
        ref, compiled = entry
        if ref() is graph and compiled.version == graph.version:
            return compiled
    blocks = graph.member_blocks() if isinstance(graph, CompositeGraph) else None
    if blocks is None:
        compiled = CompiledGraph(graph)
    else:
        compiled = _assemble(graph, blocks)
        reg = _metrics.REGISTRY
        if reg is not None:
            reg.inc("compile.composites_assembled")

    def _evict(_ref, key=key):
        _COMPILE_CACHE.pop(key, None)

    _COMPILE_CACHE[key] = (weakref.ref(graph, _evict), compiled)
    return compiled
