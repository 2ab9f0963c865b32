"""Co-scheduled multi-application workloads (beyond the paper: Benoit et
al., *Resource Allocation for Multiple Concurrent In-Network
Stream-Processing Applications*, 2009).

The paper maps **one** streaming application per Cell.  A
:class:`Workload` generalises this: an ordered collection of named
:class:`~repro.graph.stream_graph.StreamGraph` applications, each with a
throughput *weight* (its relative importance under the ``weighted``
objective) and an optional *target period* (its QoS requirement, the
reference of the ``max_stretch`` objective), co-scheduled on a single
platform.

Composite-graph semantics
-------------------------

:meth:`Workload.compile` flattens the member applications into **one**
:class:`CompositeGraph` that every existing layer (``Mapping``,
``analyze``, ``DeltaAnalyzer``, the MILP, every heuristic, the
simulator) consumes unchanged:

* **namespacing** — task ``t`` of application ``app`` becomes composite
  task ``app:t``; the original name is never parsed back out of the
  string, the composite carries an explicit ``app_of`` map instead (so
  member task names may themselves contain ``:``);
* **no cross-application edges** — member applications are independent
  streams; the composite is their disjoint union, and each edge belongs
  to exactly one application (its endpoints always share an app);
* **per-app bookkeeping** — ``app_tasks`` / ``app_sources`` /
  ``app_sinks`` record each application's composite task names, entry
  points and exit points, and ``app_weights`` / ``app_targets`` carry
  the scheduling metadata the objective layer consumes;
* **shared steady state** — all applications advance in lock-step with
  one instance of every application per period, so the composite's
  analytic period is the shared-resource period and
  ``analyze(...).app_periods`` reports, per application, the period it
  would achieve under the same mapping without the other applications'
  load (its resource occupation alone — the quantity stretch objectives
  compare against).

Memoization
-----------

The compilation is memoized on two levels, so an online event that
adds, removes or swaps one application costs O(that application), not
O(resident workload):

* **the composite** — keyed on :attr:`Workload.version`, which is
  derived from the member graphs' own mutation counters: mutating any
  member application (or the workload itself) invalidates the cached
  composite, exactly like ``StreamGraph.version`` invalidates the
  memoized ``buffer_requirements``;
* **per-app blocks** — each member's namespaced tasks, edges,
  adjacency, sources and sinks, plus its member
  :class:`~repro.steady_state.compiled.CompiledGraph`, built once and
  keyed on the member graph's identity and ``graph.version``.  A block
  is dropped by :meth:`Workload.remove_app` and
  :meth:`Workload.replace_graph` and rebuilt after a member mutation;
  :meth:`Workload.compile` assembles the composite from blocks without
  renaming a single task.  ``compile_graph(composite)`` then
  concatenates the member ``CompiledGraph`` objects instead of
  recompiling the union (see :mod:`repro.steady_state.compiled`), as
  long as the composite itself is unchanged since it was built.

Member ``CompiledGraph`` objects live in the workload's blocks only, not
in the global ``compile_graph`` memo, so a block's memory goes with its
application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import GraphError, WorkloadError
from ..obs import metrics as _metrics
from .edge import DataEdge
from .stream_graph import StreamGraph
from .task import Task

__all__ = ["CompositeGraph", "Workload", "WorkloadApp"]

#: Separator between the application name and the task name in composite
#: task ids.  Cosmetic only — ownership is tracked by ``app_of``, never
#: by splitting the string.
APP_SEP = ":"


@dataclass(frozen=True)
class WorkloadApp:
    """One member application of a :class:`Workload`.

    Attributes
    ----------
    name:
        Unique identifier of the application within the workload.
    graph:
        The application's streaming task graph (held by reference — the
        workload sees later mutations through ``graph.version``).
    weight:
        Relative throughput importance under the ``weighted`` objective
        (must be positive; 1.0 = equal share).
    target_period:
        Optional QoS requirement in µs: the period this application
        considers nominal.  The ``max_stretch`` objective measures each
        application's period relative to this target (or to a
        graph-derived lower bound when unset).
    """

    name: str
    graph: StreamGraph
    weight: float = 1.0
    target_period: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("application name must be a non-empty string")
        if self.weight <= 0:
            raise WorkloadError(
                f"application {self.name!r}: weight must be positive "
                f"(got {self.weight!r})"
            )
        if self.target_period is not None and self.target_period <= 0:
            raise WorkloadError(
                f"application {self.name!r}: target_period must be positive "
                f"(got {self.target_period!r})"
            )


class _AppBlock:
    """One member application's namespaced piece of the composite.

    Built once per (graph object, ``graph.version``) by
    :meth:`Workload.compile`; read-only afterwards, shared by every
    composite assembled while the member is unchanged.
    """

    __slots__ = (
        "graph",
        "version",
        "names",
        "tasks",
        "edges",
        "succ",
        "pred",
        "sources",
        "sinks",
        "compiled",
    )

    def __init__(self, name: str, graph: StreamGraph) -> None:
        # Imported here: steady_state.compiled imports this module.
        from ..steady_state.compiled import CompiledGraph

        prefix = name + APP_SEP
        self.graph = graph
        self.version = graph.version
        #: The member compiled on its own, under its original task
        #: names (raises ``CycleError`` on a cyclic member).
        self.compiled = CompiledGraph(graph)
        #: Composite task names, in member order.
        self.names: Tuple[str, ...] = tuple(prefix + t for t in self.compiled.names)
        self.tasks: Dict[str, Task] = {
            qualified: task.renamed(qualified)
            for qualified, task in zip(self.names, graph.tasks())
        }
        self.edges: Dict[Tuple[str, str], DataEdge] = {}
        for edge in graph.edges():
            renamed = DataEdge(prefix + edge.src, prefix + edge.dst, edge.data)
            self.edges[renamed.key] = renamed
        self.succ: Dict[str, Tuple[str, ...]] = {
            prefix + t: tuple(prefix + s for s in graph.successors(t))
            for t in self.compiled.names
        }
        self.pred: Dict[str, Tuple[str, ...]] = {
            prefix + t: tuple(prefix + p for p in graph.predecessors(t))
            for t in self.compiled.names
        }
        self.sources: Tuple[str, ...] = tuple(prefix + t for t in graph.sources())
        self.sinks: Tuple[str, ...] = tuple(prefix + t for t in graph.sinks())


class CompositeGraph(StreamGraph):
    """The flattened union of a workload's applications.

    A plain :class:`StreamGraph` (every consumer works unchanged) plus
    the per-application metadata the workload-aware layers use.  Built
    by :meth:`Workload.compile`; not meant to be constructed directly.

    Note that generic derivations (``copy()``, ``scaled()``) return
    plain :class:`StreamGraph` objects and therefore drop the
    application metadata — recompile from the workload instead.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        #: Application names in workload insertion order.
        self.app_names: Tuple[str, ...] = ()
        #: Composite task name → owning application name.
        self.app_of: Dict[str, str] = {}
        #: Application name → throughput weight.
        self.app_weights: Dict[str, float] = {}
        #: Application name → target period (``None`` when unset).
        self.app_targets: Dict[str, Optional[float]] = {}
        #: Application name → its composite task names, in member order.
        self.app_tasks: Dict[str, List[str]] = {}
        #: Application name → composite names of its stream entry points.
        self.app_sources: Dict[str, List[str]] = {}
        #: Application name → composite names of its stream exit points.
        self.app_sinks: Dict[str, List[str]] = {}
        #: The :attr:`Workload.version` this composite was compiled from.
        self.workload_version: int = -1
        # The per-app blocks this composite was assembled from, and the
        # composite's own version right after assembly.
        self._blocks: Tuple[_AppBlock, ...] = ()
        self._blocks_version: int = -1

    def _assemble(self, blocks: Tuple[_AppBlock, ...]) -> None:
        """Fill this (empty) composite with ``blocks``, in app order.

        Equivalent to ``add_task``/``add_edge`` over every block's tasks
        and edges (the version ends at the same count), minus the
        per-item checks: the blocks are validated members, and only
        their prefixed names could collide.
        """
        tasks, edges = self._tasks, self._edges
        succ, pred = self._succ, self._pred
        n_tasks = 0
        for block in blocks:
            tasks.update(block.tasks)
            edges.update(block.edges)
            for name, out in block.succ.items():
                succ[name] = list(out)
            for name, into in block.pred.items():
                pred[name] = list(into)
            n_tasks += len(block.names)
        if len(tasks) != n_tasks:
            seen: Dict[str, None] = {}
            for block in blocks:
                for name in block.names:
                    if name in seen:
                        raise GraphError(f"duplicate task name {name!r}")
                    seen[name] = None
        self._version += len(tasks) + len(edges)
        self._blocks = blocks
        self._blocks_version = self._version

    def member_blocks(self) -> Optional[Tuple[_AppBlock, ...]]:
        """The per-app blocks this composite was assembled from.

        ``None`` when it was not built by :meth:`Workload.compile` or
        was mutated since: only an unchanged composite is exactly the
        disjoint union of its blocks.
        """
        if self._blocks and self._blocks_version == self._version:
            return self._blocks
        return None

    def app_of_task(self, name: str) -> str:
        """The application owning composite task ``name``."""
        try:
            return self.app_of[name]
        except KeyError:
            raise WorkloadError(f"unknown composite task {name!r}") from None


class Workload:
    """An ordered collection of named streaming applications to co-schedule.

    Usage::

        w = Workload("mix")
        w.add_app("audio", audio_encoder(), weight=2.0)
        w.add_app("video", video_pipeline(), target_period=900.0)
        composite = w.compile()          # one StreamGraph, namespaced ids
        mapping = genetic_algorithm(composite, platform,
                                    objective="max_stretch")
        analyze(mapping).app_periods     # {"audio": ..., "video": ...}
    """

    def __init__(self, name: str = "workload") -> None:
        self._version = 0
        self._apps: Dict[str, WorkloadApp] = {}
        self._blocks: Dict[str, _AppBlock] = {}
        self._compiled: Optional[CompositeGraph] = None
        self.name = name  # via the guarded setter (validates + bumps)

    @property
    def name(self) -> str:
        """Workload name (the compiled composite inherits it)."""
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        self.rename(value)

    def rename(self, new_name: str) -> None:
        """Rename the workload; guarded so the memoized composite refreshes.

        The compiled :class:`CompositeGraph` carries the workload's name,
        so a rename must bump :attr:`version` (invalidating the memo) or
        ``compile()`` would keep serving a composite with the stale name.
        """
        if not new_name or not isinstance(new_name, str):
            raise WorkloadError("workload name must be a non-empty string")
        if new_name == getattr(self, "_name", None):
            return
        self._name = new_name
        self._version += 1

    # ------------------------------------------------------------------ #
    # Construction

    def add_app(
        self,
        name: str,
        graph: StreamGraph,
        weight: float = 1.0,
        target_period: Optional[float] = None,
    ) -> WorkloadApp:
        """Append an application; raises :class:`WorkloadError` on duplicates."""
        if name in self._apps:
            raise WorkloadError(f"duplicate application name {name!r}")
        graph.validate()
        app = WorkloadApp(
            name=name, graph=graph, weight=weight, target_period=target_period
        )
        self._apps[name] = app
        self._version += 1
        return app

    def remove_app(self, name: str) -> WorkloadApp:
        """Remove (and return) an application, e.g. when its stream ends.

        Raises :class:`WorkloadError` when ``name`` is not a member.  The
        removed application's graph leaves the :attr:`version` sum, so the
        internal counter absorbs its last contribution plus one — the
        derived version stays *strictly increasing* across the removal and
        every cache keyed on it (the compiled composite) is invalidated.
        """
        try:
            app = self._apps.pop(name)
        except KeyError:
            raise WorkloadError(f"unknown application {name!r}") from None
        self._blocks.pop(name, None)
        # The member's graph.version no longer contributes to the sum in
        # `version`; fold it into the own counter (+1) so the total bumps.
        self._version += app.graph.version + 1
        return app

    def replace_graph(self, name: str, graph: StreamGraph) -> WorkloadApp:
        """Swap application ``name``'s graph, keeping weight/target/order.

        The online runtime's cost-perturbation windows use this to swap a
        member for a scaled copy (and later swap the *original object*
        back — exact restoration, no float drift).  The replaced graph's
        version leaves the member sum, so the internal counter absorbs
        its last contribution plus one, exactly like :meth:`remove_app`,
        and :attr:`version` stays strictly increasing.
        """
        old = self.app(name)
        graph.validate()
        self._apps[name] = WorkloadApp(
            name=name,
            graph=graph,
            weight=old.weight,
            target_period=old.target_period,
        )
        self._blocks.pop(name, None)
        self._version += old.graph.version + 1
        return self._apps[name]

    @classmethod
    def from_graphs(
        cls,
        graphs: Iterable[StreamGraph],
        name: str = "workload",
        weights: Optional[Iterable[float]] = None,
    ) -> "Workload":
        """Build a workload from graphs, named after each graph's ``name``."""
        workload = cls(name)
        graphs = list(graphs)
        weight_list = (
            list(weights) if weights is not None else [1.0] * len(graphs)
        )
        if len(weight_list) != len(graphs):
            raise WorkloadError(
                f"{len(graphs)} graphs but {len(weight_list)} weights"
            )
        for graph, weight in zip(graphs, weight_list):
            workload.add_app(graph.name, graph, weight=weight)
        return workload

    # ------------------------------------------------------------------ #
    # Queries

    @property
    def version(self) -> int:
        """Composite mutation counter.

        Strictly increases whenever the workload itself mutates
        (``add_app``) *or any member graph* mutates — each member bump
        raises the sum, so derived caches (the compiled composite) can
        key on this single integer.
        """
        return self._version + sum(
            app.graph.version for app in self._apps.values()
        )

    @property
    def n_apps(self) -> int:
        return len(self._apps)

    def __len__(self) -> int:
        return len(self._apps)

    def __contains__(self, name: str) -> bool:
        return name in self._apps

    def __iter__(self) -> Iterator[WorkloadApp]:
        return iter(self._apps.values())

    def app(self, name: str) -> WorkloadApp:
        try:
            return self._apps[name]
        except KeyError:
            raise WorkloadError(f"unknown application {name!r}") from None

    def app_names(self) -> List[str]:
        """Application names in insertion order."""
        return list(self._apps.keys())

    def n_tasks(self) -> int:
        """Total task count across all applications."""
        return sum(app.graph.n_tasks for app in self._apps.values())

    # ------------------------------------------------------------------ #
    # Compilation

    def compile(self) -> CompositeGraph:
        """The namespaced composite graph (memoized on :attr:`version`).

        Assembled from the per-app blocks; only applications added,
        swapped or mutated since the last call build a new block.
        """
        if not self._apps:
            raise WorkloadError(f"workload {self.name!r} has no application")
        version = self.version
        if (
            self._compiled is not None
            and self._compiled.workload_version == version
        ):
            return self._compiled
        composite = CompositeGraph(self.name)
        composite.app_names = tuple(self._apps.keys())
        blocks = []
        for app in self._apps.values():
            block = self._block(app)
            blocks.append(block)
            composite.app_weights[app.name] = app.weight
            composite.app_targets[app.name] = app.target_period
            composite.app_of.update(dict.fromkeys(block.names, app.name))
            composite.app_tasks[app.name] = list(block.names)
            composite.app_sources[app.name] = list(block.sources)
            composite.app_sinks[app.name] = list(block.sinks)
        composite._assemble(tuple(blocks))
        composite.workload_version = version
        self._compiled = composite
        return composite

    def _block(self, app: WorkloadApp) -> _AppBlock:
        """``app``'s block, rebuilt when its graph changed since."""
        block = self._blocks.get(app.name)
        graph = app.graph
        if block is None or block.graph is not graph or block.version != graph.version:
            block = _AppBlock(app.name, graph)
            self._blocks[app.name] = block
            reg = _metrics.REGISTRY
            if reg is not None:
                reg.inc("compile.blocks_built")
        return block

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        members = ", ".join(
            f"{app.name}({app.graph.n_tasks}t, w={app.weight:g})"
            for app in self._apps.values()
        )
        return f"Workload({self.name!r}, [{members}])"
