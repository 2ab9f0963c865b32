"""Incremental (delta) steady-state evaluation of mapping moves.

``throughput.analyze()`` walks the whole graph — O(V+E) — for every
candidate mapping, which makes a neighbourhood search round
O(n²·n_pes·(V+E)).  :class:`DeltaAnalyzer` holds the mutable load state of
one mapping and re-evaluates a single-task move (or a task-pair swap) in
O(deg(task) + n_pes), which is what lets ``local_search`` and the
metaheuristics (`simulated_annealing`, `tabu_search`,
`genetic_algorithm`) scale past toy graph sizes.

Since the compiled-kernel refactor the analyzer keeps **no string-keyed
state on the hot path**: construction compiles the graph once (memoized
per :attr:`StreamGraph.version`, see
:mod:`repro.steady_state.compiled`) into integer task ids, CSR
adjacency and flat cost tables, and all bookkeeping below is indexed by
``tid``/``pe``/``eid`` integers.  The public API stays string-keyed —
names are translated at the boundary only.

Each cached quantity corresponds to one family of constraints of the
paper's program (1):

===================  ====================================================
cached state         paper constraint
===================  ====================================================
``compute[pe]``      (1e)/(1f) — compute occupation of each PPE/SPE
``in_bytes[pe]``     (1g) — incoming interface occupation (reads + cross
                     edges landing on the PE)
``out_bytes[pe]``    (1h) — outgoing interface occupation (writes + cross
                     edges leaving the PE)
``buffer[spe]``      (1i) — §4.2 stream-buffer bytes hosted by the SPE's
                     local store
``dma_in[spe]``      (1j) — distinct data received per period (MFC queue)
``dma_proxy[spe]``   (1k) — distinct data pushed to PPEs per period
                     (proxy queue)
``link_bytes``       the bounded-multiport extension of (1g)/(1h) to the
                     inter-Cell BIF link of multi-Cell platforms
===================  ====================================================

The period is ``max`` occupation over all resources, exactly as in
``analyze``; :meth:`DeltaAnalyzer.snapshot` rebuilds a full
:class:`PeriodAnalysis` from the cached state, using the same accumulation
order as ``analyze`` so the two agree bit-for-bit (for graphs whose costs
and payloads are integer-valued floats the incremental updates are exact;
otherwise agreement is within one ulp per update — call :meth:`resync`
to squash any accumulated drift with one O(V+E) rebuild).

Batched neighbourhood scoring
-----------------------------

Search heuristics score *every* target PE for a task before picking one,
so the per-candidate ``score_move`` loop repeats the same O(deg)
neighbour walk ``n_pes`` times.  :meth:`score_moves` /
:meth:`evaluate_moves` score the whole target set in **one pass**: the
task's incident edges are aggregated by neighbour PE once (O(deg)), the
two highest cached peaks outside the origin are found once (O(n_pes)),
and each candidate then costs O(1) arithmetic — no dictionaries, no
re-walk.  Under the mapping-dependent buffer models (below) a move's
buffer cost can depend on its target (the ``firstPeriod`` cone shifts),
so the batched entry points score each candidate through the exact
per-candidate delta path — same results, still integer-indexed — but
derive the buffer model once for every target hosting none of the
task's neighbours, where it cannot differ (:meth:`_sweep_deltas`).
Whole-mapping batches (``score_assignments`` / ``evaluate_assignments``,
the GA's population pass) run as one dense from-scratch pass in every
buffer model on the fast engine.

Every ``score_X`` and its ``evaluate_X`` twin share one private
implementation that builds the :class:`MoveScore` or
:class:`ObjectiveScore` once, at the end.  Under ``auto`` the analyzer
holds one numpy dense kernel, built on first use (:meth:`_dense`).
Its move and swap violation counts assume the default buffer model,
so the move and swap batch APIs use it only when the analyzer is not
mapping-dependent; its periods and its population pass are exact in
every model.  The compiled extension, when built, is reached at four
chokepoints only: the per-candidate verdict (:meth:`_verdict`), the
target sweep (:meth:`_target_sweep`), the commit path
(:meth:`_commit`) and the population pass
(:meth:`_population_kernel`), plus the from-scratch rebuild behind
:meth:`resync`.  The analyzer holds the imported ``_ckernel`` module
itself (``_ck``, ``None`` without the extension) and calls its three
functions directly; the module keeps no state and no reference back,
so analyzers are freed by reference counting alone.

Two-phase neighbourhood selection
---------------------------------

A search step needs one candidate, not every verdict.
:meth:`best_candidate` (the ``local_search`` / ``tabu_search`` step)
and :meth:`best_move` (the ``budgeted_descent`` / online-admission
primitive, whenever it batches: two or more tasks, or any
mapping-dependent call) therefore select in two phases through one
helper, :meth:`_select`:

1. **rank** every candidate by its objective value, computed *without*
   the mapping-dependent buffer model — the period never depends on it;
   the model only decides the local-store constraint (1i).  Under
   ``auto`` the values come from the dense kernel's ``worst`` /
   ``aworst`` matrices; under ``python``, and for swaps on multi-Cell
   platforms, from the scalar per-candidate path with the buffer
   derivation skipped — the same floats as the exact path;
2. **confirm** the candidates that pass the caller's bound in (value,
   visit order) order through the exact per-candidate verdict, and
   return the first feasible one with its exact score.

The pick is the one an eager scan keeping the strictly-best feasible
candidate makes (bit-for-bit under ``python``; under ``auto`` the
ranking inherits the dense kernel's ulp contract on non-integer graphs,
while every verdict stays exact).  In the default buffer model the
dense verdicts are already exact, so phase 2 is a lookup.  A one-task
:meth:`best_move` in the default buffer model (the online insertion
step) is one target sweep instead, which is cheaper at that size.  The
``candidates_ranked`` / ``candidates_confirmed`` metrics count the two
phases.

Mapping-dependent buffer modes
------------------------------

With the paper's default §4.2 model, buffer sizes are mapping-independent
constants and a move only shifts which local store hosts them.  The two
future-work optimisations change that:

* ``elide_local_comm=True`` — the communication period of a same-PE edge
  is skipped, so ``firstPeriod`` (and with it every edge's buffer window
  ``fp[dst] - fp[src]``) depends on the mapping.  A move can shift the
  first periods of the moved task's downstream cone; the analyzer
  propagates the change along a topologically-ordered worklist that stops
  as soon as the values converge, so the cost is O(deg(task)) plus the
  size of the actually-affected region (typically a handful of tasks —
  the fp of a task only moves when the ±1 communication period changes
  the maximum over its predecessors).

* ``merge_same_pe_buffers=True`` — a consumer that shares its producer's
  PE reads straight from the producer's output buffer, so the input copy
  is not allocated.  A move flips the merge status only of the moved
  task's incident edges: O(deg(task)).

In both modes the analyzer keeps per-task footprints (``need``), per-edge
buffer sizes and (under elision) the ``firstPeriod`` vector incrementally,
and per-task footprints are *recomputed* from the incident-edge list in
the same accumulation order as ``periods.buffer_requirements`` — so
:meth:`snapshot` stays bit-identical to
``analyze(..., elide_local_comm=..., merge_same_pe_buffers=...)`` under
the same exactness contract as the default mode.

Multi-application workloads
---------------------------

On a :class:`~repro.graph.workload.CompositeGraph` (several applications
co-scheduled, see :mod:`repro.graph.workload`) the analyzer additionally
maintains **per-application** compute/communication sums and BIF-link
bytes, mirroring the global ones delta for delta — a move updates both in
the same O(deg) pass, and :meth:`app_periods` /
:meth:`snapshot`'s ``app_periods`` reproduce
``analyze(...).app_periods`` bit for bit under the usual exactness
contract.  The ``evaluate_move`` / ``evaluate_swap`` /
``evaluate_changes`` variants thread a pluggable objective
(:mod:`repro.steady_state.objective`) over the same deltas: candidate
per-app periods are derived from cached per-(app, PE) peaks in
O(n_apps × n_pes), so ``weighted`` / ``max_stretch`` search stays
incremental (and batched: a move only perturbs its own application's
sums, so :meth:`evaluate_moves` re-derives one application's period per
candidate and reuses the cached periods of the rest).  Plain
single-application graphs skip all of this.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from ..errors import MappingError
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from .backend import resolve_backend
from .compiled import CompiledGraph, compile_graph
from .mapping import Mapping
from .objective import PeriodObjective
from .periods import buffer_sizes, first_periods
from .periods import buffer_requirements as _buffer_requirements
from .throughput import (
    PeriodAnalysis,
    ResourceLoad,
    app_periods_from_loads,
    violations_and_links,
)

__all__ = ["ClonePool", "DeltaAnalyzer", "MoveScore", "ObjectiveScore"]

#: ``_ckernel.eval_changes`` mode bits: the C ``#define``s MODE_SCORE,
#: MODE_APPLY and MODE_APPLY_IF_FEASIBLE.
_CK_SCORE, _CK_APPLY, _CK_APPLY_IF_FEASIBLE = 1, 2, 4


def _traced(name: str):
    """Span-wrap a batch entry point when tracing is on.

    The instrumentation contract (see :mod:`repro.obs`): with tracing
    disabled the wrapper is one module-global read and a branch — no
    span object, no kwargs dict — so decorating the once-per-round
    batch APIs costs nothing measurable on the kernel hot path (the
    nightly overhead guard in ``benchmarks/bench_kernel.py`` bounds
    it).
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = _tracing.TRACER
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


class MoveScore(NamedTuple):
    """Cheap verdict on a candidate mapping (current or hypothetical)."""

    period: float
    feasible: bool
    n_violations: int


class ObjectiveScore(NamedTuple):
    """A :class:`MoveScore` extended with a pluggable objective value.

    ``value`` equals ``period`` under the default period objective; under
    ``weighted`` / ``max_stretch`` it is the objective applied to the
    candidate's per-application periods.  Search heuristics rank
    candidates by ``value`` and gate on ``feasible`` exactly as before.
    """

    value: float
    period: float
    feasible: bool
    n_violations: int


#: Updates to the mapping-dependent buffer model for a set of moves:
#: (fp_new by tid, esize_new by eid, need_new by tid) — only the entries
#: that change.
_BufModel = Tuple[
    Dict[int, int],
    Dict[int, float],
    Dict[int, float],
]

#: Per-application deltas of a set of moves (multi-app composites only):
#: (d_app_compute, d_app_in, d_app_out keyed by (app_idx, pe);
#:  d_app_link, d_app_link_count keyed by (app_idx, (src_cell, dst_cell))).
_AppDeltas = Tuple[
    Dict[Tuple[int, int], float],
    Dict[Tuple[int, int], float],
    Dict[Tuple[int, int], float],
    Dict[Tuple[int, Tuple[int, int]], float],
    Dict[Tuple[int, Tuple[int, int]], int],
]

#: Internal bundle of per-resource deltas for a set of simultaneous moves:
#: (moved by tid, d_compute, d_in, d_out, d_buf, d_dma_in, d_dma_proxy,
#:  d_link_bytes, d_link_count, bufmodel, appdeltas).
_Deltas = Tuple[
    Dict[int, int],
    Dict[int, float],
    Dict[int, float],
    Dict[int, float],
    Dict[int, float],
    Dict[int, int],
    Dict[int, int],
    Dict[Tuple[int, int], float],
    Dict[Tuple[int, int], int],
    Optional[_BufModel],
    Optional[_AppDeltas],
]


class DeltaAnalyzer:
    """Mutable load state of a mapping with O(deg) move evaluation.

    With the default flags this matches ``analyze(mapping)``: buffer sizes
    are the mapping-independent §4.2 constants, so a move only shifts
    which local store hosts them.  With ``elide_local_comm`` and/or
    ``merge_same_pe_buffers`` it matches
    ``analyze(mapping, elide_local_comm=..., merge_same_pe_buffers=...)``
    and additionally maintains the mapping-dependent buffer model
    incrementally (see the module docstring).

    All internal state is integer-indexed over the memoized
    :class:`~repro.steady_state.compiled.CompiledGraph` of the graph; the
    public API speaks task names.

    ``backend`` is the one place a caller picks a kernel: ``"python"``
    (the scalar oracle) or ``"auto"``; ``None`` defers to
    ``REPRO_KERNEL_BACKEND`` (see :mod:`repro.steady_state.backend`).
    """

    #: Minimum task-batch size before the dense numpy kernels engage —
    #: single-task sweeps stay on the scalar kernel on every engine
    #: (at n_pes ≤ 18 a dense pass costs more than it saves).
    _VECTOR_MIN_TASKS = 2

    def __init__(
        self,
        mapping: Mapping,
        elide_local_comm: bool = False,
        merge_same_pe_buffers: bool = False,
        backend: Optional[str] = None,
    ) -> None:
        self.graph = mapping.graph
        self.platform = mapping.platform
        self.elide_local_comm = bool(elide_local_comm)
        self.merge_same_pe_buffers = bool(merge_same_pe_buffers)
        self._mapping_dependent = (
            self.elide_local_comm or self.merge_same_pe_buffers
        )
        platform = self.platform
        n = platform.n_pes
        self._n_pes = n
        self._bw = platform.bw
        self._bif_bw = platform.bif_bw
        self._budget = platform.buffer_budget
        self._in_slots = platform.dma_in_slots
        self._proxy_slots = platform.dma_proxy_slots
        self._is_ppe: List[bool] = [platform.is_ppe(i) for i in range(n)]
        self._is_spe: List[bool] = [not p for p in self._is_ppe]
        self._cell: List[int] = [platform.cell_of(i) for i in range(n)]
        self._multi = platform.n_cells > 1

        cg = compile_graph(self.graph)
        self._cg: CompiledGraph = cg
        assign = mapping.to_dict()
        #: tid → hosting PE (the integer-indexed assignment).
        self._pe: List[int] = [assign[name] for name in cg.names]
        #: pe → set of hosted tids, maintained incrementally by ``_apply``
        #: so :meth:`tasks_on` is O(tasks on the PE), not O(V).
        self._members: List[Set[int]] = []

        # Buffer model.  In the default mode ``need`` is the constant §4.2
        # footprint table precompiled into the graph (shared read-only by
        # every analyzer on this graph version); in the mapping-dependent
        # modes it is private mutable state, together with the per-edge
        # sizes and (under elision) the first periods.
        self._fp: Optional[List[int]] = None
        self._esize: Optional[List[float]] = None
        if self._mapping_dependent:
            self._need: List[float] = []
        else:
            self._need = cg.need_default

        # Mutable load state, filled by _rebuild().
        self._compute: List[float] = []
        self._in_bytes: List[float] = []
        self._out_bytes: List[float] = []
        self._peak: List[float] = []
        self._buffer: Dict[int, float] = {}
        self._dma_in: Dict[int, int] = {}
        self._dma_proxy: Dict[int, int] = {}
        self._link_bytes: Dict[Tuple[int, int], float] = {}
        self._link_count: Dict[Tuple[int, int], int] = {}
        self._n_violations = 0
        # Per-application mutable state (composites only), indexed by the
        # compiled application index.
        self._app_compute: List[List[float]] = []
        self._app_in: List[List[float]] = []
        self._app_out: List[List[float]] = []
        self._app_peak: List[List[float]] = []
        self._app_link_bytes: Dict[Tuple[int, Tuple[int, int]], float] = {}
        self._app_link_count: Dict[Tuple[int, Tuple[int, int]], int] = {}
        #: Monotone mutation counter — bumped on every apply/rebuild, so
        #: the numpy kernel can cache its dense state mirrors per state.
        self._state_version = 0

        #: Resolved kernel label: ``"python"``, ``"numpy"`` or
        #: ``"cython"`` (see :mod:`repro.steady_state.backend` for the
        #: selection rules).  Resolved before the first ``_rebuild`` so
        #: the compiled extension can run the initial accumulation too.
        self.backend: str = resolve_backend(backend)
        reg = _metrics.REGISTRY
        if reg is not None:
            reg.inc("backend_dispatches." + self.backend)
        self._ck = self._make_ckernel()
        self._rebuild()
        #: The numpy dense kernel, built on first use (see :meth:`_dense`).
        self._dense_kernel = None

    def _dense(self):
        """The numpy dense kernel of the fast engine, or ``None`` under
        ``python``; built on first use, never copied by :meth:`clone`.

        Its ``worst``/``aworst`` terms (periods) and its population
        pass are exact in every buffer model.  Its move and swap
        violation counts assume the default model, so the batch APIs
        read them only when the analyzer is not ``_mapping_dependent``.
        """
        if self._dense_kernel is None and self.backend != "python":
            from .backend_numpy import NumpyKernel

            self._dense_kernel = NumpyKernel(self)
        return self._dense_kernel

    def _make_ckernel(self):
        """The compiled extension module under ``cython``, else ``None``.

        The module is stateless (every call takes the analyzer), so
        :meth:`clone` shares it and no analyzer is referenced back.
        """
        if self.backend != "cython":
            return None
        from . import _ckernel

        return _ckernel

    # ------------------------------------------------------------------ #
    # State construction

    def _rebuild_buffer_model(self) -> None:
        """Re-derive the mapping-dependent buffer model through the
        same code paths ``analyze`` uses, so every cached float is
        the exact value the reference computation produces."""
        cg = self._cg
        mapping = self.mapping()
        if self.elide_local_comm:
            fp = first_periods(
                self.graph, mapping, elide_local_comm=True
            )
            self._fp = [fp[name] for name in cg.names]
        esize = buffer_sizes(
            self.graph,
            mapping if self.elide_local_comm else None,
            elide_local_comm=self.elide_local_comm,
        )
        self._esize = [esize[key] for key in cg.edge_keys]
        need = _buffer_requirements(
            self.graph,
            mapping,
            elide_local_comm=self.elide_local_comm,
            merge_same_pe_buffers=self.merge_same_pe_buffers,
        )
        self._need = [need[name] for name in cg.names]

    def _rebuild(self) -> None:
        """Recompute all cached loads from scratch (same order as analyze)."""
        platform = self.platform
        cg = self._cg
        pe_list = self._pe
        n = self._n_pes

        if self._mapping_dependent:
            self._rebuild_buffer_model()

        if self._ck is not None:
            # Native accumulation: identical task/edge/buffer passes in
            # the compiled extension (the buffer model above stays in
            # Python — it is the analyze() reference derivation).
            self._ck.rebuild(self)
            return

        app_index = cg.app_index
        n_apps = cg.n_apps
        app_compute: List[List[float]] = []
        app_in: List[List[float]] = []
        app_out: List[List[float]] = []
        app_link_bytes: Dict[Tuple[int, Tuple[int, int]], float] = {}
        app_link_count: Dict[Tuple[int, Tuple[int, int]], int] = {}
        if app_index is not None:
            app_compute = [[0.0] * n for _ in range(n_apps)]
            app_in = [[0.0] * n for _ in range(n_apps)]
            app_out = [[0.0] * n for _ in range(n_apps)]

        is_spe, is_ppe, cell = self._is_spe, self._is_ppe, self._cell
        compute = [0.0] * n
        in_bytes = [0.0] * n
        out_bytes = [0.0] * n
        members: List[Set[int]] = [set() for _ in range(n)]
        wppe, wspe, read, write = cg.wppe, cg.wspe, cg.read, cg.write
        for t in range(cg.n):
            pe = pe_list[t]
            members[pe].add(t)
            cost = wppe[t] if is_ppe[pe] else wspe[t]
            compute[pe] += cost
            in_bytes[pe] += read[t]
            out_bytes[pe] += write[t]
            if app_index is not None:
                a = app_index[t]
                app_compute[a][pe] += cost
                app_in[a][pe] += read[t]
                app_out[a][pe] += write[t]

        dma_in = {i: 0 for i in platform.spe_indices}
        dma_proxy = {i: 0 for i in platform.spe_indices}
        link_bytes: Dict[Tuple[int, int], float] = {}
        link_count: Dict[Tuple[int, int], int] = {}
        edge_src, edge_dst, edge_data = cg.edge_src, cg.edge_dst, cg.edge_data
        for e in range(cg.n_edges):
            src_pe = pe_list[edge_src[e]]
            dst_pe = pe_list[edge_dst[e]]
            if src_pe == dst_pe:
                continue
            data = edge_data[e]
            out_bytes[src_pe] += data
            in_bytes[dst_pe] += data
            if app_index is not None:
                a = app_index[edge_src[e]]  # endpoints always share the app
                app_out[a][src_pe] += data
                app_in[a][dst_pe] += data
            if is_spe[dst_pe]:
                dma_in[dst_pe] += 1
            if is_spe[src_pe] and is_ppe[dst_pe]:
                dma_proxy[src_pe] += 1
            if self._multi and cell[src_pe] != cell[dst_pe]:
                key = (cell[src_pe], cell[dst_pe])
                link_bytes[key] = link_bytes.get(key, 0.0) + data
                link_count[key] = link_count.get(key, 0) + 1
                if app_index is not None:
                    akey = (app_index[edge_src[e]], key)
                    app_link_bytes[akey] = (
                        app_link_bytes.get(akey, 0.0) + data
                    )
                    app_link_count[akey] = app_link_count.get(akey, 0) + 1

        buffer = {i: 0.0 for i in platform.spe_indices}
        need = self._need
        for t in range(cg.n):
            pe = pe_list[t]
            if is_spe[pe]:
                buffer[pe] += need[t]

        self._compute, self._in_bytes, self._out_bytes = compute, in_bytes, out_bytes
        self._dma_in, self._dma_proxy = dma_in, dma_proxy
        self._link_bytes, self._link_count = link_bytes, link_count
        self._buffer = buffer
        self._members = members
        bw = self._bw
        self._peak = [
            max(compute[i], in_bytes[i] / bw, out_bytes[i] / bw)
            for i in range(n)
        ]
        if app_index is not None:
            self._app_compute, self._app_in, self._app_out = (
                app_compute, app_in, app_out,
            )
            self._app_link_bytes = app_link_bytes
            self._app_link_count = app_link_count
            self._app_peak = [
                [
                    max(
                        app_compute[a][i],
                        app_in[a][i] / bw,
                        app_out[a][i] / bw,
                    )
                    for i in range(n)
                ]
                for a in range(n_apps)
            ]
        violations = 0
        for spe in platform.spe_indices:
            violations += buffer[spe] > self._budget
            violations += dma_in[spe] > self._in_slots
            violations += dma_proxy[spe] > self._proxy_slots
        self._n_violations = violations

    @_traced("kernel:resync")
    def resync(self) -> None:
        """One O(V+E) rebuild, re-anchoring the incremental state exactly."""
        reg = _metrics.REGISTRY
        if reg is not None:
            reg.inc("resyncs")
        self._state_version += 1
        self._rebuild()

    def clone(self) -> "DeltaAnalyzer":
        """An independent copy sharing only the immutable structure.

        O(V + E + n_pes) flat-list copies, no graph walk — much cheaper
        than building a fresh analyzer and the enabler of population
        metaheuristics (``genetic_algorithm`` clones a parent and applies
        crossover/mutation moves incrementally).
        """
        new = DeltaAnalyzer.__new__(DeltaAnalyzer)
        # Immutable/shared structure (the compiled graph included).
        for attr in (
            "graph", "platform", "elide_local_comm", "merge_same_pe_buffers",
            "_mapping_dependent", "_n_pes", "_bw", "_bif_bw", "_budget",
            "_in_slots", "_proxy_slots", "_is_ppe", "_is_spe", "_cell",
            "_multi", "_cg",
        ):
            setattr(new, attr, getattr(self, attr))
        # Mutable state — private copies.
        new._pe = list(self._pe)
        new._members = [set(s) for s in self._members]
        new._need = (
            list(self._need) if self._mapping_dependent else self._need
        )
        new._fp = list(self._fp) if self._fp is not None else None
        new._esize = list(self._esize) if self._esize is not None else None
        new._compute = list(self._compute)
        new._in_bytes = list(self._in_bytes)
        new._out_bytes = list(self._out_bytes)
        new._peak = list(self._peak)
        new._buffer = dict(self._buffer)
        new._dma_in = dict(self._dma_in)
        new._dma_proxy = dict(self._dma_proxy)
        new._link_bytes = dict(self._link_bytes)
        new._link_count = dict(self._link_count)
        new._n_violations = self._n_violations
        new._app_compute = [list(v) for v in self._app_compute]
        new._app_in = [list(v) for v in self._app_in]
        new._app_out = [list(v) for v in self._app_out]
        new._app_peak = [list(v) for v in self._app_peak]
        new._app_link_bytes = dict(self._app_link_bytes)
        new._app_link_count = dict(self._app_link_count)
        new._state_version = 0
        new.backend = self.backend
        new._ck = self._ck
        new._dense_kernel = None
        return new

    def compatible_with(self, other: "DeltaAnalyzer") -> bool:
        """Whether :meth:`copy_from` may copy ``other`` into this one:
        same compiled graph object, platform, buffer-model flags and
        backend (everything :meth:`clone` shares by reference)."""
        return (
            self._cg is other._cg
            and self.platform is other.platform
            and self.elide_local_comm == other.elide_local_comm
            and self.merge_same_pe_buffers == other.merge_same_pe_buffers
            and self.backend == other.backend
        )

    def copy_from(self, other: "DeltaAnalyzer") -> "DeltaAnalyzer":
        """Overwrite this analyzer's mutable state in place from ``other``.

        The allocation-free sibling of :meth:`clone`: every list is
        slice-assigned and every dict refilled into the existing
        containers, so a pooled analyzer reused across GA generations
        costs no new allocations beyond dict resizes.  Requires
        :meth:`compatible_with`; every engine runs the same Python copy.
        """
        if not self.compatible_with(other):
            raise MappingError(
                "copy_from requires clones of the same analyzer "
                "(same compiled graph, platform, flags and backend)"
            )
        self._pe[:] = other._pe
        for mine, theirs in zip(self._members, other._members):
            mine.clear()
            mine.update(theirs)
        if self._mapping_dependent:
            self._need[:] = other._need
        if other._fp is not None:
            self._fp[:] = other._fp
        if other._esize is not None:
            self._esize[:] = other._esize
        self._compute[:] = other._compute
        self._in_bytes[:] = other._in_bytes
        self._out_bytes[:] = other._out_bytes
        self._peak[:] = other._peak
        for mine_d, theirs_d in (
            (self._buffer, other._buffer),
            (self._dma_in, other._dma_in),
            (self._dma_proxy, other._dma_proxy),
            (self._link_bytes, other._link_bytes),
            (self._link_count, other._link_count),
            (self._app_link_bytes, other._app_link_bytes),
            (self._app_link_count, other._app_link_count),
        ):
            mine_d.clear()
            mine_d.update(theirs_d)
        for mine_rows, theirs_rows in (
            (self._app_compute, other._app_compute),
            (self._app_in, other._app_in),
            (self._app_out, other._app_out),
            (self._app_peak, other._app_peak),
        ):
            for mine_row, theirs_row in zip(mine_rows, theirs_rows):
                mine_row[:] = theirs_row
        self._n_violations = other._n_violations
        self._state_version += 1
        return self

    # ------------------------------------------------------------------ #
    # Queries

    def _tid(self, task: str) -> int:
        tid = self._cg.index.get(task)
        if tid is None:
            raise MappingError(f"task {task!r} is not mapped")
        return tid

    def pe_of(self, task: str) -> int:
        return self._pe[self._tid(task)]

    def assignment(self) -> Dict[str, int]:
        """A copy of the current task → PE assignment."""
        pe_list = self._pe
        return {name: pe_list[t] for t, name in enumerate(self._cg.names)}

    def pe_row(self) -> Tuple[int, ...]:
        """The current PE of every task, in compiled task order — which
        is ``graph.task_names()`` order — without building a dict."""
        return tuple(self._pe)

    def tasks_on(self, pe: int) -> List[str]:
        """Names of the tasks currently assigned to ``pe``.

        Mirrors :meth:`Mapping.tasks_on` on the live state (graph
        insertion order) — e.g. the evacuation list when a PE drops out
        of service.  Served from the incrementally-maintained per-PE
        membership sets: O(tasks on the PE), not an O(V) scan.
        """
        if not 0 <= pe < self._n_pes:
            raise MappingError(
                f"invalid PE {pe!r} (platform has {self._n_pes} PEs)"
            )
        names = self._cg.names
        return [names[t] for t in sorted(self._members[pe])]

    def mapping(self) -> Mapping:
        """The current state as an immutable :class:`Mapping`."""
        return Mapping(self.graph, self.platform, self.assignment())

    def period(self) -> float:
        """Current period ``T`` (same value as ``analyze(...).period``)."""
        worst = max(self._peak)
        if self._multi:
            for value in self._link_bytes.values():
                time = value / self._bif_bw
                if time > worst:
                    worst = time
        return worst

    @property
    def feasible(self) -> bool:
        return self._n_violations == 0

    def score(self) -> MoveScore:
        """Score of the *current* state (no hypothetical move)."""
        return self._judge(None, None, False)

    def app_periods(self) -> Dict[str, float]:
        """Per-application periods of the current state (see ``analyze``).

        Empty for plain (single-application) graphs; for composites, the
        same values ``analyze(self.mapping()).app_periods`` reports,
        read from the incrementally-maintained per-app sums.
        """
        cg = self._cg
        if cg.app_index is None:
            return {}
        app_names = cg.app_names
        return app_periods_from_loads(
            app_names,
            {app: self._app_compute[a] for a, app in enumerate(app_names)},
            {app: self._app_in[a] for a, app in enumerate(app_names)},
            {app: self._app_out[a] for a, app in enumerate(app_names)},
            {
                (app_names[a], key): v
                for (a, key), v in self._app_link_bytes.items()
            },
            self._bw,
            self._bif_bw,
        )

    # ------------------------------------------------------------------ #
    # Delta machinery

    def _buffer_model(self, moved: Dict[int, int]) -> _BufModel:
        """Mapping-dependent buffer-model updates for applying ``moved``.

        Returns ``(fp_new, esize_new, need_new)`` with only the entries
        that actually change.  Cost: O(sum of degrees of the moved tasks)
        plus, under elision, the incident edges of the tasks whose
        ``firstPeriod`` actually shifts.

        The target PEs enter only through ``new_pe(x) == new_pe(y)``
        comparisons between neighbours, so a single move to a PE hosting
        none of the task's neighbours yields the same model whichever
        such PE it is (:meth:`_sweep_deltas` shares it).
        """
        cg = self._cg
        pe_list = self._pe
        out_ptr, out_dst = cg.out_ptr, cg.out_dst
        edge_src, edge_dst = cg.edge_src, cg.edge_dst

        def new_pe(t: int) -> int:
            pe = moved.get(t)
            return pe_list[t] if pe is None else pe

        # 1. Propagate firstPeriod changes (elision only): a move flips
        # the ±1 communication period on the moved tasks' incident edges;
        # the topologically-ordered worklist re-evaluates each affected
        # task once and stops where the values converge.
        fp_new: Dict[int, int] = {}
        if self.elide_local_comm:
            fp = self._fp
            assert fp is not None
            topo, peek = cg.topo_index, cg.peek
            in_ptr, in_src = cg.in_ptr, cg.in_src
            heap: List[Tuple[int, int]] = []
            queued: Set[int] = set()

            def push(t: int) -> None:
                if t not in queued:
                    queued.add(t)
                    heapq.heappush(heap, (topo[t], t))

            for t in moved:
                push(t)
                for k in range(out_ptr[t], out_ptr[t + 1]):
                    push(out_dst[k])
            while heap:
                _, t = heapq.heappop(heap)
                lo, hi = in_ptr[t], in_ptr[t + 1]
                if lo == hi:
                    value = 0
                else:
                    pe = new_pe(t)
                    best = -1
                    for k in range(lo, hi):
                        p = in_src[k]
                        cand = (
                            fp_new.get(p, fp[p])
                            + 1
                            + (0 if new_pe(p) == pe else 1)
                        )
                        if cand > best:
                            best = cand
                    value = best + peek[t]
                if value != fp[t]:
                    fp_new[t] = value
                    for k in range(out_ptr[t], out_ptr[t + 1]):
                        push(out_dst[k])

        # 2. Edge buffer sizes that change: only edges incident to a task
        # whose firstPeriod shifted (a region that shifts uniformly keeps
        # its interior windows — only the boundary edges change size).
        esize_new: Dict[int, float] = {}
        if fp_new:
            fp = self._fp
            esize = self._esize
            assert fp is not None and esize is not None
            edge_data = cg.edge_data
            inc_ptr, inc_eid = cg.inc_ptr, cg.inc_eid
            for t in fp_new:
                for k in range(inc_ptr[t], inc_ptr[t + 1]):
                    e = inc_eid[k]
                    if e in esize_new:
                        continue
                    u, v = edge_src[e], edge_dst[e]
                    size = edge_data[e] * (
                        fp_new.get(v, fp[v]) - fp_new.get(u, fp[u])
                    )
                    if size != esize[e]:
                        esize_new[e] = size

        # 3. Per-task footprints to recompute: endpoints of resized edges,
        # plus (under merging) the moved tasks and their consumers, whose
        # same-PE merge status may flip.
        dirty: Set[int] = set()
        for e in esize_new:
            dirty.add(edge_src[e])
            dirty.add(edge_dst[e])
        if self.merge_same_pe_buffers:
            for t in moved:
                dirty.add(t)
                for k in range(out_ptr[t], out_ptr[t + 1]):
                    dirty.add(out_dst[k])

        need = self._need
        need_new: Dict[int, float] = {}
        if dirty:
            esize = self._esize
            assert esize is not None
            inc_ptr, inc_eid = cg.inc_ptr, cg.inc_eid
            merge = self.merge_same_pe_buffers
            for t in dirty:
                # Same accumulation order as buffer_requirements: incident
                # edges in global edge order, producer side always counted,
                # consumer side skipped when merged — bit-identical sums.
                total = 0.0
                for k in range(inc_ptr[t], inc_ptr[t + 1]):
                    e = inc_eid[k]
                    size = esize_new.get(e)
                    if size is None:
                        size = esize[e]
                    u = edge_src[e]
                    if t == u:
                        total += size
                    else:
                        if merge and new_pe(u) == new_pe(edge_dst[e]):
                            continue
                        total += size
                if total != need[t]:
                    need_new[t] = total

        return fp_new, esize_new, need_new

    def _buffer_d_buf(
        self, moved: Dict[int, int], need_new: Dict[int, float]
    ) -> Dict[int, float]:
        """Per-SPE buffer deltas of ``moved`` under the footprints
        ``need_new``: moved tasks change host first, then dirty residents
        change footprint in place — the order fixes each SPE's float sum."""
        pe_list = self._pe
        is_spe = self._is_spe
        need = self._need
        d_buf: Dict[int, float] = {}
        for t, pe in moved.items():
            old_pe = pe_list[t]
            old_need = need[t]
            if is_spe[old_pe]:
                d_buf[old_pe] = d_buf.get(old_pe, 0.0) - old_need
            if is_spe[pe]:
                d_buf[pe] = d_buf.get(pe, 0.0) + need_new.get(t, old_need)
        for t, value in need_new.items():
            if t in moved:
                continue
            pe = pe_list[t]
            if is_spe[pe]:
                d_buf[pe] = d_buf.get(pe, 0.0) + (value - need[t])
        return d_buf

    def _to_moved(self, changes: Dict[str, int]) -> Dict[int, int]:
        """Validate ``changes`` and translate to a tid-keyed move set."""
        index = self._cg.index
        pe_list = self._pe
        n = self._n_pes
        moved: Dict[int, int] = {}
        for name, pe in changes.items():
            tid = index.get(name)
            if tid is None:
                raise MappingError(f"task {name!r} is not mapped")
            if not 0 <= pe < n:
                raise MappingError(
                    f"task {name!r} moved to invalid PE {pe!r} "
                    f"(platform has {n} PEs)"
                )
            if pe_list[tid] != pe:
                moved[tid] = pe
        return moved

    def _deltas_ids(
        self,
        moved: Dict[int, int],
        with_buffers: bool = True,
        model: Optional[_BufModel] = None,
    ) -> _Deltas:
        """Deltas for a non-empty, pre-validated tid → PE move set.

        ``with_buffers=False`` skips the buffer model (no ``d_buf``, no
        :meth:`_buffer_model` derivation): the result then serves only
        :meth:`_candidate_period` / :meth:`_value` — the period never
        depends on the buffer model — and must not be scored for
        violations or applied.  ``model`` supplies an already-derived
        mapping-dependent buffer model for ``moved``.
        """
        cg = self._cg
        pe_list = self._pe
        is_ppe, is_spe, cell = self._is_ppe, self._is_spe, self._cell
        app_index = cg.app_index
        wppe, wspe, read, write = cg.wppe, cg.wspe, cg.read, cg.write
        d_compute: Dict[int, float] = {}
        d_in: Dict[int, float] = {}
        d_out: Dict[int, float] = {}
        d_buf: Dict[int, float] = {}
        d_dma_in: Dict[int, int] = {}
        d_dma_proxy: Dict[int, int] = {}
        d_link: Dict[Tuple[int, int], float] = {}
        d_link_n: Dict[Tuple[int, int], int] = {}
        eids: Dict[int, None] = {}
        # Per-application mirrors of the deltas above — only allocated on
        # composites so plain graphs keep the original hot-path cost.
        if app_index is not None:
            da_compute: Dict[Tuple[int, int], float] = {}
            da_in: Dict[Tuple[int, int], float] = {}
            da_out: Dict[Tuple[int, int], float] = {}
            da_link: Dict[Tuple[int, Tuple[int, int]], float] = {}
            da_link_n: Dict[Tuple[int, Tuple[int, int]], int] = {}

        in_ptr, in_eid = cg.in_ptr, cg.in_eid
        out_ptr, out_eid = cg.out_ptr, cg.out_eid
        for t, new_pe in moved.items():
            old_pe = pe_list[t]
            old_cost = wppe[t] if is_ppe[old_pe] else wspe[t]
            new_cost = wppe[t] if is_ppe[new_pe] else wspe[t]
            d_compute[old_pe] = d_compute.get(old_pe, 0.0) - old_cost
            d_compute[new_pe] = d_compute.get(new_pe, 0.0) + new_cost
            d_in[old_pe] = d_in.get(old_pe, 0.0) - read[t]
            d_in[new_pe] = d_in.get(new_pe, 0.0) + read[t]
            d_out[old_pe] = d_out.get(old_pe, 0.0) - write[t]
            d_out[new_pe] = d_out.get(new_pe, 0.0) + write[t]
            if app_index is not None:
                a = app_index[t]
                ko, kn = (a, old_pe), (a, new_pe)
                da_compute[ko] = da_compute.get(ko, 0.0) - old_cost
                da_compute[kn] = da_compute.get(kn, 0.0) + new_cost
                da_in[ko] = da_in.get(ko, 0.0) - read[t]
                da_in[kn] = da_in.get(kn, 0.0) + read[t]
                da_out[ko] = da_out.get(ko, 0.0) - write[t]
                da_out[kn] = da_out.get(kn, 0.0) + write[t]
            if with_buffers and not self._mapping_dependent:
                need = self._need[t]
                if is_spe[old_pe]:
                    d_buf[old_pe] = d_buf.get(old_pe, 0.0) - need
                if is_spe[new_pe]:
                    d_buf[new_pe] = d_buf.get(new_pe, 0.0) + need
            for k in range(in_ptr[t], in_ptr[t + 1]):
                eids[in_eid[k]] = None
            for k in range(out_ptr[t], out_ptr[t + 1]):
                eids[out_eid[k]] = None

        edge_src, edge_dst, edge_data = cg.edge_src, cg.edge_dst, cg.edge_data
        for e in eids:
            u, v, data = edge_src[e], edge_dst[e], edge_data[e]
            old_u, old_v = pe_list[u], pe_list[v]
            new_u, new_v = moved.get(u, old_u), moved.get(v, old_v)
            if old_u != old_v:  # retract the old cross-PE contribution
                d_out[old_u] = d_out.get(old_u, 0.0) - data
                d_in[old_v] = d_in.get(old_v, 0.0) - data
                if app_index is not None:
                    a = app_index[u]  # endpoints always share the app
                    ku, kv = (a, old_u), (a, old_v)
                    da_out[ku] = da_out.get(ku, 0.0) - data
                    da_in[kv] = da_in.get(kv, 0.0) - data
                if is_spe[old_v]:
                    d_dma_in[old_v] = d_dma_in.get(old_v, 0) - 1
                if is_spe[old_u] and is_ppe[old_v]:
                    d_dma_proxy[old_u] = d_dma_proxy.get(old_u, 0) - 1
                if self._multi and cell[old_u] != cell[old_v]:
                    key = (cell[old_u], cell[old_v])
                    d_link[key] = d_link.get(key, 0.0) - data
                    d_link_n[key] = d_link_n.get(key, 0) - 1
                    if app_index is not None:
                        akey = (app_index[u], key)
                        da_link[akey] = da_link.get(akey, 0.0) - data
                        da_link_n[akey] = da_link_n.get(akey, 0) - 1
            if new_u != new_v:  # add the new cross-PE contribution
                d_out[new_u] = d_out.get(new_u, 0.0) + data
                d_in[new_v] = d_in.get(new_v, 0.0) + data
                if app_index is not None:
                    a = app_index[u]
                    ku, kv = (a, new_u), (a, new_v)
                    da_out[ku] = da_out.get(ku, 0.0) + data
                    da_in[kv] = da_in.get(kv, 0.0) + data
                if is_spe[new_v]:
                    d_dma_in[new_v] = d_dma_in.get(new_v, 0) + 1
                if is_spe[new_u] and is_ppe[new_v]:
                    d_dma_proxy[new_u] = d_dma_proxy.get(new_u, 0) + 1
                if self._multi and cell[new_u] != cell[new_v]:
                    key = (cell[new_u], cell[new_v])
                    d_link[key] = d_link.get(key, 0.0) + data
                    d_link_n[key] = d_link_n.get(key, 0) + 1
                    if app_index is not None:
                        akey = (app_index[u], key)
                        da_link[akey] = da_link.get(akey, 0.0) + data
                        da_link_n[akey] = da_link_n.get(akey, 0) + 1

        bufmodel: Optional[_BufModel] = None
        if with_buffers and self._mapping_dependent:
            bufmodel = self._buffer_model(moved) if model is None else model
            d_buf = self._buffer_d_buf(moved, bufmodel[2])

        appdeltas: Optional[_AppDeltas] = None
        if app_index is not None:
            appdeltas = (da_compute, da_in, da_out, da_link, da_link_n)

        return (
            moved, d_compute, d_in, d_out, d_buf,
            d_dma_in, d_dma_proxy, d_link, d_link_n, bufmodel, appdeltas,
        )

    def _violation_shift(
        self,
        d_buf: Dict[int, float],
        d_dma_in: Dict[int, int],
        d_dma_proxy: Dict[int, int],
    ) -> int:
        """Net change in the number of violated (1i)–(1k) constraints."""
        shift = 0
        budget, in_slots, proxy_slots = (
            self._budget, self._in_slots, self._proxy_slots,
        )
        for spe, dv in d_buf.items():
            old = self._buffer[spe]
            shift += (old + dv > budget) - (old > budget)
        for spe, dv in d_dma_in.items():
            old = self._dma_in[spe]
            shift += (old + dv > in_slots) - (old > in_slots)
        for spe, dv in d_dma_proxy.items():
            old = self._dma_proxy[spe]
            shift += (old + dv > proxy_slots) - (old > proxy_slots)
        return shift

    def _candidate_period(self, deltas: _Deltas) -> float:
        """Period of the hypothetical state ``deltas`` describes."""
        (_moved, d_compute, d_in, d_out, _d_buf,
         _d_dma_in, _d_dma_proxy, d_link, _d_link_n, _bufmodel,
         _appdeltas) = deltas
        bw = self._bw
        compute, in_bytes, out_bytes = self._compute, self._in_bytes, self._out_bytes
        peak = self._peak
        touched = set(d_compute)
        touched.update(d_in)
        touched.update(d_out)
        worst = 0.0
        for pe in range(self._n_pes):
            if pe in touched:
                value = compute[pe] + d_compute.get(pe, 0.0)
                comm = (in_bytes[pe] + d_in.get(pe, 0.0)) / bw
                if comm > value:
                    value = comm
                comm = (out_bytes[pe] + d_out.get(pe, 0.0)) / bw
                if comm > value:
                    value = comm
            else:
                value = peak[pe]
            if value > worst:
                worst = value
        if self._multi:
            link = self._link_bytes
            keys = set(link)
            keys.update(d_link)
            for key in keys:
                time = (link.get(key, 0.0) + d_link.get(key, 0.0)) / self._bif_bw
                if time > worst:
                    worst = time
        return worst

    def _candidate_app_periods(
        self, deltas: Optional[_Deltas]
    ) -> Dict[str, float]:
        """Per-app periods of the hypothetical state ``deltas`` describes.

        O(n_apps × n_pes) worst case, but untouched (app, PE) pairs read
        the cached per-app peak, so the common single-move case touches
        a handful of entries.
        """
        if deltas is None or self._cg.app_index is None:
            return self.app_periods()
        appdeltas = deltas[10]
        assert appdeltas is not None
        da_compute, da_in, da_out, da_link, _da_link_n = appdeltas
        touched = set(da_compute)
        touched.update(da_in)
        touched.update(da_out)
        bw = self._bw
        app_names = self._cg.app_names
        out: Dict[str, float] = {}
        for a, app in enumerate(app_names):
            compute = self._app_compute[a]
            in_b, out_b = self._app_in[a], self._app_out[a]
            peak = self._app_peak[a]
            worst = 0.0
            for pe in range(self._n_pes):
                key = (a, pe)
                if key in touched:
                    value = max(
                        compute[pe] + da_compute.get(key, 0.0),
                        (in_b[pe] + da_in.get(key, 0.0)) / bw,
                        (out_b[pe] + da_out.get(key, 0.0)) / bw,
                    )
                else:
                    value = peak[pe]
                if value > worst:
                    worst = value
            out[app] = worst
        if self._multi:
            link = self._app_link_bytes
            keys = set(link)
            keys.update(da_link)
            for akey in keys:
                app = app_names[akey[0]]
                time = (
                    link.get(akey, 0.0) + da_link.get(akey, 0.0)
                ) / self._bif_bw
                if time > out[app]:
                    out[app] = time
        return out

    def _value(
        self, period: float, deltas: Optional[_Deltas], objective
    ) -> float:
        """Objective value of the candidate ``deltas`` describes."""
        if objective is None:
            return period
        if not getattr(objective, "needs_app_periods", False):
            return objective.value(period, None)
        return objective.value(period, self._candidate_app_periods(deltas))

    def _score_of(self, period, nviol, deltas, objective, as_objective):
        """The verdict, built once: a :class:`MoveScore`, or with
        ``as_objective`` an :class:`ObjectiveScore` whose value comes
        from ``objective`` (``None``: the plain period)."""
        if not as_objective:
            return MoveScore(period, nviol == 0, nviol)
        value = self._value(period, deltas, objective)
        return ObjectiveScore(value, period, nviol == 0, nviol)

    def _judge(self, deltas: Optional[_Deltas], objective, as_objective):
        """Verdict of the candidate ``deltas`` describes (``None``: the
        current state) through the scalar delta path."""
        if deltas is None:
            period, nviol = self.period(), self._n_violations
        else:
            period = self._candidate_period(deltas)
            nviol = self._n_violations + self._violation_shift(
                deltas[4], deltas[5], deltas[6]
            )
        return self._score_of(period, nviol, deltas, objective, as_objective)

    def _native(self, objective) -> bool:
        """Whether the compiled extension serves a verdict under
        ``objective``: it computes no per-application periods."""
        return self._ck is not None and not getattr(
            objective, "needs_app_periods", False
        )

    def _verdict(self, moved: Dict[int, int], objective, as_objective):
        """Exact verdict of a pre-validated tid → PE move set — the
        per-candidate chokepoint (native under the ``cython`` backend),
        without the metrics."""
        if moved and self._native(objective):
            period, nviol, _ = self._ck.eval_changes(self, moved, _CK_SCORE)
            return self._score_of(period, nviol, None, objective, as_objective)
        deltas = self._deltas_ids(moved) if moved else None
        return self._judge(deltas, objective, as_objective)

    def _apply(self, deltas: _Deltas) -> None:
        (moved, d_compute, d_in, d_out, d_buf,
         d_dma_in, d_dma_proxy, d_link, d_link_n, bufmodel,
         appdeltas) = deltas

        self._state_version += 1
        self._n_violations += self._violation_shift(d_buf, d_dma_in, d_dma_proxy)
        pe_list = self._pe
        members = self._members
        for t, pe in moved.items():
            members[pe_list[t]].discard(t)
            members[pe].add(t)
            pe_list[t] = pe
        if bufmodel is not None:
            fp_new, esize_new, need_new = bufmodel
            if fp_new:
                fp = self._fp
                assert fp is not None
                for t, value in fp_new.items():
                    fp[t] = value
            if esize_new:
                esize = self._esize
                assert esize is not None
                for e, value in esize_new.items():
                    esize[e] = value
            if need_new:
                need = self._need
                for t, value in need_new.items():
                    need[t] = value
        for pe, dv in d_compute.items():
            self._compute[pe] += dv
        for pe, dv in d_in.items():
            self._in_bytes[pe] += dv
        for pe, dv in d_out.items():
            self._out_bytes[pe] += dv
        for spe, dv in d_buf.items():
            self._buffer[spe] += dv
        for spe, dv in d_dma_in.items():
            self._dma_in[spe] += dv
        for spe, dv in d_dma_proxy.items():
            self._dma_proxy[spe] += dv
        for key, dv in d_link.items():
            count = self._link_count.get(key, 0) + d_link_n[key]
            if count:
                self._link_count[key] = count
                self._link_bytes[key] = self._link_bytes.get(key, 0.0) + dv
            else:  # no cross-cell edge left on this link direction
                self._link_count.pop(key, None)
                self._link_bytes.pop(key, None)
        bw = self._bw
        touched = set(d_compute)
        touched.update(d_in)
        touched.update(d_out)
        for pe in touched:
            self._peak[pe] = max(
                self._compute[pe],
                self._in_bytes[pe] / bw,
                self._out_bytes[pe] / bw,
            )
        if appdeltas is not None:
            da_compute, da_in, da_out, da_link, da_link_n = appdeltas
            for (a, pe), dv in da_compute.items():
                self._app_compute[a][pe] += dv
            for (a, pe), dv in da_in.items():
                self._app_in[a][pe] += dv
            for (a, pe), dv in da_out.items():
                self._app_out[a][pe] += dv
            for akey, dv in da_link.items():
                count = self._app_link_count.get(akey, 0) + da_link_n[akey]
                if count:
                    self._app_link_count[akey] = count
                    self._app_link_bytes[akey] = (
                        self._app_link_bytes.get(akey, 0.0) + dv
                    )
                else:
                    self._app_link_count.pop(akey, None)
                    self._app_link_bytes.pop(akey, None)
            touched_app = set(da_compute)
            touched_app.update(da_in)
            touched_app.update(da_out)
            for a, pe in touched_app:
                self._app_peak[a][pe] = max(
                    self._app_compute[a][pe],
                    self._app_in[a][pe] / bw,
                    self._app_out[a][pe] / bw,
                )

    # ------------------------------------------------------------------ #
    # Batched neighbourhood kernel

    def _check_pes(self, pes: Sequence[int]) -> None:
        n = self._n_pes
        for pe in pes:
            if not 0 <= pe < n:
                raise MappingError(
                    f"invalid PE {pe!r} (platform has {n} PEs)"
                )

    def _sweep(self, tid: int, pes: Sequence[int], objective, as_objective: bool):
        """Score moving task ``tid`` to every PE in ``pes`` in one pass.

        The batched hot path (default buffer model): the task's incident
        edges are aggregated by neighbour PE once, the two highest cached
        peaks outside the origin are found once, and each candidate then
        costs O(1) arithmetic — identical verdicts to the per-candidate
        ``_deltas_ids`` + ``_judge`` path (bit-identical on integer-valued
        graphs, within the usual ulp contract otherwise).  Entries whose
        target equals the origin hold the current-state score.

        With ``as_objective`` the entries are :class:`ObjectiveScore`
        (``objective=None`` meaning the plain period objective), else
        :class:`MoveScore`.  Mapping-dependent modes never reach this —
        :meth:`_target_sweep` routes them to the per-candidate path.
        """
        cg = self._cg
        pe_list = self._pe
        o = pe_list[tid]
        n = self._n_pes
        is_ppe, is_spe, cell = self._is_ppe, self._is_spe, self._cell
        bw = self._bw
        compute, in_bytes, out_bytes = (
            self._compute, self._in_bytes, self._out_bytes,
        )
        peak = self._peak
        read, write = cg.read[tid], cg.write[tid]
        t_wppe, t_wspe = cg.wppe[tid], cg.wspe[tid]
        cost_o = t_wppe if is_ppe[o] else t_wspe

        # O(deg): incident edges aggregated by neighbour PE.
        F: Dict[int, float] = {}  # producer PE -> bytes into the task
        C: Dict[int, int] = {}  # producer PE -> edge count
        T: Dict[int, float] = {}  # consumer PE -> bytes out of the task
        U: Dict[int, int] = {}  # consumer PE -> edge count
        tin = 0.0
        cin = 0
        in_src, in_data = cg.in_src, cg.in_data
        for k in range(cg.in_ptr[tid], cg.in_ptr[tid + 1]):
            q = pe_list[in_src[k]]
            d = in_data[k]
            F[q] = F.get(q, 0.0) + d
            C[q] = C.get(q, 0) + 1
            tin += d
            cin += 1
        tout = 0.0
        up_cnt = 0  # out-edges whose consumer sits on a PPE (proxy load)
        out_dst, out_data = cg.out_dst, cg.out_data
        for k in range(cg.out_ptr[tid], cg.out_ptr[tid + 1]):
            q = pe_list[out_dst[k]]
            d = out_data[k]
            T[q] = T.get(q, 0.0) + d
            U[q] = U.get(q, 0) + 1
            tout += d
            if is_ppe[q]:
                up_cnt += 1
        # SPEs hosting producers of the task: their proxy queues flip when
        # the task changes PE *kind* (to-PPE pushes appear/disappear).
        spe_srcs = [(q, c) for q, c in C.items() if is_spe[q]]

        # O(n_pes): the two highest cached peaks outside the origin — the
        # "rest" maximum for any candidate is top1 unless the candidate
        # *is* top1's PE, then top2.
        top1 = top2 = 0.0
        top1_pe = -1
        for pe in range(n):
            if pe == o:
                continue
            v = peak[pe]
            if v > top1:
                top2 = top1
                top1, top1_pe = v, pe
            elif v > top2:
                top2 = v
        # After-removal loads at the origin — identical for every target.
        o_compute = compute[o] - cost_o
        o_in = in_bytes[o] - read - (tin - F.get(o, 0.0)) + T.get(o, 0.0)
        o_out = out_bytes[o] - write - (tout - T.get(o, 0.0)) + F.get(o, 0.0)
        val_o = max(o_compute, o_in / bw, o_out / bw)

        need_t = self._need[tid]
        multi = self._multi
        if multi:
            cell_o = cell[o]
            FCell: Dict[int, float] = {}
            TCell: Dict[int, float] = {}
            for q, b in F.items():
                c = cell[q]
                FCell[c] = FCell.get(c, 0.0) + b
            for q, b in T.items():
                c = cell[q]
                TCell[c] = TCell.get(c, 0.0) + b
            link = self._link_bytes
            bif_bw = self._bif_bw

        app_index = cg.app_index
        track_app = (
            as_objective
            and objective is not None
            and getattr(objective, "needs_app_periods", False)
            and app_index is not None
        )
        if track_app:
            a = app_index[tid]
            app_name = cg.app_names[a]
            base_app_periods = self.app_periods()
            a_compute, a_in, a_out = (
                self._app_compute[a], self._app_in[a], self._app_out[a],
            )
            a_peak = self._app_peak[a]
            atop1 = atop2 = 0.0
            atop1_pe = -1
            for pe in range(n):
                if pe == o:
                    continue
                v = a_peak[pe]
                if v > atop1:
                    atop2 = atop1
                    atop1, atop1_pe = v, pe
                elif v > atop2:
                    atop2 = v
            ao_compute = a_compute[o] - cost_o
            ao_in = a_in[o] - read - (tin - F.get(o, 0.0)) + T.get(o, 0.0)
            ao_out = a_out[o] - write - (tout - T.get(o, 0.0)) + F.get(o, 0.0)
            aval_o = max(ao_compute, ao_in / bw, ao_out / bw)
            if multi:
                a_links = [
                    (key, v)
                    for (ai, key), v in self._app_link_bytes.items()
                    if ai == a
                ]
                a_link_keys = {key for key, _v in a_links}

        budget, in_slots, proxy_slots = (
            self._budget, self._in_slots, self._proxy_slots,
        )
        buffer, dmain, dproxy = self._buffer, self._dma_in, self._dma_proxy
        base_viol = self._n_violations
        o_is_spe = is_spe[o]
        o_is_ppe = is_ppe[o]
        # PEs hosting any neighbour of the task: everything off this set
        # takes the constant-delta fast path below.
        nbr = set(F)
        nbr.update(T)
        rt = read + tin  # total new inbound bytes at a non-neighbour target
        wt = write + tout  # total new outbound bytes likewise
        s_flip = -1 if o_is_ppe else 1  # the only possible kind change

        # Origin-side violation shift — constant across same-kind targets,
        # and a second constant across kind-flipping targets.
        def _origin_shift(s: int) -> int:
            shift = 0
            if o_is_spe:
                old = buffer[o]
                shift += (old - need_t > budget) - (old > budget)
                old = dmain[o]
                dv = C.get(o, 0) - cin + U.get(o, 0)
                shift += (old + dv > in_slots) - (old > in_slots)
                dv = -up_cnt + (s * C.get(o, 0) if s else 0)
                old = dproxy[o]
                shift += (old + dv > proxy_slots) - (old > proxy_slots)
            return shift

        base_same = base_viol + _origin_shift(0)
        base_flip: Optional[int] = None  # built lazily with the flip total

        results: list = []
        results_append = results.append
        Fget, Tget, Cget, Uget = F.get, T.get, C.get, U.get
        current = None  # lazily-built current score for target == origin
        for p in pes:
            if p == o:
                if current is None:
                    current = self._judge(None, objective, as_objective)
                results_append(current)
                continue
            p_is_ppe = is_ppe[p]
            in_nbr = p in nbr
            if in_nbr:
                ft = Fget(p, 0.0) + Tget(p, 0.0)
                p_in = in_bytes[p] + rt - ft
                p_out = out_bytes[p] + wt - ft
            else:
                p_in = in_bytes[p] + rt
                p_out = out_bytes[p] + wt
            val_p = compute[p] + (t_wppe if p_is_ppe else t_wspe)
            v = p_in / bw
            if v > val_p:
                val_p = v
            v = p_out / bw
            if v > val_p:
                val_p = v
            worst = top2 if top1_pe == p else top1
            if val_o > worst:
                worst = val_o
            if val_p > worst:
                worst = val_p
            if multi:
                cell_p = cell[p]
                d_link: Dict[Tuple[int, int], float] = {}
                for c, b in FCell.items():
                    if c != cell_o:
                        key = (c, cell_o)
                        d_link[key] = d_link.get(key, 0.0) - b
                    if c != cell_p:
                        key = (c, cell_p)
                        d_link[key] = d_link.get(key, 0.0) + b
                for c, b in TCell.items():
                    if c != cell_o:
                        key = (cell_o, c)
                        d_link[key] = d_link.get(key, 0.0) - b
                    if c != cell_p:
                        key = (cell_p, c)
                        d_link[key] = d_link.get(key, 0.0) + b
                keys = set(link)
                keys.update(d_link)
                for key in keys:
                    time = (link.get(key, 0.0) + d_link.get(key, 0.0)) / bif_bw
                    if time > worst:
                        worst = time

            # Violation shift, dictionary-free: buffers and MFC queues
            # change only at the origin and the target, plus the proxy
            # flip at producer-hosting SPEs on a PPE↔SPE kind change.
            flip = p_is_ppe != o_is_ppe
            if flip:
                if base_flip is None:
                    base_flip = base_viol + _origin_shift(s_flip)
                    for q, c in spe_srcs:
                        if q == o:
                            continue  # combined into the origin term
                        old = dproxy[q]
                        base_flip += (old + s_flip * c > proxy_slots) - (
                            old > proxy_slots
                        )
                nviol = base_flip
            else:
                nviol = base_same
            if not p_is_ppe:
                if need_t:
                    old = buffer[p]
                    nviol += (old + need_t > budget) - (old > budget)
                if in_nbr:
                    cp, up = Cget(p, 0), Uget(p, 0)
                    dv = cin - cp - up
                    if dv:
                        old = dmain[p]
                        nviol += (old + dv > in_slots) - (old > in_slots)
                    old = dproxy[p]
                    dv = up_cnt + (s_flip * cp if flip else 0)
                    if dv:
                        nviol += (old + dv > proxy_slots) - (old > proxy_slots)
                    if flip and cp:
                        # base_flip already counted p's standalone flip
                        # term; replace it with the combined term above.
                        nviol -= (old + s_flip * cp > proxy_slots) - (
                            old > proxy_slots
                        )
                else:
                    if cin:
                        old = dmain[p]
                        nviol += (old + cin > in_slots) - (old > in_slots)
                    if up_cnt:
                        old = dproxy[p]
                        nviol += (old + up_cnt > proxy_slots) - (
                            old > proxy_slots
                        )

            feasible = nviol == 0
            if not as_objective:
                results.append(MoveScore(worst, feasible, nviol))
                continue
            if objective is None:
                value = worst
            elif not track_app:
                value = objective.value(worst, None)
            else:
                ap_compute = a_compute[p] + (t_wppe if p_is_ppe else t_wspe)
                if in_nbr:
                    aft = Fget(p, 0.0) + Tget(p, 0.0)
                    ap_in = a_in[p] + rt - aft
                    ap_out = a_out[p] + wt - aft
                else:
                    ap_in = a_in[p] + rt
                    ap_out = a_out[p] + wt
                aval_p = max(ap_compute, ap_in / bw, ap_out / bw)
                aworst = atop2 if atop1_pe == p else atop1
                if aval_o > aworst:
                    aworst = aval_o
                if aval_p > aworst:
                    aworst = aval_p
                if multi:
                    for key, b in a_links:
                        time = (b + d_link.get(key, 0.0)) / bif_bw
                        if time > aworst:
                            aworst = time
                    for key, dv2 in d_link.items():
                        if key in a_link_keys:
                            continue
                        time = dv2 / bif_bw
                        if time > aworst:
                            aworst = time
                app_periods = dict(base_app_periods)
                app_periods[app_name] = aworst
                value = objective.value(worst, app_periods)
            results.append(ObjectiveScore(value, worst, feasible, nviol))
        return results

    def _sweep_deltas(
        self, tid: int, pes: Sequence[int]
    ) -> List[Optional[_Deltas]]:
        """``_deltas_ids({tid: pe})`` for each PE in ``pes`` (``None`` at
        the origin), deriving the buffer model once for all targets that
        host none of the task's neighbours.

        A move's buffer model depends on its target only through
        same-PE tests between the task and its neighbours, all false on
        such a target, so ``fp_new``/``esize_new``/``need_new`` are one
        value for the whole class.  ``d_buf`` is assembled per target:
        a target may host a resident whose footprint changes, and that
        PE's float sum follows :meth:`_buffer_d_buf`'s order.  Targets
        hosting a neighbour take the full derivation.
        """
        cg = self._cg
        pe_list = self._pe
        origin = pe_list[tid]
        in_src, out_dst = cg.in_src, cg.out_dst
        hosts = {
            pe_list[in_src[k]] for k in range(cg.in_ptr[tid], cg.in_ptr[tid + 1])
        }
        hosts.update(
            pe_list[out_dst[k]]
            for k in range(cg.out_ptr[tid], cg.out_ptr[tid + 1])
        )
        shared: Optional[_BufModel] = None
        out: List[Optional[_Deltas]] = []
        for pe in pes:
            if pe == origin:
                out.append(None)
                continue
            moved = {tid: pe}
            if pe in hosts:
                out.append(self._deltas_ids(moved))
                continue
            if shared is None:
                shared = self._buffer_model(moved)
            out.append(self._deltas_ids(moved, model=shared))
        return out

    def _target_sweep(self, tid: int, pes: Sequence[int], objective, as_objective):
        """Verdicts of moving ``tid`` to each PE in ``pes`` — the target
        sweep chokepoint.

        The default buffer model takes :meth:`_sweep`.  The
        mapping-dependent modes score every candidate exactly: natively
        under the ``cython`` backend (see :meth:`_native`), else through
        the delta path with the buffer model shared across
        neighbour-free targets (:meth:`_sweep_deltas`).  Entries whose
        target is the origin hold the current state's verdict.
        """
        if not self._mapping_dependent:
            return self._sweep(tid, pes, objective, as_objective)
        if self._native(objective):
            return [
                self._score_of(period, nviol, None, objective, as_objective)
                for period, nviol in self._ck.sweep(self, tid, pes)
            ]
        return [
            self._judge(deltas, objective, as_objective)
            for deltas in self._sweep_deltas(tid, pes)
        ]

    # ------------------------------------------------------------------ #
    # Public move/swap API (each score_X / evaluate_X twin shares one
    # private implementation, see the module docstring)

    def _move(self, task: str, pe: int, objective, as_objective):
        reg = _metrics.REGISTRY
        if reg is not None:
            reg.inc("moves_scored")
        tid = self._tid(task)
        if not 0 <= pe < self._n_pes:
            raise MappingError(
                f"task {task!r} moved to invalid PE {pe!r} "
                f"(platform has {self._n_pes} PEs)"
            )
        if self._mapping_dependent or self._native(objective):
            moved = {} if pe == self._pe[tid] else {tid: pe}
            return self._verdict(moved, objective, as_objective)
        return self._sweep(tid, (pe,), objective, as_objective)[0]

    def score_move(self, task: str, pe: int) -> MoveScore:
        """Score of the mapping with ``task`` moved to ``pe`` — O(deg(task))."""
        return self._move(task, pe, None, False)

    def evaluate_move(self, task: str, pe: int, objective=None) -> ObjectiveScore:
        """Objective score with ``task`` moved to ``pe`` — O(deg(task))."""
        return self._move(task, pe, objective, True)

    def _moves(self, task: str, pes, objective, as_objective):
        tid = self._tid(task)
        if pes is None:
            pes = range(self._n_pes)
        else:
            self._check_pes(pes)
        reg = _metrics.REGISTRY
        if reg is not None:
            reg.inc("moves_scored", len(pes))
        return self._target_sweep(tid, pes, objective, as_objective)

    def score_moves(
        self, task: str, pes: Optional[Sequence[int]] = None
    ) -> List[MoveScore]:
        """Scores of moving ``task`` to each PE in ``pes``, in one pass.

        ``pes`` defaults to every PE of the platform, so the result is
        indexable by PE number; the entry for the task's current PE holds
        the score of the unchanged state.  One O(deg + n_pes) shared
        precomputation plus O(1) per candidate — the full-neighbourhood
        hot path of the search heuristics (see the module docstring).
        """
        return self._moves(task, pes, None, False)

    def evaluate_moves(
        self,
        task: str,
        pes: Optional[Sequence[int]] = None,
        objective=None,
    ) -> List[ObjectiveScore]:
        """Objective scores of moving ``task`` to each PE in ``pes``.

        The objective-aware sibling of :meth:`score_moves` — one shared
        precomputation, O(1) per candidate (plus O(n_apps) dictionary
        assembly when the objective consumes per-application periods —
        a move only perturbs its own application, so the others' cached
        periods are reused verbatim).
        """
        return self._moves(task, pes, objective, True)

    def _swap(self, a: str, b: str, objective, as_objective):
        reg = _metrics.REGISTRY
        if reg is not None:
            reg.inc("swaps_scored")
        changes = {a: self.pe_of(b), b: self.pe_of(a)}
        return self._verdict(self._to_moved(changes), objective, as_objective)

    def score_swap(self, a: str, b: str) -> MoveScore:
        """Score of the mapping with tasks ``a`` and ``b`` exchanging PEs."""
        return self._swap(a, b, None, False)

    def evaluate_swap(self, a: str, b: str, objective=None) -> ObjectiveScore:
        """Objective score with tasks ``a`` and ``b`` exchanging PEs."""
        return self._swap(a, b, objective, True)

    def _changes(self, changes: Dict[str, int], objective, as_objective):
        reg = _metrics.REGISTRY
        if reg is not None:
            reg.inc("bulk_changes")
        moved = self._to_moved(dict(changes))
        return self._verdict(moved, objective, as_objective)

    def score_changes(self, changes: Dict[str, int]) -> MoveScore:
        """Score of the mapping with all of ``changes`` applied at once.

        ``changes`` maps task names to target PEs; tasks already on their
        target are ignored.  This is the bulk interface population
        metaheuristics use to evaluate crossover offspring in one pass.
        """
        return self._changes(changes, None, False)

    def evaluate_changes(
        self, changes: Dict[str, int], objective=None
    ) -> ObjectiveScore:
        """Objective score with all of ``changes`` applied at once."""
        return self._changes(changes, objective, True)

    def _commit(
        self, changes: Dict[str, int], if_feasible: bool = False
    ) -> Optional[MoveScore]:
        """The one commit path (native under the ``cython`` backend).

        Applies ``changes``; with ``if_feasible`` only when the candidate
        is feasible, returning its score whether or not it was committed.
        """
        moved = self._to_moved(changes)
        if not moved:
            return self.score() if if_feasible else None
        if self._ck is not None:
            if not if_feasible:
                self._ck.eval_changes(self, moved, _CK_APPLY)
                return None
            period, nviol, _applied = self._ck.eval_changes(
                self, moved, _CK_SCORE | _CK_APPLY_IF_FEASIBLE
            )
            return MoveScore(period, nviol == 0, nviol)
        deltas = self._deltas_ids(moved)
        score = self._judge(deltas, None, False) if if_feasible else None
        if score is None or score.feasible:
            self._apply(deltas)
        return score

    def apply_move(self, task: str, pe: int) -> None:
        """Commit a single-task move into the cached state — O(deg(task))."""
        self._commit({task: pe})

    def apply_swap(self, a: str, b: str) -> None:
        """Commit a task-pair PE exchange into the cached state."""
        self._commit({a: self.pe_of(b), b: self.pe_of(a)})

    @_traced("kernel:apply_changes")
    def apply_changes(self, changes: Dict[str, int]) -> None:
        """Commit a set of simultaneous task moves into the cached state."""
        self._commit(dict(changes))

    def try_apply_changes(self, changes: Dict[str, int]) -> MoveScore:
        """Score ``changes`` and commit them only when feasible.

        One delta computation serves both the verdict and the commit —
        half the cost of ``score_changes`` + ``apply_changes`` on the
        population-search hot path.  Returns the score of the candidate
        state whether or not it was committed.
        """
        reg = _metrics.REGISTRY
        if reg is not None:
            reg.inc("bulk_changes")
        return self._commit(dict(changes), if_feasible=True)

    # ------------------------------------------------------------------ #
    # Objective-aware evaluation (the pluggable-objective hot path)

    def evaluate(self, objective=None) -> ObjectiveScore:
        """Objective score of the *current* state.

        ``objective`` is any object with a ``needs_app_periods`` flag and
        a ``value(period, app_periods)`` method (see
        :mod:`repro.steady_state.objective`); ``None`` means the plain
        period objective.
        """
        return self._judge(None, objective, True)

    @_traced("kernel:best_move")
    def best_move(
        self,
        tasks: Optional[Sequence[str]] = None,
        pes: Optional[Sequence[int]] = None,
        objective=None,
        period_cap: float = math.inf,
    ) -> Optional[Tuple[str, int, ObjectiveScore]]:
        """The best feasible single-task move over a whole neighbourhood.

        Scans ``tasks`` (default: all) × ``pes`` (default: all) and
        returns ``(task, pe, score)`` for the candidate minimising
        ``(value, period)`` *strictly below* the current state's — or
        ``None`` at a local optimum.  Candidates whose period exceeds
        ``period_cap`` are skipped unless they still reduce the current
        period (the failure-repair descent rule of the online runtime).
        Ties keep the earliest candidate in visit order, matching the
        historical per-candidate loops move for move.

        Batches (two or more tasks, or any mapping-dependent call) go
        through the two-phase selection (:meth:`_select`); a single
        task in the default buffer model — the online insertion step —
        is one target sweep.
        """
        current = self.evaluate(objective)
        full = tasks is None, pes is None
        tids, names = self._resolve_tasks(tasks)
        pes = self._resolve_pes(pes)
        best_key = (current.value, current.period)
        cap = period_cap
        cur_period = current.period
        if self._mapping_dependent or len(tids) >= self._VECTOR_MIN_TASKS:
            best_value, best_period = best_key

            def admit(value, period, _row):
                return (
                    (value < best_value)
                    | ((value == best_value) & (period < best_period))
                ) & ((period <= cap) | (period < cur_period))

            found = self._select(
                tids, pes, full, objective, admit, by_period=True
            )
            if found is None:
                return None
            tid, pe, _partner, score = found
            return self._cg.names[tid], pe, score
        best: Optional[Tuple[str, int, ObjectiveScore]] = None
        for tid, name in zip(tids, names):
            origin = self._pe[tid]
            for pe, score in zip(pes, self._moves(name, pes, objective, True)):
                if pe == origin or not score.feasible:
                    continue
                if score.period > cap and score.period >= cur_period:
                    continue
                key = (score.value, score.period)
                if key < best_key:
                    best, best_key = (name, pe, score), key
        return best

    # ------------------------------------------------------------------ #
    # Two-phase neighbourhood selection

    def _rank_moves(self, tids, pes, full, objective):
        """Phase 1 over the moves of ``tids`` to ``pes``.

        Returns ``(value, period, nviol, origin)`` arrays shaped
        ``len(tids) × len(pes)``, holding the floats the eager batch APIs
        produce: the dense ``move_matrix`` where ``evaluate_all_moves``
        uses it, else the scalar kernel.  In the mapping-dependent modes
        the buffer model is skipped and ``nviol`` is ``None``.
        """
        import numpy as np

        md = self._mapping_dependent
        k, m = len(tids), len(pes)
        dense = self._dense()
        if dense is not None and k >= self._VECTOR_MIN_TASKS:
            cg = self._cg
            track_app = (
                objective is not None
                and getattr(objective, "needs_app_periods", False)
                and cg.app_index is not None
            )
            res = dense.move_matrix(
                None if full[0] else tids, None if full[1] else pes, track_app
            )
            worst = res.worst
            if objective is None or isinstance(objective, PeriodObjective):
                value = worst
            else:
                value = np.full_like(worst, math.inf)
                base_app = self.app_periods() if track_app else None
                for i, tid in enumerate(tids):
                    for j in range(m):
                        if res.origin[i, j]:
                            continue
                        w = float(worst[i, j])
                        if not track_app:
                            value[i, j] = objective.value(w, None)
                            continue
                        ap = dict(base_app)
                        ap[cg.app_names[cg.app_index[tid]]] = float(
                            res.aworst[i, j]
                        )
                        value[i, j] = objective.value(w, ap)
            return value, worst, None if md else res.nviol, res.origin
        value = np.full((k, m), math.inf)
        period = np.full((k, m), math.inf)
        nviol = None if md else np.zeros((k, m), np.int64)
        origin = np.zeros((k, m), bool)
        pe_list = self._pe
        for i, tid in enumerate(tids):
            o = pe_list[tid]
            if not md:
                for j, score in enumerate(self._sweep(tid, pes, objective, True)):
                    value[i, j], period[i, j] = score.value, score.period
                    nviol[i, j] = score.n_violations
                    origin[i, j] = pes[j] == o
                continue
            for j, pe in enumerate(pes):
                if pe == o:
                    origin[i, j] = True
                    continue
                deltas = self._deltas_ids({tid: pe}, with_buffers=False)
                period[i, j] = p = self._candidate_period(deltas)
                value[i, j] = self._value(p, deltas, objective)
        return value, period, nviol, origin

    def _rank_swaps(self, ta, tb, objective):
        """Phase 1 over the swaps ``(ta[s], tb[s])`` (distinct PEs).

        Returns ``(value, period, nviol)`` arrays — the dense
        ``swap_matrix`` where ``evaluate_swaps`` uses it, else the
        per-pair path; ``nviol`` is ``None`` in the mapping-dependent
        modes, whose per-pair path skips the buffer model.
        """
        import numpy as np

        md = self._mapping_dependent
        dense = self._dense()
        if (
            dense is not None
            and not self._multi
            and len(ta) >= self._VECTOR_MIN_TASKS
            and not getattr(objective, "needs_app_periods", False)
        ):
            worst, nviol, _same = dense.swap_matrix(ta, tb)
            if objective is None or isinstance(objective, PeriodObjective):
                value = worst
            else:
                value = np.array(
                    [objective.value(float(w), None) for w in worst]
                )
            return value, worst, None if md else nviol
        value = np.empty(len(ta))
        period = np.empty(len(ta))
        nviol = None if md else np.empty(len(ta), np.int64)
        pe_list = self._pe
        for s, (a, b) in enumerate(zip(ta, tb)):
            moved = {a: pe_list[b], b: pe_list[a]}
            if md:
                deltas = self._deltas_ids(moved, with_buffers=False)
                period[s] = p = self._candidate_period(deltas)
                value[s] = self._value(p, deltas, objective)
            else:
                score = self._verdict(moved, objective, True)
                value[s], period[s] = score.value, score.period
                nviol[s] = score.n_violations
        return value, period, nviol

    def _select(
        self, tids, pes, full, objective, admit, swaps=False, by_period=False
    ):
        """Two-phase selection over a move (and swap) neighbourhood.

        **Phase 1** ranks every candidate — the moves of ``tids`` to
        ``pes`` in visit order, then with ``swaps`` the distinct-PE pairs
        of ``tids`` in ``(a_idx < b_idx)`` order — by its value, computed
        without the mapping-dependent buffer model (:meth:`_rank_moves`,
        :meth:`_rank_swaps`; ``full`` flags ``tids``/``pes`` that are the
        whole task/PE range).  ``admit(value, period, row)`` is the
        caller's bound (vectorized; ``row`` indexes ``tids`` for moves
        and is ``None`` for swaps).  **Phase 2** walks the admitted
        candidates in ``(value[, period], visit order)`` order, scores
        each one through the exact per-candidate path
        (:meth:`_verdict`) and returns the first that is feasible
        and still admitted: ``(tid, pe, partner_tid, score)``, with
        ``partner_tid`` ``None`` for a move.  That is the candidate an
        eager scan keeping the strictly-best feasible value picks.  In
        the default buffer model phase 1's verdicts are already exact,
        so phase 2 is a lookup.
        """
        import numpy as np

        value, period, nviol, origin = self._rank_moves(
            tids, pes, full, objective
        )
        k, m = len(tids), len(pes)
        n_moves = k * m
        value, period, origin = value.ravel(), period.ravel(), origin.ravel()
        ok = ~origin & admit(value, period, np.repeat(np.arange(k), m))
        if nviol is not None:
            nviol = nviol.ravel()
        ta: List[int] = []
        tb: List[int] = []
        if swaps:
            tid_arr = np.asarray(tids, np.int64)
            host = np.asarray(self._pe, np.int64)[tid_arr]
            ia, ib = np.triu_indices(k, 1)
            keep = host[ia] != host[ib]
            ta = tid_arr[ia[keep]].tolist()
            tb = tid_arr[ib[keep]].tolist()
            s_value, s_period, s_nviol = self._rank_swaps(ta, tb, objective)
            ok = np.concatenate([ok, admit(s_value, s_period, None)])
            value = np.concatenate([value, s_value])
            period = np.concatenate([period, s_period])
            if nviol is not None:
                nviol = np.concatenate([nviol, s_nviol])
        reg = _metrics.REGISTRY
        if reg is not None:
            reg.inc("moves_scored", n_moves)
            if swaps:
                reg.inc("swaps_scored", len(ta))
            reg.inc("candidates_ranked", n_moves + len(ta))
        if nviol is not None:
            ok &= nviol == 0
        idx = np.flatnonzero(ok)
        if not idx.size:
            return None
        keys = (idx, period[idx], value[idx]) if by_period else (idx, value[idx])
        pe_list = self._pe
        for c in idx[np.lexsort(keys)].tolist():
            if c < n_moves:
                row, j = divmod(c, m)
                tid, pe, partner = tids[row], pes[j], None
                moved = {tid: pe}
            else:
                row = None
                tid, partner = ta[c - n_moves], tb[c - n_moves]
                pe = pe_list[partner]
                moved = {tid: pe, partner: pe_list[tid]}
            if nviol is not None:
                score = ObjectiveScore(float(value[c]), float(period[c]), True, 0)
                return tid, pe, partner, score
            if reg is not None:
                reg.inc("candidates_confirmed")
            score = self._verdict(moved, objective, True)
            if score.feasible and admit(score.value, score.period, row):
                return tid, pe, partner, score
        return None

    @_traced("kernel:best_candidate")
    def best_candidate(
        self,
        tasks: Optional[Sequence[str]] = None,
        objective=None,
        bound: Union[float, Sequence[float]] = math.inf,
        swaps: bool = False,
    ) -> Optional[Tuple[str, int, Optional[str], ObjectiveScore]]:
        """The feasible neighbour with the smallest value below ``bound``.

        Candidates are the moves of ``tasks`` (default: all, in graph
        order) to every other PE, in visit order, then — with ``swaps``
        — every distinct-PE task pair in ``(a_idx < b_idx)`` order over
        ``tasks``.  A candidate qualifies when it is feasible and its
        objective value is strictly below ``bound``: one number, or one
        per task in ``tasks`` order (moves only).  Ties keep the earliest
        candidate, so the pick is exactly the one an eager scan of
        ``evaluate_all_moves`` + ``evaluate_swaps`` makes — the
        ``local_search`` / ``tabu_search`` selection rule.

        Returns ``(task, pe, partner, score)`` or ``None``: ``partner``
        is ``None`` for a move of ``task`` to ``pe``; for a swap it names
        the task trading places with ``task`` (``pe`` is its PE).

        Evaluation is two-phase (see :meth:`_select`): candidates are
        ranked by value without the mapping-dependent buffer model, and
        only those that can win are scored exactly.  The ranking comes
        from the dense kernel under ``auto`` (its ulp contract applies
        on non-integer graphs) and from the scalar kernel under
        ``python`` (the same floats as the eager scan); the returned
        ``score`` and every feasibility verdict are exact.
        """
        import numpy as np

        tids, _names = self._resolve_tasks(tasks)
        pes = list(range(self._n_pes))
        if isinstance(bound, (int, float)):
            limit = float(bound)

            def admit(value, _period, _row):
                return value < limit

        else:
            bounds = np.asarray(bound, dtype=float)
            if swaps or bounds.shape != (len(tids),):
                raise ValueError(
                    "per-task bounds need one value per task and no swaps"
                )

            def admit(value, _period, row):
                return value < bounds[row]

        found = self._select(
            tids, pes, (tasks is None, True), objective, admit, swaps=swaps
        )
        if found is None:
            return None
        tid, pe, partner, score = found
        names = self._cg.names
        return (
            names[tid], pe, None if partner is None else names[partner], score
        )

    # ------------------------------------------------------------------ #
    # Whole-neighbourhood / population batch API (dense kernels)

    def _resolve_tasks(
        self, tasks: Optional[Sequence[str]]
    ) -> Tuple[List[int], List[str]]:
        """``tasks`` (default: all, in graph order) as ids + names."""
        if tasks is None:
            names = list(self._cg.names)
            tids = list(range(self._cg.n))
        else:
            names = list(tasks)
            tids = [self._tid(name) for name in names]
        return tids, names

    def _resolve_pes(self, pes: Optional[Sequence[int]]) -> List[int]:
        if pes is None:
            return list(range(self._n_pes))
        pes = list(pes)
        self._check_pes(pes)
        return pes

    def _all_moves(self, tasks, pes, objective, as_objective):
        """Every (task, PE) move of ``tasks`` × ``pes``.

        Returns ``(rows, None)``, one :meth:`_moves` row per task, or in
        the default buffer model on the fast engine ``(None, (value,
        period, nviol, origin))`` arrays from one dense pass.
        """
        full = tasks is None, pes is None
        tids, names = self._resolve_tasks(tasks)
        pes = self._resolve_pes(pes)
        if (
            self._mapping_dependent
            or len(tids) < self._VECTOR_MIN_TASKS
            or self._dense() is None
        ):
            rows = [self._moves(name, pes, objective, as_objective) for name in names]
            return rows, None
        reg = _metrics.REGISTRY
        if reg is not None:
            reg.inc("moves_scored", len(tids) * len(pes))
        return None, self._rank_moves(tids, pes, full, objective)

    @_traced("kernel:score_move_matrix")
    def score_move_matrix(self, tasks=None, pes=None):
        """Periods and violation counts of every (task, PE) move at once.

        Returns ``(period, n_violations)`` shaped ``len(tasks) ×
        len(pes)`` — ndarrays from the dense kernel, nested lists from
        the scalar one (entries compare equal either way).  Entries
        whose target equals the task's current PE hold the current
        state's period/violations, mirroring :meth:`score_moves`.  This
        is the raw whole-neighbourhood kernel; :meth:`evaluate_all_moves`
        is the objective-aware sibling.
        """
        rows, dense = self._all_moves(tasks, pes, None, False)
        if dense is None:
            return (
                [[s.period for s in row] for row in rows],
                [[s.n_violations for s in row] for row in rows],
            )
        _value, worst, nviol, origin = dense
        if origin.any():
            cur = self.score()
            worst[origin] = cur.period
            nviol[origin] = cur.n_violations
        return worst, nviol

    @_traced("kernel:evaluate_all_moves")
    def evaluate_all_moves(
        self,
        tasks: Optional[Sequence[str]] = None,
        pes: Optional[Sequence[int]] = None,
        objective=None,
    ) -> List[List[ObjectiveScore]]:
        """Objective scores of every (task, PE) move — one dense pass.

        Row ``i`` equals ``evaluate_moves(tasks[i], pes, objective)``
        exactly (bit-identical on integer-valued graphs); with the dense
        kernel all rows come from a single masked cost-matrix pass
        instead of one kernel sweep per task.
        """
        rows, dense = self._all_moves(tasks, pes, objective, True)
        if dense is None:
            return rows
        value, worst, nviol, origin = dense
        current: Optional[ObjectiveScore] = None
        rows = []
        for i in range(origin.shape[0]):
            row: List[ObjectiveScore] = []
            for j in range(origin.shape[1]):
                if origin[i, j]:
                    if current is None:
                        current = self.evaluate(objective)
                    row.append(current)
                    continue
                nv = int(nviol[i, j])
                row.append(
                    ObjectiveScore(
                        float(value[i, j]), float(worst[i, j]), nv == 0, nv
                    )
                )
            rows.append(row)
        return rows

    def _swaps(self, pairs, objective, as_objective):
        """Batched swap verdicts: the dense swap kernel on single-cell
        platforms in the default buffer model (objectives without
        per-app periods), else the per-pair path."""
        pairs = [(a, b) for a, b in pairs]
        if (
            self._mapping_dependent
            or self._multi
            or len(pairs) < self._VECTOR_MIN_TASKS
            or getattr(objective, "needs_app_periods", False)
            or self._dense() is None
        ):
            return [self._swap(a, b, objective, as_objective) for a, b in pairs]
        reg = _metrics.REGISTRY
        if reg is not None:
            reg.inc("swaps_scored", len(pairs))
        ta = [self._tid(a) for a, _ in pairs]
        tb = [self._tid(b) for _, b in pairs]
        worst, nviol, same = self._dense().swap_matrix(ta, tb)
        current = None
        out = []
        for k in range(len(pairs)):
            if same[k]:
                if current is None:
                    current = self._judge(None, objective, as_objective)
                out.append(current)
                continue
            nv = int(nviol[k])
            out.append(
                self._score_of(float(worst[k]), nv, None, objective, as_objective)
            )
        return out

    @_traced("kernel:score_swaps")
    def score_swaps(
        self, pairs: Sequence[Tuple[str, str]]
    ) -> List[MoveScore]:
        """Scores of exchanging each task pair's PEs, batched.

        Entry ``k`` equals ``score_swap(*pairs[k])``.  The numpy swap
        kernel covers single-cell platforms under the default buffer
        model; multi-cell platforms and the mapping-dependent modes fall
        back to the per-pair path.
        """
        return self._swaps(pairs, None, False)

    @_traced("kernel:evaluate_swaps")
    def evaluate_swaps(
        self, pairs: Sequence[Tuple[str, str]], objective=None
    ) -> List[ObjectiveScore]:
        """Objective scores of each task-pair PE exchange, batched.

        Entry ``k`` equals ``evaluate_swap(*pairs[k], objective)``.
        Objectives consuming per-application periods fall back to the
        per-pair path (a swap may perturb two applications at once, so
        there is no single-app shortcut to vectorize).
        """
        return self._swaps(pairs, objective, True)

    def _population_kernel(self, objective):
        """The dense kernel a population pass runs on, or ``None`` for
        the per-candidate path — the population chokepoint.

        The dense pass everywhere except where the compiled extension
        scores a mapping-dependent candidate natively (objectives without
        per-app periods): there the native per-candidate path is the
        faster one on the GA's populations.
        """
        if self._mapping_dependent and self._native(objective):
            return None
        return self._dense()

    def _assignment_rows(self, assignments: Sequence[Dict[str, int]]):
        """Candidate full mappings as a (K, n) PE matrix, validated."""
        import numpy as np

        P = np.tile(
            np.asarray(self._pe, dtype=np.int64), (len(assignments), 1)
        )
        index = self._cg.index
        n = self._n_pes
        for k, changes in enumerate(assignments):
            for name, pe in changes.items():
                tid = index.get(name)
                if tid is None:
                    raise MappingError(f"task {name!r} is not mapped")
                if not 0 <= pe < n:
                    raise MappingError(
                        f"task {name!r} moved to invalid PE {pe!r} "
                        f"(platform has {n} PEs)"
                    )
                P[k, tid] = pe
        return P

    def _population_rows(self, assignments):
        """A population as a validated (K, n) int64 PE matrix.

        ``assignments`` holds either change sets (dicts, see
        :meth:`_assignment_rows`) or full PE rows in compiled task order
        (:meth:`pe_row`'s), as a sequence or a (K, n) integer array.
        """
        import numpy as np

        n_tasks = len(self._pe)
        if not isinstance(assignments, np.ndarray):
            assignments = list(assignments)
            if not assignments:
                return np.empty((0, n_tasks), dtype=np.int64)
            if hasattr(assignments[0], "items"):  # change sets
                return self._assignment_rows(assignments)
        try:
            P = np.asarray(assignments)
        except ValueError:
            raise MappingError("PE rows differ in length") from None
        if P.ndim != 2 or P.shape[1] != n_tasks:
            raise MappingError(
                f"PE rows must have {n_tasks} entries, one per task "
                f"(got shape {P.shape})"
            )
        if P.dtype.kind not in "iu":
            raise MappingError(f"PE rows must hold integers (got {P.dtype})")
        n = self._n_pes
        if len(P) and (P.min() < 0 or P.max() >= n):
            k, tid = (int(i) for i in np.argwhere((P < 0) | (P >= n))[0])
            raise MappingError(
                f"task {self._cg.names[tid]!r} moved to invalid PE "
                f"{int(P[k, tid])!r} (platform has {n} PEs)"
            )
        return P.astype(np.int64, copy=False)

    def _assignments(self, assignments, objective, as_objective):
        import numpy as np

        P = self._population_rows(assignments)
        cg = self._cg
        needs_apps = getattr(objective, "needs_app_periods", False)
        kernel = self._population_kernel(objective)
        reg = _metrics.REGISTRY
        if reg is not None:
            reg.inc("bulk_changes", len(P))
        if (
            kernel is None
            or len(P) < self._VECTOR_MIN_TASKS
            or (needs_apps and cg.app_index is None)
        ):
            # Per candidate: each row's change set is the tasks it moves
            # off their current PE (what ``_to_moved`` keeps of a dict).
            moved_rows = P != np.asarray(self._pe, dtype=np.int64)
            out = []
            for row, moved_mask in zip(P, moved_rows):
                tids = np.flatnonzero(moved_mask)
                moved = dict(zip(tids.tolist(), row[tids].tolist()))
                out.append(self._verdict(moved, objective, as_objective))
            return out
        period, nviol, app_mat = kernel.assignment_matrix(P, needs_apps)
        out = []
        for k, (w, nv) in enumerate(zip(period.tolist(), nviol.tolist())):
            if not as_objective:
                out.append(MoveScore(w, nv == 0, nv))
                continue
            if objective is None:
                value = w
            elif needs_apps:
                ap = {
                    app: float(app_mat[k, a])
                    for a, app in enumerate(cg.app_names)
                }
                value = objective.value(w, ap)
            else:
                value = objective.value(w, None)
            out.append(ObjectiveScore(value, w, nv == 0, nv))
        return out

    @_traced("kernel:score_assignments")
    def score_assignments(self, assignments) -> List[MoveScore]:
        """Scores of K whole candidate mappings — one population pass.

        Each element of ``assignments`` is either a change set relative
        to the current state (``{}`` scores the state itself) or a full
        PE row in compiled task order (``graph.task_names()`` order, as
        :meth:`pe_row` returns); a population of rows may also come as
        a (K, n) integer array.  Entry ``k`` has the verdict of
        ``score_changes`` on the tasks candidate ``k`` moves off their
        current PE, taken in task order.  On the fast engine (see
        :meth:`_population_kernel`) the K candidates are scored by a
        single from-scratch matrix pass — the GA's generation-evaluation
        hot path — whose floats are ``analyze()``'s for each candidate
        mapping.  Rows skip the task-name lookups entirely.  Invalid
        input — an unknown task, a PE off the platform, a row of the
        wrong length or with non-integer entries — raises
        :class:`MappingError`.
        """
        return self._assignments(assignments, None, False)

    @_traced("kernel:evaluate_assignments")
    def evaluate_assignments(
        self, assignments, objective=None
    ) -> List[ObjectiveScore]:
        """Objective scores of K whole candidate mappings, batched.

        ``assignments`` takes change sets or PE rows as in
        :meth:`score_assignments`; entry ``k`` has the verdict of
        ``evaluate_changes`` on candidate ``k``'s moved tasks under
        ``objective``.  Per-application periods (when the objective
        needs them) come from the same population pass.
        """
        return self._assignments(assignments, objective, True)

    # ------------------------------------------------------------------ #
    # Full analysis


    def snapshot(self) -> PeriodAnalysis:
        """A full :class:`PeriodAnalysis` of the current state.

        Field-for-field identical to ``analyze(self.mapping(),
        elide_local_comm=..., merge_same_pe_buffers=...)`` with this
        analyzer's flags (see the module docstring for the exactness
        guarantee), built in O(V + n_pes) without re-walking the edges.
        """
        platform = self.platform
        bw = self._bw
        loads = [
            ResourceLoad(
                pe=i,
                pe_name=platform.pe_name(i),
                compute=self._compute[i],
                comm_in=self._in_bytes[i] / bw,
                comm_out=self._out_bytes[i] / bw,
            )
            for i in range(self._n_pes)
        ]
        buffer_bytes = {i: self._buffer[i] for i in platform.spe_indices}
        dma_in = {i: self._dma_in[i] for i in platform.spe_indices}
        dma_proxy = {i: self._dma_proxy[i] for i in platform.spe_indices}
        violations, link_loads = violations_and_links(
            platform, buffer_bytes, dma_in, dma_proxy, self._link_bytes
        )
        return PeriodAnalysis(
            mapping=self.mapping(),
            loads=loads,
            buffer_bytes=buffer_bytes,
            dma_in=dma_in,
            dma_proxy=dma_proxy,
            violations=violations,
            link_loads=link_loads,
            app_periods=self.app_periods(),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flags = []
        if self.elide_local_comm:
            flags.append("elide_local_comm")
        if self.merge_same_pe_buffers:
            flags.append("merge_same_pe_buffers")
        suffix = f", {'+'.join(flags)}" if flags else ""
        return (
            f"DeltaAnalyzer({self.graph.name!r}, period={self.period():.3f}, "
            f"violations={self._n_violations}{suffix})"
        )


class ClonePool:
    """Free-list of :class:`DeltaAnalyzer` clones reused across
    generations.

    Population metaheuristics allocate one clone per offspring per
    generation and drop the whole previous generation on the floor; the
    pool instead recycles retired analyzers through
    :meth:`DeltaAnalyzer.copy_from` (in-place slice-assignment and dict
    refills) so steady-state GA generations allocate nothing but dict
    resizes.  Retired analyzers whose structure no longer matches the
    parent (different compiled graph, platform, flags or backend) are
    discarded on reuse.
    """

    __slots__ = ("_free",)

    #: Retired analyzers beyond this many are dropped (a workload
    #: change can orphan a whole generation of incompatible clones).
    MAX_FREE = 256

    def __init__(self) -> None:
        self._free: List[DeltaAnalyzer] = []

    def __len__(self) -> int:
        return len(self._free)

    def clone(self, parent: DeltaAnalyzer) -> DeltaAnalyzer:
        """A state-copy of ``parent`` — recycled when possible."""
        reg = _metrics.REGISTRY
        free = self._free
        while free:
            candidate = free.pop()
            if candidate.compatible_with(parent):
                if reg is not None:
                    reg.inc("clone_pool_hits")
                return candidate.copy_from(parent)
        if reg is not None:
            reg.inc("clone_pool_misses")
        return parent.clone()

    def retire(self, analyzer: DeltaAnalyzer) -> None:
        """Hand an analyzer back for reuse; its state may be clobbered
        by any later :meth:`clone` call."""
        if len(self._free) < self.MAX_FREE:
            self._free.append(analyzer)
