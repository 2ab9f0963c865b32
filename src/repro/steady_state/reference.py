"""Full-``analyze()`` reference evaluators: the oracle for the delta engine.

:class:`~repro.steady_state.delta.DeltaAnalyzer` reproduces ``analyze()``
bit for bit from incremental state.  The evaluators here take the long
way instead: every candidate is scored by a fresh O(V+E) ``analyze()``
of the whole candidate mapping, so they share no kernel code with the
engine they check.

* :class:`_ReferenceState` — a stand-in for ``DeltaAnalyzer`` over the
  evaluation surface the online scheduler uses.  Tests and benches
  substitute it for ``DeltaAnalyzer`` in :mod:`repro.runtime.scheduler`
  (``monkeypatch.setattr``) to replay a timeline on the oracle;
* :func:`_local_search_full` — steepest descent with one ``analyze()``
  per candidate, visiting candidates in the same order as
  :func:`repro.heuristics.local_search`;
* :func:`_local_search_eager` / :func:`_tabu_search_eager` — the two
  strategies with the eager neighbourhood scan they used before the
  two-phase selection (:meth:`DeltaAnalyzer.best_candidate`): every
  candidate's exact score from ``evaluate_all_moves`` /
  ``evaluate_swaps``, buffer model included, kept when strictly best.
  The two-phase strategies must pick exactly what these pick.

No production module imports this one (``tests/test_structure.py``
guards that); it exists for the equivalence tests and the speed-up
benches.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import MappingError
from ..graph.stream_graph import StreamGraph
from ..heuristics.extra import _RESYNC_EVERY, _feasible_start
from ..platform.cell import CellPlatform
from .delta import DeltaAnalyzer, ObjectiveScore
from .mapping import Mapping
from .objective import make_objective
from .throughput import PeriodAnalysis, analyze


def _analysis_value(objective, analysis: PeriodAnalysis) -> float:
    """Objective value of a full ``analyze()`` result (reference path)."""
    return objective.value(analysis.period, analysis.app_periods)


def _score_analysis(analysis: PeriodAnalysis, objective) -> ObjectiveScore:
    """An :class:`ObjectiveScore` from a full analysis (reference path).

    Mirrors ``DeltaAnalyzer._score_of`` so the two paths rank candidates
    by the exact same values.
    """
    if objective is None or not getattr(objective, "needs_app_periods", False):
        value = (
            analysis.period
            if objective is None
            else objective.value(analysis.period, None)
        )
    else:
        value = objective.value(analysis.period, analysis.app_periods)
    return ObjectiveScore(
        value=value,
        period=analysis.period,
        feasible=analysis.feasible,
        n_violations=len(analysis.violations),
    )


class _ReferenceState:
    """Full-``analyze()`` stand-in for :class:`DeltaAnalyzer`.

    Implements exactly the evaluation surface the scheduler uses, with
    every query answered by a fresh O(V+E) analysis of the whole mapping
    — the reference the delta path is checked (and benchmarked) against.
    """

    def __init__(
        self,
        mapping: Mapping,
        elide_local_comm: bool = False,
        merge_same_pe_buffers: bool = False,
        backend: Optional[str] = None,
    ) -> None:
        # ``backend`` is accepted and ignored, so the scheduler can build
        # this class with the arguments it passes to ``DeltaAnalyzer``.
        self.graph = mapping.graph
        self.platform = mapping.platform
        self.elide_local_comm = bool(elide_local_comm)
        self.merge_same_pe_buffers = bool(merge_same_pe_buffers)
        self._assign: Dict[str, int] = mapping.to_dict()

    def _analyze(self, assign: Dict[str, int]) -> PeriodAnalysis:
        return analyze(
            Mapping(self.graph, self.platform, assign),
            elide_local_comm=self.elide_local_comm,
            merge_same_pe_buffers=self.merge_same_pe_buffers,
        )

    def pe_of(self, task: str) -> int:
        try:
            return self._assign[task]
        except KeyError:
            raise MappingError(f"task {task!r} is not mapped") from None

    def assignment(self) -> Dict[str, int]:
        return dict(self._assign)

    def tasks_on(self, pe: int) -> List[str]:
        if not 0 <= pe < self.platform.n_pes:
            raise MappingError(
                f"invalid PE {pe!r} (platform has {self.platform.n_pes} PEs)"
            )
        return [name for name, host in self._assign.items() if host == pe]

    def mapping(self) -> Mapping:
        return Mapping(self.graph, self.platform, self._assign)

    def snapshot(self) -> PeriodAnalysis:
        return self._analyze(self._assign)

    def app_periods(self) -> Dict[str, float]:
        return dict(self.snapshot().app_periods)

    def period(self) -> float:
        return self.snapshot().period

    @property
    def feasible(self) -> bool:
        return self.snapshot().feasible

    def evaluate(self, objective=None) -> ObjectiveScore:
        return _score_analysis(self.snapshot(), objective)

    def evaluate_move(self, task: str, pe: int, objective=None) -> ObjectiveScore:
        candidate = dict(self._assign)
        candidate[task] = pe
        return _score_analysis(self._analyze(candidate), objective)

    def evaluate_moves(
        self,
        task: str,
        pes: Optional[Sequence[int]] = None,
        objective=None,
    ) -> List[ObjectiveScore]:
        """Reference mirror of the delta engine's batched sweep.

        One full ``analyze()`` per candidate — no shared precomputation
        to exploit here, but the surface matches so the scheduler and
        ``budgeted_descent`` run unchanged on either engine.
        """
        if pes is None:
            pes = range(self.platform.n_pes)
        return [self.evaluate_move(task, pe, objective) for pe in pes]

    def best_move(
        self,
        tasks: Optional[Sequence[str]] = None,
        pes: Optional[Sequence[int]] = None,
        objective=None,
        period_cap: float = math.inf,
    ) -> Optional[Tuple[str, int, ObjectiveScore]]:
        """Reference mirror of :meth:`DeltaAnalyzer.best_move`."""
        current = self.evaluate(objective)
        if tasks is None:
            tasks = self.graph.task_names()
        if pes is None:
            pes = range(self.platform.n_pes)
        best: Optional[Tuple[str, int, ObjectiveScore]] = None
        best_key = (current.value, current.period)
        for name in tasks:
            origin = self.pe_of(name)
            for pe in pes:
                if pe == origin:
                    continue
                score = self.evaluate_move(name, pe, objective)
                if not score.feasible:
                    continue
                if score.period > period_cap and score.period >= current.period:
                    continue
                key = (score.value, score.period)
                if key < best_key:
                    best, best_key = (name, pe, score), key
        return best

    def apply_move(self, task: str, pe: int) -> None:
        self.pe_of(task)  # raises on unknown tasks, like the delta engine
        self._assign[task] = pe

    def apply_changes(self, changes: Dict[str, int]) -> None:
        for task, pe in changes.items():
            self.apply_move(task, pe)

    def clone(self) -> "_ReferenceState":
        return _ReferenceState(
            self.mapping(),
            elide_local_comm=self.elide_local_comm,
            merge_same_pe_buffers=self.merge_same_pe_buffers,
        )

    def resync(self) -> None:  # always exact — nothing to re-anchor
        pass


def _local_search_full(
    mapping: Mapping,
    max_rounds: int,
    try_swaps: bool,
    elide_local_comm: bool = False,
    merge_same_pe_buffers: bool = False,
    obj=None,
) -> Mapping:
    """Reference steepest descent: full ``analyze`` per candidate (seed code)."""
    if obj is None:
        obj = make_objective("period", mapping.graph)
    flags = dict(
        elide_local_comm=elide_local_comm,
        merge_same_pe_buffers=merge_same_pe_buffers,
    )
    current = mapping
    current_analysis = analyze(current, **flags)
    current_value = (
        _analysis_value(obj, current_analysis)
        if current_analysis.feasible
        else float("inf")
    )
    platform = mapping.platform
    names = mapping.graph.task_names()

    for _ in range(max_rounds):
        best_candidate = None
        best_value = current_value
        for name in names:
            origin = current.pe_of(name)
            for pe in range(platform.n_pes):
                if pe == origin:
                    continue
                candidate = current.with_assignment(name, pe)
                analysis = analyze(candidate, **flags)
                value = _analysis_value(obj, analysis)
                if analysis.feasible and value < best_value:
                    best_candidate, best_value = candidate, value
        if try_swaps:
            for a_idx in range(len(names)):
                for b_idx in range(a_idx + 1, len(names)):
                    a, b = names[a_idx], names[b_idx]
                    pe_a, pe_b = current.pe_of(a), current.pe_of(b)
                    if pe_a == pe_b:
                        continue
                    candidate = current.with_assignment(
                        a, pe_b
                    ).with_assignment(b, pe_a)
                    analysis = analyze(candidate, **flags)
                    value = _analysis_value(obj, analysis)
                    if analysis.feasible and value < best_value:
                        best_candidate, best_value = candidate, value
        if best_candidate is None:
            break
        current, current_value = best_candidate, best_value
    return current


def _local_search_eager(
    mapping: Mapping,
    max_rounds: int = 50,
    try_swaps: bool = True,
    elide_local_comm: bool = False,
    merge_same_pe_buffers: bool = False,
    objective: str = "period",
) -> Mapping:
    """Reference ``local_search``: scans every candidate's exact score."""
    obj = make_objective(objective, mapping.graph)
    state = DeltaAnalyzer(
        mapping,
        elide_local_comm=elide_local_comm,
        merge_same_pe_buffers=merge_same_pe_buffers,
    )
    current_value = state.evaluate(obj).value if state.feasible else float("inf")
    platform = mapping.platform
    names = mapping.graph.task_names()
    n_pes = platform.n_pes

    for _rnd in range(max_rounds):
        best: Optional[Tuple[str, ...]] = None
        best_value = current_value
        all_scores = state.evaluate_all_moves(objective=obj)
        for i, name in enumerate(names):
            origin = state.pe_of(name)
            scores = all_scores[i]
            for pe in range(n_pes):
                if pe == origin:
                    continue
                score = scores[pe]
                if score.feasible and score.value < best_value:
                    best, best_value = ("move", name, pe), score.value
        if try_swaps:
            pairs = [
                (names[a_idx], names[b_idx])
                for a_idx in range(len(names))
                for b_idx in range(a_idx + 1, len(names))
                if state.pe_of(names[a_idx]) != state.pe_of(names[b_idx])
            ]
            for pair, score in zip(pairs, state.evaluate_swaps(pairs, obj)):
                if score.feasible and score.value < best_value:
                    best, best_value = ("swap", *pair), score.value
        if best is None:
            break
        if best[0] == "move":
            state.apply_move(best[1], int(best[2]))
        else:
            state.apply_swap(best[1], best[2])
        state.resync()
        current_value = (
            state.evaluate(obj).value if state.feasible else float("inf")
        )
    return state.mapping()


def _tabu_search_eager(
    graph: StreamGraph,
    platform: CellPlatform,
    start: Optional[Mapping] = None,
    seed: int = 0,
    rounds: Optional[int] = None,
    tenure: Optional[int] = None,
    elide_local_comm: bool = False,
    merge_same_pe_buffers: bool = False,
    objective: str = "period",
) -> Mapping:
    """Reference ``tabu_search``: scans every candidate's exact score."""
    rng = random.Random(seed)
    obj = make_objective(objective, graph)
    start = _feasible_start(
        graph, platform, start, elide_local_comm, merge_same_pe_buffers
    )
    state = DeltaAnalyzer(
        start,
        elide_local_comm=elide_local_comm,
        merge_same_pe_buffers=merge_same_pe_buffers,
    )
    names = graph.task_names()
    n_pes = platform.n_pes
    if n_pes < 2 or len(names) < 1:
        return start
    n_rounds = rounds if rounds is not None else max(40, 2 * len(names))
    tabu_tenure = tenure if tenure is not None else max(4, len(names) // 4)

    tabu_until: Dict[str, int] = {}
    best_assignment = state.assignment()
    best_value = state.evaluate(obj).value
    applied = 0

    for rnd in range(n_rounds):
        scan = list(names)
        rng.shuffle(scan)
        best_move: Optional[Tuple[str, int]] = None
        best_move_value = float("inf")
        all_scores = state.evaluate_all_moves(scan, objective=obj)
        for i, name in enumerate(scan):
            origin = state.pe_of(name)
            is_tabu = tabu_until.get(name, 0) > rnd
            scores = all_scores[i]
            for pe in range(n_pes):
                if pe == origin:
                    continue
                score = scores[pe]
                if not score.feasible:
                    continue
                if is_tabu and score.value >= best_value:
                    continue  # tabu, and no aspiration
                if score.value < best_move_value:
                    best_move, best_move_value = (name, pe), score.value
        if best_move is None:
            break
        name, pe = best_move
        state.apply_move(name, pe)
        applied += 1
        if applied % _RESYNC_EVERY == 0:
            state.resync()
        tabu_until[name] = rnd + 1 + tabu_tenure
        value = state.evaluate(obj).value
        if value < best_value:
            best_value = value
            best_assignment = state.assignment()
    return Mapping(graph, platform, best_assignment)
