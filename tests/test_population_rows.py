"""Population passes on full PE rows against the change-set form.

``score_assignments`` / ``evaluate_assignments`` take a population
either as change sets (task name → PE dicts) or as full PE rows in
compiled task order (``DeltaAnalyzer.pe_row()``'s), as a sequence or a
(K, n) integer array.  Both forms share one core, so a row must get
exactly the verdict of the dict that names every task's PE:

* on the ``python`` and ``auto`` engines, in all four buffer models,
  for K = 1 (the per-candidate path) and K >= 2 (the dense pass on the
  fast engine);
* for the ``period``, ``weighted`` and ``max_stretch`` objectives on a
  two-application composite with non-integer costs.

Malformed rows raise the same :class:`MappingError` as a bad change set.
"""

import contextlib
import random

import numpy as np
import pytest

from test_delta import integer_cost_graph

from repro.errors import MappingError
from repro.generator import assign_costs, random_topology
from repro.graph import Workload
from repro.platform import CellPlatform
from repro.steady_state import DeltaAnalyzer, Mapping, make_objective
from repro.steady_state.backend import BACKEND_ENV_VAR

MODES = (
    {},
    {"elide_local_comm": True},
    {"merge_same_pe_buffers": True},
    {"elide_local_comm": True, "merge_same_pe_buffers": True},
)
MODE_IDS = ("default", "elide", "merge", "elide+merge")
BACKENDS = ("python", "auto")
PLATFORM = CellPlatform.qs22()


@contextlib.contextmanager
def kernel(label):
    """Run the body with ``REPRO_KERNEL_BACKEND`` set to ``label``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(BACKEND_ENV_VAR, label)
        yield


def composite(seed: int):
    """Two float-cost applications sharing the platform."""
    w = Workload(f"rows{seed}")
    for i, n in enumerate((5, 7)):
        topo = random_topology(n, fat=0.5, density=0.4, jump=2, seed=seed + i)
        costed = assign_costs(topo, ccr=2.305, seed=seed + i)
        w.add_app(f"app{i}", costed, weight=1.0 + i)
    return w.compile()


def population(graph, k, seed):
    """A random start state plus ``k`` random full rows and their dicts."""
    rng = random.Random(seed)
    names = graph.task_names()
    n_pes = PLATFORM.n_pes
    start = Mapping(graph, PLATFORM, {t: rng.randrange(n_pes) for t in names})
    rows = [[rng.randrange(n_pes) for _ in names] for _ in range(k)]
    # Keep some tasks where the start puts them (the change set drops them).
    rows[0][0] = start.to_dict()[names[0]]
    return start, rows, [dict(zip(names, row)) for row in rows]


def assert_same_verdicts(state, rows, dicts, objective=None):
    expected = state.score_assignments(dicts)
    expected_eval = state.evaluate_assignments(dicts, objective)
    for form in (rows, [tuple(r) for r in rows], np.asarray(rows)):
        assert state.score_assignments(form) == expected
        assert state.evaluate_assignments(form, objective) == expected_eval


@pytest.mark.parametrize("k", (1, 6))
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_rows_match_dicts(backend, mode, k):
    graph = integer_cost_graph(3, n_min=10, n_max=14)
    start, rows, dicts = population(graph, k, seed=k)
    with kernel(backend):
        state = DeltaAnalyzer(start, **mode)
        assert_same_verdicts(state, rows, dicts)
        # Rows are absolute: scoring from a moved state changes nothing.
        moved = state.clone()
        moved.apply_move(graph.task_names()[1], 0)
        assert moved.score_assignments(rows) == state.score_assignments(rows)


@pytest.mark.parametrize("objective", ("period", "weighted", "max_stretch"))
@pytest.mark.parametrize("k", (1, 5))
@pytest.mark.parametrize("mode", (MODES[0], MODES[3]), ids=("default", "md"))
@pytest.mark.parametrize("backend", BACKENDS)
def test_rows_match_dicts_on_composite(backend, mode, k, objective):
    graph = composite(7)
    obj = make_objective(objective, graph)
    start, rows, dicts = population(graph, k, seed=11 + k)
    with kernel(backend):
        assert_same_verdicts(DeltaAnalyzer(start, **mode), rows, dicts, obj)


@pytest.mark.parametrize("backend", BACKENDS)
def test_pe_row_is_assignment_in_task_order(backend):
    for graph in (integer_cost_graph(5, n_min=8, n_max=12), composite(3)):
        start, _, _ = population(graph, 1, seed=2)
        with kernel(backend):
            state = DeltaAnalyzer(start)
            state.apply_move(graph.task_names()[0], 3)
            row, assignment = state.pe_row(), state.assignment()
        names = graph.task_names()
        assert len(row) == len(names)
        for i, name in enumerate(names):
            assert row[i] == assignment[name]


@pytest.mark.parametrize("backend", BACKENDS)
def test_malformed_rows_raise(backend):
    graph = integer_cost_graph(1, n_min=6, n_max=9)
    n = len(graph.task_names())
    with kernel(backend):
        state = DeltaAnalyzer(Mapping.all_on_ppe(graph, PLATFORM))
    good = [0] * n
    bad_rows = {
        "short": [good, [0] * (n - 1)],
        "long": np.zeros((2, n + 1), dtype=np.int64),
        "flat": np.zeros(n, dtype=np.int64),
        "negative": [good, [0] * (n - 1) + [-1]],
        "too large": [[PLATFORM.n_pes] + [0] * (n - 1)],
        "float": [good, [0.0] * n],
        "string": [["0"] * n],
    }
    for rows in bad_rows.values():
        for score in (state.score_assignments, state.evaluate_assignments):
            with pytest.raises(MappingError):
                score(rows)
    with pytest.raises(MappingError, match="invalid PE"):
        state.score_assignments([good, [0] * (n - 1) + [99]])
    assert state.score_assignments([]) == []
    assert state.score_assignments(np.zeros((0, n), dtype=np.int64)) == []
