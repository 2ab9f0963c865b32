"""Kernel selection and the kernel-independence contract.

Covers the selection layer itself (``resolve_backend`` precedence:
explicit argument > ``REPRO_KERNEL_BACKEND`` > auto-detection, and the
errors for the retired ``numpy``/``cython`` selections), the way
:class:`DeltaAnalyzer` and :class:`OnlineScheduler` pin the resolved
kernel, the batch-API validation errors, and — nightly, gated on
``REPRO_XCHECK_LARGE=1`` — a scaled-up scalar-vs-``auto`` cross-check
on large random graphs.  The per-entry bit-exactness property suite
lives in ``tests/test_compiled.py``.
"""

import os
import random

import pytest

from test_delta import PLATFORMS, integer_cost_graph
from test_md_population import MD_MODES

from repro.errors import KernelBackendError, MappingError
from repro.heuristics import critical_path_mapping, local_search, tabu_search
from repro.platform import CellPlatform
from repro.runtime import OnlineScheduler, ScenarioGenerator
from repro.runtime import scheduler as scheduler_mod
from repro.runtime.events import AppArrival
from repro.steady_state import (
    BACKEND_ENV_VAR,
    NO_EXTENSION_ENV_VAR,
    DeltaAnalyzer,
    KERNEL_BACKENDS,
    Mapping,
    available_backends,
    cython_available,
    resolve_backend,
)
from repro.steady_state import backend as backend_mod
from repro.steady_state.reference import _ReferenceState

needs_cython = pytest.mark.skipif(
    not cython_available(), reason="compiled extension not built"
)


def select(label):
    """The selection that resolves to ``label`` in this process."""
    return "python" if label == "python" else "auto"


class TestResolveBackend:
    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        assert resolve_backend("python") == "python"
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert resolve_backend("auto") == available_backends()[1]

    def test_env_var_used_when_no_argument(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert resolve_backend() == "python"

    def test_auto_detects(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        expected = "cython" if cython_available() else "numpy"
        assert resolve_backend() == expected
        assert resolve_backend("auto") == expected
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        assert resolve_backend() == expected

    def test_auto_precedence_pinned(self, monkeypatch):
        """auto resolves to the extension when it imports, else to
        numpy's dense kernels — never to the scalar kernel."""
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.delenv(NO_EXTENSION_ENV_VAR, raising=False)
        monkeypatch.setattr(backend_mod, "_CYTHON_OK", True)
        assert resolve_backend("auto") == "cython"
        monkeypatch.setattr(backend_mod, "_CYTHON_OK", False)
        assert resolve_backend("auto") == "numpy"

    def test_selection_is_trimmed_and_case_insensitive(self):
        assert resolve_backend("  PYTHON ") == "python"
        assert resolve_backend(" Auto") == available_backends()[1]

    def test_unknown_name_raises_with_source(self, monkeypatch):
        with pytest.raises(KernelBackendError, match="backend argument"):
            resolve_backend("fortran")
        monkeypatch.setenv(BACKEND_ENV_VAR, "fortran")
        with pytest.raises(KernelBackendError, match=BACKEND_ENV_VAR):
            resolve_backend()

    @pytest.mark.parametrize("label", ["numpy", "cython"])
    def test_label_request_raises_naming_the_fix(self, monkeypatch, label):
        """The resolved labels are not selections: asking for one, by
        argument or env var, names ``auto`` and the extension switch."""
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        for request in (label, label.upper()):
            with pytest.raises(KernelBackendError) as info:
                resolve_backend(request)
            message = str(info.value)
            assert "'auto'" in message
            assert NO_EXTENSION_ENV_VAR in message
            assert "backend argument" in message
        monkeypatch.setenv(BACKEND_ENV_VAR, label)
        with pytest.raises(KernelBackendError, match=BACKEND_ENV_VAR):
            resolve_backend()
        with pytest.raises(KernelBackendError, match=NO_EXTENSION_ENV_VAR):
            DeltaAnalyzer(
                Mapping.all_on_ppe(integer_cost_graph(1), CellPlatform.qs22())
            )

    @pytest.mark.parametrize("request_", [3, 1.5, ("python",), True])
    def test_non_string_request_raises(self, request_):
        with pytest.raises(KernelBackendError, match="must be a string"):
            resolve_backend(request_)
        mapping = Mapping.all_on_ppe(integer_cost_graph(1), CellPlatform.qs22())
        with pytest.raises(KernelBackendError, match="backend argument"):
            DeltaAnalyzer(mapping, backend=request_)

    def test_cython_request_without_extension_raises(self, monkeypatch):
        """A cython request in a pure-python install fails with an error
        that names how to build the extension, and ``auto`` degrades to
        numpy's dense kernels."""
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.setattr(backend_mod, "_CYTHON_OK", False)
        assert available_backends() == ("python", "numpy")
        with pytest.raises(KernelBackendError, match="pip install"):
            resolve_backend("cython")
        with pytest.raises(KernelBackendError, match="build_ext"):
            resolve_backend("cython")
        assert resolve_backend("auto") == "numpy"

    def test_no_extension_env_disables_cython(self, monkeypatch):
        """REPRO_NO_EXTENSION makes a built extension invisible (the CI
        no-extension leg): auto resolves to numpy."""
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.setenv(NO_EXTENSION_ENV_VAR, "1")
        assert not cython_available()
        assert available_backends() == ("python", "numpy")
        assert resolve_backend() == "numpy"

    def test_available_backends_reflect_build_state(self, monkeypatch):
        monkeypatch.delenv(NO_EXTENSION_ENV_VAR, raising=False)
        monkeypatch.setattr(backend_mod, "_CYTHON_OK", True)
        assert available_backends() == ("python", "cython")
        monkeypatch.setattr(backend_mod, "_CYTHON_OK", False)
        assert available_backends() == ("python", "numpy")
        # and the real build state is what cython_available() reports
        monkeypatch.undo()
        assert ("cython" in available_backends()) == cython_available()

    def test_available_backends_ignore_the_env_selection(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert available_backends() == ("python", resolve_backend("auto"))

    def test_registry_names(self):
        assert KERNEL_BACKENDS == ("python", "auto")
        assert available_backends()[0] == "python"


class TestAnalyzerBackend:
    def _state(self, **kwargs):
        g = integer_cost_graph(1, n_min=6, n_max=9)
        mapping = Mapping.all_on_ppe(g, CellPlatform.qs22())
        return DeltaAnalyzer(mapping, **kwargs)

    @staticmethod
    def _run_batches(state):
        """Every batch API that can reach the dense kernel."""
        names = state.graph.task_names()
        pairs = list(zip(names[:3], names[3:6]))
        changes = [{}, {names[0]: 1}, {names[1]: 2, names[2]: 0}]
        state.score_move_matrix()
        state.evaluate_all_moves()
        state.score_swaps(pairs)
        state.evaluate_swaps(pairs)
        state.score_assignments(changes)
        state.evaluate_assignments(changes)
        state.best_move()
        state.best_candidate(swaps=True)

    def test_python_backend_has_no_kernel(self):
        """The python engine never builds a dense kernel."""
        for mode in ({},) + MD_MODES:
            state = self._state(backend="python", **mode)
            assert state.backend == "python"
            self._run_batches(state)
            assert state._dense() is None
            assert state._dense_kernel is None

    def test_numpy_backend_builds_kernel(self, monkeypatch):
        """auto without the extension: dense kernels, no native paths."""
        monkeypatch.setenv(NO_EXTENSION_ENV_VAR, "1")
        state = self._state(backend="auto")
        assert state.backend == "numpy"
        assert state._dense_kernel is None  # built on first use
        state.score_move_matrix()
        assert state._dense_kernel is not None
        assert state._ck is None

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert self._state().backend == "python"
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        assert self._state().backend == available_backends()[1]

    @needs_cython
    def test_cython_backend_builds_ckernel(self):
        state = self._state(backend="auto")
        assert state.backend == "cython"
        assert state._ck is not None
        # the dense numpy batch kernels stay active alongside
        assert state._dense() is not None

    def test_non_cython_backends_have_no_ckernel(self, monkeypatch):
        assert self._state(backend="python")._ck is None
        monkeypatch.setenv(NO_EXTENSION_ENV_VAR, "1")
        assert self._state(backend="auto")._ck is None

    @pytest.mark.parametrize(
        "mode",
        [
            {"elide_local_comm": True},
            {"merge_same_pe_buffers": True},
            {"elide_local_comm": True, "merge_same_pe_buffers": True},
        ],
        ids=["elide", "merge", "elide+merge"],
    )
    @pytest.mark.parametrize("label", available_backends())
    def test_mapping_dependent_modes_build_no_dense_kernel(self, label, mode):
        """The dense kernel's move and swap verdicts cover the default
        buffer model only, so the mapping-dependent modes' move and swap
        batch APIs never build it; clones start without one."""
        state = self._state(backend=select(label), **mode)
        assert state.backend == label
        names = state.graph.task_names()
        pairs = list(zip(names[:3], names[3:6]))
        state.score_move_matrix()
        state.evaluate_all_moves()
        state.score_swaps(pairs)
        state.evaluate_swaps(pairs)
        assert state._dense_kernel is None
        assert state.clone()._dense_kernel is None
        default = self._state(backend=select(label))
        default.score_move_matrix()
        assert (default._dense_kernel is None) == (label == "python")
        twin = default.clone()
        assert twin._dense_kernel is None
        twin.score_move_matrix()
        assert (twin._dense_kernel is None) == (label == "python")

    def test_clone_preserves_backend(self):
        for label in available_backends():
            state = self._state(backend=select(label))
            assert state.backend == label
            assert state.clone().backend == label

    def test_batch_validation_errors(self):
        state = self._state(backend=None)
        names = state.graph.task_names()
        with pytest.raises(MappingError, match="not mapped"):
            state.score_assignments([{}, {"missing-task": 0}])
        with pytest.raises(MappingError, match="invalid PE"):
            state.score_assignments([{}, {names[0]: 99}])
        with pytest.raises(MappingError):
            state.score_move_matrix(pes=[0, 99])
        with pytest.raises(MappingError):
            state.evaluate_swaps([(names[0], "missing-task")] * 2)


class TestBackendThreading:
    """The strategies follow ``REPRO_KERNEL_BACKEND``; the online runtime
    resolves it once and runs every analyzer on that kernel."""

    def test_local_search_backend_independent(self, monkeypatch):
        g = integer_cost_graph(6, n_min=12, n_max=16)
        start = critical_path_mapping(g, CellPlatform.qs22())
        results = []
        for selection in KERNEL_BACKENDS:
            monkeypatch.setenv(BACKEND_ENV_VAR, selection)
            results.append(local_search(start, max_rounds=5).to_dict())
        assert results[0] == results[1]

    def test_tabu_search_backend_independent(self, monkeypatch):
        g = integer_cost_graph(6, n_min=12, n_max=16)
        results = []
        for selection in KERNEL_BACKENDS:
            monkeypatch.setenv(BACKEND_ENV_VAR, selection)
            mapping = tabu_search(g, CellPlatform.qs22(), seed=3, rounds=10)
            results.append(mapping.to_dict())
        assert results[0] == results[1]

    def test_online_scheduler_forwards_backend(self, monkeypatch):
        for label in available_backends():
            monkeypatch.setenv(BACKEND_ENV_VAR, select(label))
            sched = OnlineScheduler(CellPlatform.qs22())
            sched.run([AppArrival(0.0, "app", integer_cost_graph(2, n_min=6, n_max=9))])
            assert sched.state.backend == label
            assert sched.kernel_backend == label

    def test_scheduler_resolves_the_kernel_once(self, monkeypatch):
        """Regression: the report names the kernel the decisions ran on,
        even when the env var changes between ``run()`` and ``report()``,
        and no analyzer built mid-run re-reads the env var."""
        platform = CellPlatform.qs22()
        events = ScenarioGenerator(platform, seed=5, load=2.5).generate(16)
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        sched = OnlineScheduler(platform, migration_budget=2)
        built = []
        original = scheduler_mod.DeltaAnalyzer

        def tracking(*args, **kwargs):
            state = original(*args, **kwargs)
            built.append(state.backend)
            return state

        monkeypatch.setattr(scheduler_mod, "DeltaAnalyzer", tracking)
        half = len(events) // 2
        sched.run(events[:half])
        n_before = len(built)
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        for event in events[half:]:
            sched.process(event)
        assert 0 < n_before < len(built)
        assert set(built) == {"python"}
        monkeypatch.delenv(BACKEND_ENV_VAR)
        assert sched.report().kernel_backend == "python"
        assert sched.kernel_backend == "python"

    def test_reference_state_ignores_backend(self, monkeypatch):
        """The full-analyze() oracle stands in for DeltaAnalyzer in the
        scheduler: it takes the same arguments and builds no kernel."""
        monkeypatch.setattr(scheduler_mod, "DeltaAnalyzer", _ReferenceState)
        sched = OnlineScheduler(CellPlatform.qs22())
        sched.run([AppArrival(0.0, "app", integer_cost_graph(2, n_min=6, n_max=9))])
        assert isinstance(sched.state, _ReferenceState)
        assert not hasattr(sched.state, "_dense_kernel")


@pytest.mark.skipif(
    not os.environ.get("REPRO_XCHECK_LARGE"),
    reason="nightly scale: set REPRO_XCHECK_LARGE=1",
)
def test_large_random_graph_cross_check():
    """Nightly: the scalar kernel and ``auto`` agree verdict for verdict
    on graphs an order of magnitude past the tier-1 sizes, interleaved
    with applies (exercises the cached-state invalidation paths at
    scale) — and so do the mapping-dependent population batches, on
    ``auto`` and on the dense numpy pass."""
    for seed in range(4):
        g = integer_cost_graph(seed, n_min=120, n_max=180)
        platform = PLATFORMS[seed % len(PLATFORMS)]
        rng = random.Random(1000 + seed)
        names = g.task_names()
        n_pes = platform.n_pes
        assignment = {n: rng.randrange(n_pes) for n in names}
        mapping = Mapping(g, platform, assignment)
        scalar = DeltaAnalyzer(mapping, backend="python")
        states = [DeltaAnalyzer(mapping, backend="auto")]
        for _ in range(3):
            pairs = [tuple(rng.sample(names, 2)) for _ in range(64)]
            candidates = [
                {n: rng.randrange(n_pes) for n in rng.sample(names, 10)}
                for _ in range(32)
            ]
            ref_moves = {n: scalar.score_moves(n) for n in names}
            ref_best = scalar.best_move()
            ref_swaps = [scalar.score_swap(a, b) for a, b in pairs]
            ref_changes = [scalar.score_changes(ch) for ch in candidates]
            for other in states:
                worst, nviol = other.score_move_matrix()
                for i, name in enumerate(names):
                    for pe, score in enumerate(ref_moves[name]):
                        assert float(worst[i, pe]) == score.period
                        assert int(nviol[i, pe]) == score.n_violations
                assert other.best_move() == ref_best
                assert other.score_swaps(pairs) == ref_swaps
                assert other.score_assignments(candidates) == ref_changes
                assert [
                    (s.period, s.n_violations)
                    for n in names[:16]
                    for s in other.score_moves(n)
                ] == [
                    (s.period, s.n_violations)
                    for n in names[:16]
                    for s in ref_moves[n]
                ]
            for _ in range(5):
                name = rng.choice(names)
                pe = rng.randrange(n_pes)
                scalar.apply_move(name, pe)
                for other in states:
                    other.apply_move(name, pe)
            for other in states:
                assert other.snapshot() == scalar.snapshot()
        batch = candidates + [
            {n: rng.randrange(n_pes) for n in names} for _ in range(16)
        ]
        for mode in MD_MODES:
            md_scalar = DeltaAnalyzer(mapping, backend="python", **mode)
            with pytest.MonkeyPatch.context() as mp:
                md_states = [DeltaAnalyzer(mapping, backend="auto", **mode)]
                mp.setenv(NO_EXTENSION_ENV_VAR, "1")
                md_states.append(DeltaAnalyzer(mapping, backend="auto", **mode))
            expected = [md_scalar.score_changes(ch) for ch in batch]
            expected_eval = [md_scalar.evaluate_changes(ch) for ch in batch]
            for other in md_states:
                assert other.score_assignments(batch) == expected
                assert other.evaluate_assignments(batch) == expected_eval
