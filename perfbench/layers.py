"""Per-layer attribution for the traced run.

:class:`LayerTrace` wraps the public entry points of each layer at run
time, from outside the program, in :mod:`repro.obs.tracing` spans named
after the layer (``steady_state.score``, ``runtime.journal.append``,
...).  The spans go to a private :class:`~repro.obs.tracing.Tracer`
that is never installed as the process tracer, so the program's own
spans stay off and only the benchmark's boundaries are recorded.

A layer's self time is its span's duration minus the spans nested
inside it (:func:`self_times`).  A call into a layer that is already
open on the stack (``evaluate_move`` calling ``score_move``, ``clone``
inside ``ClonePool.clone``) records no second span, so ``calls`` counts
the outermost entries.
"""

from __future__ import annotations

import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs.tracing import Tracer

__all__ = ["LayerTrace", "self_times", "null_span"]

#: DeltaAnalyzer entry points by steady_state metric group.
STEADY_STATE_METHODS: Dict[str, Tuple[str, ...]] = {
    "score": (
        "evaluate_all_moves",
        "evaluate_moves",
        "evaluate_move",
        "evaluate_swap",
        "evaluate_swaps",
        "evaluate_changes",
        "evaluate_assignments",
        "best_move",
        "score_move",
        "score_moves",
        "score_swap",
        "score_swaps",
        "score_changes",
        "score_assignments",
        "score_move_matrix",
    ),
    "apply": ("apply_move", "apply_swap", "apply_changes", "try_apply_changes"),
    "resync": ("resync",),
    "clone": ("clone", "copy_from"),
    "snapshot": ("snapshot",),
}

STEADY_STATE_GROUPS = (
    "build", "score", "apply", "resync", "clone", "snapshot", "compile",
)
STRATEGIES = ("local_search", "tabu_search", "simulated_annealing", "genetic_algorithm")
EVENT_KINDS = ("arrival", "departure", "failure", "recovery", "perturb", "restore")


@contextmanager
def null_span(name: str) -> Iterator[None]:
    yield


class LayerTrace:
    """Installs the layer wrappers and turns their spans into metrics."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._open: set = set()
        self._patches: List[Tuple[object, str, object]] = []
        #: Byte counts and sizes recorded beside the spans.
        self.journal_bytes = 0
        self.checkpoint_sizes: List[int] = []
        self.compiled_tasks = 0
        self.registry = obs_metrics.MetricsRegistry()
        self._saved_registry: Optional[obs_metrics.MetricsRegistry] = None

    # ------------------------------------------------------------------ #
    # Spans

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """One span; a nested span of the same name records nothing."""
        if name in self._open:
            yield
            return
        self._open.add(name)
        try:
            with self.tracer.span(name):
                yield
        finally:
            self._open.discard(name)

    def _wrap(
        self,
        owner: object,
        attr: str,
        name: Callable[..., str],
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> None:
        original = getattr(owner, attr)
        trace = self

        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs)
            if span_name in trace._open:
                return original(*args, **kwargs)
            token = before(*args) if before is not None else None
            trace._open.add(span_name)
            try:
                with trace.tracer.span(span_name):
                    result = original(*args, **kwargs)
            finally:
                trace._open.discard(span_name)
            if after is not None:
                after(token, result, *args)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------ #
    # Installation

    def install(self) -> None:
        """Wrap every layer entry point and enable a private registry."""
        from repro.graph.workload import Workload
        from repro.runtime.checkpoint import DurableScheduler
        from repro.runtime.journal import EventJournal
        from repro.runtime.scheduler import OnlineScheduler
        from repro.steady_state import delta

        def fixed(label: str) -> Callable[..., str]:
            return lambda *args, **kwargs: label

        self._wrap(delta.DeltaAnalyzer, "__init__", fixed("steady_state.build"))
        for group, methods in STEADY_STATE_METHODS.items():
            for method in methods:
                self._wrap(
                    delta.DeltaAnalyzer, method, fixed("steady_state." + group)
                )
        self._wrap(delta.ClonePool, "clone", fixed("steady_state.clone"))
        self._wrap(delta, "compile_graph", fixed("steady_state.compile"))

        def compiled_before(workload):
            return workload._compiled

        def compiled_after(previous, composite, workload):
            if composite is not previous:
                self.compiled_tasks += composite.n_tasks

        self._wrap(
            Workload,
            "compile",
            fixed("graph.compile"),
            after=compiled_after,
            before=compiled_before,
        )
        self._wrap(
            OnlineScheduler,
            "process",
            lambda sched, event: "runtime.scheduler." + event.event_type,
        )

        def journal_size(journal, event=None):
            return os.fstat(journal._fh.fileno()).st_size

        def journal_after(size0, _result, journal, event):
            self.journal_bytes += journal_size(journal) - size0

        self._wrap(
            EventJournal,
            "append",
            fixed("runtime.journal.append"),
            after=journal_after,
            before=journal_size,
        )

        def checkpoint_after(_token, path, durable):
            if path is not None:
                self.checkpoint_sizes.append(Path(path).stat().st_size)

        self._wrap(
            DurableScheduler,
            "checkpoint",
            fixed("runtime.checkpoint.write"),
            after=checkpoint_after,
        )
        self._wrap(DurableScheduler, "process", fixed("runtime.engine"))
        self._saved_registry = obs_metrics.REGISTRY
        obs_metrics.enable(self.registry)

    def uninstall(self) -> None:
        """Restore every wrapped attribute and the previous registry."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._saved_registry is not None:
            obs_metrics.enable(self._saved_registry)
        else:
            obs_metrics.disable()
        self._saved_registry = None

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Results

    def events(self, name: Optional[str] = None) -> List[Dict]:
        if name is None:
            return self.tracer.events
        return [e for e in self.tracer.events if e["name"] == name]

    def layer_metrics(self, root_prefix: str = "bench.") -> Dict[str, float]:
        """The per-layer metrics every traced run reports.

        Layers the workload never entered read zero.  Root spans (names
        starting with ``root_prefix``) bracket the traced work; their
        self time is the unattributed share.
        """
        selfs, calls = self_times(self.tracer.events)
        out: Dict[str, float] = {}
        for group in STEADY_STATE_GROUPS:
            key = "steady_state." + group
            out[key + ".calls"] = calls.get(key, 0)
            out[key + ".s"] = selfs.get(key, 0.0)
        counters = self.registry.counters
        candidates = counters.get("moves_scored", 0) + counters.get(
            "swaps_scored", 0
        )
        out["steady_state.score.candidates"] = candidates
        out["steady_state.score.us_per_candidate"] = (
            1e6 * selfs.get("steady_state.score", 0.0) / candidates
            if candidates
            else 0.0
        )
        for strategy in STRATEGIES:
            out[f"heuristics.{strategy}.s"] = selfs.get(
                "heuristics." + strategy, 0.0
            )
        out["graph.compile.calls"] = calls.get("graph.compile", 0)
        out["graph.compile.s"] = selfs.get("graph.compile", 0.0)
        out["graph.compile.tasks"] = self.compiled_tasks
        for kind in EVENT_KINDS:
            key = "runtime.scheduler." + kind
            out[key + ".calls"] = calls.get(key, 0)
            out[key + ".s"] = selfs.get(key, 0.0)
        out["runtime.journal.append.calls"] = calls.get("runtime.journal.append", 0)
        out["runtime.journal.append.s"] = selfs.get("runtime.journal.append", 0.0)
        out["runtime.journal.append.bytes"] = self.journal_bytes
        out["runtime.checkpoint.write.calls"] = calls.get(
            "runtime.checkpoint.write", 0
        )
        out["runtime.checkpoint.write.s"] = selfs.get(
            "runtime.checkpoint.write", 0.0
        )
        out["runtime.checkpoint.write.bytes"] = sum(self.checkpoint_sizes)
        root_total = sum(
            e["dur"] for e in self.tracer.events if e["name"].startswith(root_prefix)
        )
        root_self = sum(
            value for key, value in selfs.items() if key.startswith(root_prefix)
        )
        out["trace.unattributed_frac"] = (
            root_self / (root_total * 1e-6) if root_total else 0.0
        )
        return out


def self_times(events: List[Dict]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and span counts by span name.

    Spans are complete events on one thread, so nesting is interval
    containment: sorted by start (longest first on ties), each span's
    parent is the innermost open span that has not ended before it
    starts.  A span's self time is its duration minus its children's.
    """
    order = sorted(
        range(len(events)), key=lambda i: (events[i]["ts"], -events[i]["dur"])
    )
    child: Dict[int, float] = defaultdict(float)
    stack: List[Tuple[float, int]] = []
    for i in order:
        event = events[i]
        while stack and stack[-1][0] <= event["ts"]:
            stack.pop()
        if stack:
            child[stack[-1][1]] += event["dur"]
        stack.append((event["ts"] + event["dur"], i))
    selfs: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for i, event in enumerate(events):
        selfs[event["name"]] += max(event["dur"] - child[i], 0.0) * 1e-6
        calls[event["name"]] += 1
    return dict(selfs), dict(calls)
