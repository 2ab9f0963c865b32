"""Online-runtime benchmarks: admission + remapping must stay delta-fast.

The :class:`~repro.runtime.scheduler.OnlineScheduler` promises that
per-candidate work (placing an arriving task, scoring a remapping move)
is delta-scored in O(deg) — never a full ``analyze()`` per candidate.
Substituting the full-``analyze()`` oracle
(:class:`repro.steady_state.reference._ReferenceState`) for the delta
engine and replaying the *same* seeded scenario through both isolates
exactly that contract:

* ``test_online_delta_speedup_guard`` replays a 20-event scenario
  (arrivals, departures, one SPE failure, non-zero migration budget)
  and **fails** if the delta path is less than 5× faster than the
  reference — the acceptance guard of the runtime PR (the real ratio is
  far higher; 5× leaves CI noise headroom).  It also asserts the two
  paths produce the identical report, so the speed-up never comes from
  diverging decisions.
* ``test_online_delta_speedup_guard_faulty`` holds the same ≥5× bar on
  a failure-heavy injected timeline (correlated bursts + a perturbation
  window + brownout + retries), so the evacuation/repair/shed paths —
  not just admission — stay inside the delta-scored contract.
* ``test_composite_blocks_speedup_guard`` holds the O(app) compile
  path: after one departure from a 10-app workload, re-compiling the
  composite from its cached per-app blocks (``Workload.compile`` +
  ``compile_graph``) must be ≥3× faster than building the same
  composite on a fresh workload and compiling it from scratch
  (``CompiledGraph``), and field-identical to it.
* ``test_online_admission_throughput`` replays the scenario with the
  metrics registry enabled and reports **admissions/sec** (decision
  count over wall time, plus the mean admission latency from the
  registry's histogram) — and asserts instrumentation is passive: the
  metrics-on report equals the metrics-off report.

Run explicitly (benchmarks are not collected by the default test run)::

    PYTHONPATH=src python -m pytest benchmarks/bench_online.py -q
"""

import os
import time

import pytest

from repro.graph import Workload
from repro.obs import metrics
from repro.platform import CellPlatform
from repro.runtime import (
    DEFAULT_BUILDERS,
    FaultInjector,
    OnlineScheduler,
    ScenarioGenerator,
)
from repro.runtime import scheduler as scheduler_mod
from repro.steady_state import compile_graph
from repro.steady_state.compiled import CompiledGraph
from repro.steady_state.reference import _ReferenceState


@pytest.fixture(scope="module")
def platform():
    return CellPlatform.qs22()


def make_events(platform, n_events=20):
    return ScenarioGenerator(platform, seed=5, load=2.5).generate(n_events)


def make_faulty_events(platform, n_events=20):
    """A failure-heavy timeline: correlated bursts over a loaded scenario."""
    base = ScenarioGenerator(
        platform, seed=5, load=3.0, n_failures=0
    ).generate(n_events)
    injector = FaultInjector(
        platform, seed=9, correlation=0.6, mean_downtime=15.0
    )
    return injector.inject(base, n_bursts=3, n_perturbations=1)


def play(platform, events, delta, **knobs):
    """Replay ``events`` on the delta engine, or with ``delta=False`` on
    the full-analyze() oracle substituted for it."""
    with pytest.MonkeyPatch.context() as mp:
        if not delta:
            mp.setattr(scheduler_mod, "DeltaAnalyzer", _ReferenceState)
        scheduler = OnlineScheduler(platform, migration_budget=3, **knobs)
        return scheduler.run(events)


@pytest.mark.benchmark(group="online")
def test_online_runtime_delta(benchmark, platform):
    """Full 20-event scenario through the delta-evaluated scheduler."""
    events = make_events(platform)
    report = benchmark(play, platform, events, True)
    assert report.n_events == 20


@pytest.mark.benchmark(group="online")
def test_online_scenario_generation(benchmark, platform):
    """Scenario generation alone (to attribute the runtime's cost)."""
    events = benchmark(make_events, platform)
    assert len(events) == 20


def test_online_delta_speedup_guard(platform):
    """Admission + remapping through the delta engine must stay ≥5×
    faster than the full-analyze() reference path — the acceptance
    guard of the online-runtime PR."""
    events = make_events(platform)

    def time_best_of(fn, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    delta_time = time_best_of(lambda: play(platform, events, True))
    full_time = time_best_of(lambda: play(platform, events, False))
    # Same decisions, so the ratio is pure evaluation cost.
    assert play(platform, events, True) == play(platform, events, False)
    speedup = full_time / delta_time
    assert speedup >= 5.0, (
        f"online scheduling via the delta engine is only {speedup:.1f}x "
        f"faster than the full-analyze reference ({delta_time * 1e3:.1f} ms "
        f"vs {full_time * 1e3:.1f} ms for a 20-event scenario); the O(deg) "
        "per-candidate contract of the runtime is broken"
    )


def test_online_delta_speedup_guard_faulty(platform):
    """The ≥5× delta-vs-reference bar must also hold on a failure-heavy
    timeline, where the work is dominated by evacuation, budgeted repair
    and degradation handling rather than admission."""
    events = make_faulty_events(platform)
    knobs = dict(retry_limit=1, brownout_threshold=0.4)
    assert sum(e.event_type == "failure" for e in events) >= 3

    def time_best_of(fn, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    delta_time = time_best_of(lambda: play(platform, events, True, **knobs))
    full_time = time_best_of(lambda: play(platform, events, False, **knobs))
    assert play(platform, events, True, **knobs) == play(
        platform, events, False, **knobs
    )
    speedup = full_time / delta_time
    assert speedup >= 5.0, (
        f"evacuation/repair via the delta engine is only {speedup:.1f}x "
        f"faster than the full-analyze reference ({delta_time * 1e3:.1f} ms "
        f"vs {full_time * 1e3:.1f} ms for a failure-heavy timeline); the "
        "O(deg) per-candidate contract of the degradation paths is broken"
    )


def test_composite_blocks_speedup_guard():
    """One departure from a ~10-app composite: the block-assembled
    re-compile must match a from-scratch compilation field for field
    and, unless REPRO_BENCH_NO_TIMING_ASSERT is set, be ≥3× faster
    (best of 3 each)."""
    builders = list(DEFAULT_BUILDERS.values())

    def resident():
        w = Workload("resident")
        for i in range(10):
            w.add_app(f"app{i}", builders[i % len(builders)]())
        compile_graph(w.compile())  # every block warm
        return w

    t_blocks = t_scratch = float("inf")
    for _ in range(3):
        w = resident()
        start = time.perf_counter()
        w.remove_app("app3")
        assembled = compile_graph(w.compile())
        t_blocks = min(t_blocks, time.perf_counter() - start)

        start = time.perf_counter()
        fresh = Workload("resident")
        for app in w:
            fresh.add_app(app.name, app.graph)
        scratch = CompiledGraph(fresh.compile())
        t_scratch = min(t_scratch, time.perf_counter() - start)

        for slot in CompiledGraph.__slots__:
            if slot != "_np":
                assert getattr(assembled, slot) == getattr(scratch, slot), slot
    speedup = t_scratch / t_blocks
    print(
        f"\ncomposite re-compile after a departure: blocks "
        f"{t_blocks * 1e3:.3f} ms vs from scratch {t_scratch * 1e3:.3f} ms "
        f"({speedup:.1f}x, {assembled.n} tasks)"
    )
    if os.environ.get("REPRO_BENCH_NO_TIMING_ASSERT"):
        return
    assert speedup >= 3.0, (
        f"block-assembled composite compile is only {speedup:.1f}x faster "
        f"than a from-scratch build ({t_blocks * 1e3:.3f} ms vs "
        f"{t_scratch * 1e3:.3f} ms); the O(app) online compile path regressed"
    )


def test_online_admission_throughput(platform):
    """Report admissions/sec through the instrumentation layer, and
    hold its passivity contract: the metrics-on replay must produce the
    identical report as the metrics-off replay."""
    events = make_events(platform)
    baseline = play(platform, events, True)
    registry = metrics.enable(metrics.MetricsRegistry())
    try:
        start = time.perf_counter()
        report = play(platform, events, True)
        elapsed = time.perf_counter() - start
    finally:
        metrics.disable()
    assert report == baseline, "enabling metrics changed the run"
    snap = registry.snapshot()
    decided = snap["counters"].get("admissions.accepted", 0) + snap[
        "counters"
    ].get("admissions.rejected", 0)
    assert decided == sum(
        1 for r in report.records if r.accepted is not None
    ), "admission counters disagree with the report's decision records"
    assert decided > 0
    hist = snap["histograms"]["admission_latency"]
    assert hist["count"] == decided
    print(
        f"\nonline admission throughput: {decided / elapsed:,.0f} "
        f"admissions/sec ({decided} decisions in {elapsed * 1e3:.1f} ms; "
        f"mean admission latency {1e3 * hist['sum'] / hist['count']:.2f} ms)"
    )
