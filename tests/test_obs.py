"""Observability layer: registry/tracing/logging units and the passivity
contract — instrumentation on must be byte-identical to instrumentation
off for every strategy, every kernel backend, and the online runtime.
"""

import json
import logging

import pytest

from repro.experiments import online
from repro.experiments.parallel import run_sweep, run_sweep_telemetry
from repro.generator import assign_costs, random_topology
from repro.heuristics import (
    genetic_algorithm,
    greedy_cpu,
    local_search,
    simulated_annealing,
    tabu_search,
)
from repro.obs import logging as obs_logging
from repro.obs import metrics, tracing
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.platform import CellPlatform
from repro.runtime import (
    OnlineScheduler,
    RuntimeReport,
    ScenarioGenerator,
)
from repro.runtime.report import EventRecord
from repro.steady_state import BACKEND_ENV_VAR, available_backends


@pytest.fixture(autouse=True)
def _clean_globals():
    """Every test starts and ends with instrumentation fully off."""
    metrics.disable()
    tracing.stop()
    yield
    metrics.disable()
    tracing.stop()


@pytest.fixture
def graph():
    return assign_costs(random_topology(14, fat=0.5, seed=8), ccr=1.0, seed=8)


@pytest.fixture
def qs22():
    return CellPlatform.qs22()


# ---------------------------------------------------------------------- #
# Histogram / registry units


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram(buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0, 0.25):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]  # two ≤1, one ≤10, one overflow
        assert hist.count == 4
        assert hist.sum == pytest.approx(55.75)
        assert hist.min == 0.25
        assert hist.max == 50.0
        assert hist.mean == pytest.approx(55.75 / 4)

    def test_empty(self):
        hist = Histogram()
        assert hist.mean == 0.0
        assert hist.to_dict()["min"] == 0.0  # not inf: JSON-safe

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="non-empty"):
            Histogram(buckets=())


class TestRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.set_gauge("depth", 3.0)
        reg.observe("lat", 0.002)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 5}
        assert snap["gauges"] == {"depth": 3.0}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_merge_adds_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x", 2)
        b.inc("x", 3)
        b.inc("y")
        a.observe("lat", 0.001)
        b.observe("lat", 0.1)
        b.set_gauge("depth", 7.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"] == {"x": 5, "y": 1}
        assert snap["gauges"]["depth"] == 7.0
        hist = snap["histograms"]["lat"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.101)
        assert hist["min"] == 0.001
        assert hist["max"] == 0.1

    def test_merge_is_order_and_split_invariant_on_counts(self):
        parts = [MetricsRegistry() for _ in range(3)]
        for i, reg in enumerate(parts):
            reg.inc("n", i + 1)
            reg.observe("lat", 0.01 * (i + 1))
        ab = MetricsRegistry()
        for reg in parts:
            ab.merge(reg.snapshot())
        ba = MetricsRegistry()
        for reg in reversed(parts):
            ba.merge(reg.snapshot())
        assert ab.counters == ba.counters == {"n": 6}
        assert ab.histograms["lat"].count == ba.histograms["lat"].count == 3

    def test_merge_bucket_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("lat", 0.5)
        snap = b.snapshot()
        snap["histograms"] = {
            "lat": Histogram(buckets=(1.0, 2.0)).to_dict()
        }
        with pytest.raises(ValueError, match="bucket mismatch"):
            a.merge(snap)

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.inc("moves_scored", 17)
        reg.observe("admission_latency", 0.003)
        payload = json.loads(reg.to_json())
        assert payload["counters"]["moves_scored"] == 17
        restored = MetricsRegistry().merge(payload)
        assert restored.counters == reg.counters

    def test_enable_disable(self):
        assert metrics.REGISTRY is None
        assert not metrics.enabled()
        reg = metrics.enable()
        assert metrics.active() is reg
        assert metrics.enable() is reg  # idempotent without args
        fresh = MetricsRegistry()
        assert metrics.enable(fresh) is fresh  # explicit install swaps
        metrics.disable()
        assert metrics.REGISTRY is None


# ---------------------------------------------------------------------- #
# Tracing units


class TestTracing:
    def test_disabled_span_is_shared_noop(self):
        assert tracing.span("kernel:x") is tracing.span("strategy:y")
        with tracing.span("kernel:x", detail=1):
            pass  # no tracer: nothing recorded, nothing raised

    def test_span_records_complete_event(self):
        tracer = tracing.start(tracing.Tracer())
        with tracing.span("kernel:best_move", task="t3"):
            pass
        with tracer.span("runtime:arrival"):
            pass
        tracing.stop()
        assert len(tracer.events) == 2
        first = tracer.events[0]
        assert first["name"] == "kernel:best_move"
        assert first["ph"] == "X"
        assert first["cat"] == "kernel"
        assert first["args"] == {"task": "t3"}
        assert first["dur"] >= 0.0
        assert "args" not in tracer.events[1]

    def test_to_json_is_chrome_trace_format(self):
        tracer = tracing.start(tracing.Tracer())
        with tracing.span("a:b"):
            pass
        tracing.stop()
        payload = json.loads(tracer.to_json())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert {"name", "ph", "ts", "dur", "pid", "tid", "cat"} <= set(
            events[0]
        )

    def test_absorb_concatenates(self):
        parent, child = tracing.Tracer(), tracing.Tracer()
        with child.span("x:y"):
            pass
        parent.absorb(child.events)
        assert len(parent.events) == 1

    def test_stop_returns_and_uninstalls(self):
        tracer = tracing.start()
        assert tracing.active() is tracer
        assert tracing.stop() is tracer
        assert tracing.TRACER is None
        assert tracing.stop() is None


# ---------------------------------------------------------------------- #
# Structured logging units


class TestLogging:
    def teardown_method(self):
        logger = logging.getLogger("repro")
        for handler in list(logger.handlers):
            if getattr(handler, "_repro_obs", False):
                logger.removeHandler(handler)
        logger.propagate = True

    def test_unset_is_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        assert obs_logging.configure() is None

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="json.*text"):
            obs_logging.configure("yaml")

    def test_json_mode_emits_structured_lines(self, capsys):
        obs_logging.configure("json")
        obs_logging.get_logger("runtime").info(
            "t=%g %s", 4.0, "arrival", extra={"subject": "app-1"}
        )
        line = capsys.readouterr().err.strip()
        payload = json.loads(line)
        assert payload["logger"] == "repro.runtime"
        assert payload["msg"] == "t=4 arrival"
        assert payload["subject"] == "app-1"
        assert payload["level"] == "info"

    def test_reconfigure_replaces_handler(self):
        obs_logging.configure("text")
        obs_logging.configure("json")
        logger = logging.getLogger("repro")
        tagged = [
            h for h in logger.handlers if getattr(h, "_repro_obs", False)
        ]
        assert len(tagged) == 1


# ---------------------------------------------------------------------- #
# Passivity: metrics on == metrics off, everywhere

STRATEGY_CALLS = {
    "local_search": lambda g, p: local_search(greedy_cpu(g, p), max_rounds=4),
    "simulated_annealing": lambda g, p: simulated_annealing(
        g, p, seed=3, iterations=120
    ),
    "tabu_search": lambda g, p: tabu_search(g, p, seed=3, rounds=6),
    "genetic_algorithm": lambda g, p: genetic_algorithm(
        g, p, seed=3, generations=3, population_size=10
    ),
}


@pytest.fixture
def kernel(request, monkeypatch):
    """Select the kernel that resolves to the parametrized label."""
    label = request.param
    monkeypatch.setenv(BACKEND_ENV_VAR, "python" if label == "python" else "auto")
    return label


@pytest.mark.parametrize("strategy", sorted(STRATEGY_CALLS))
@pytest.mark.parametrize("kernel", available_backends(), indirect=True)
def test_strategy_mapping_identical_with_metrics(graph, qs22, strategy, kernel):
    """Instrumented runs must emit bit-identical mappings: recording a
    counter or a span never consumes randomness or perturbs scores."""
    run = STRATEGY_CALLS[strategy]
    baseline = run(graph, qs22)
    metrics.enable(MetricsRegistry())
    tracing.start(tracing.Tracer())
    try:
        instrumented = run(graph, qs22)
    finally:
        tracing.stop()
        metrics.disable()
    assert instrumented.to_dict() == baseline.to_dict()
    assert instrumented.to_json() == baseline.to_json()


@pytest.mark.parametrize("kernel", available_backends(), indirect=True)
def test_strategy_counters_deterministic(graph, qs22, kernel):
    """Counter totals are decision counts: two identical runs agree."""

    def run_counted():
        registry = metrics.enable(MetricsRegistry())
        try:
            tabu_search(graph, qs22, seed=5, rounds=5)
        finally:
            metrics.disable()
        return registry.counters

    first, second = run_counted(), run_counted()
    assert first == second
    assert first["moves_scored"] > 0
    assert first[f"backend_dispatches.{kernel}"] >= 1


def test_scheduler_report_identical_with_metrics(qs22):
    """Same timeline, metrics+tracing on vs off: equal reports, and the
    serialized records differ only in the decision-latency telemetry.
    The O(app) compile counters record work without steering it."""
    events = ScenarioGenerator(
        qs22, seed=7, load=2.0, n_failures=2
    ).generate(16)

    def play():
        scheduler = OnlineScheduler(
            qs22, retry_limit=2, brownout_threshold=0.5
        )
        return scheduler.run(events)

    baseline = play()
    registry = metrics.enable(MetricsRegistry())
    tracing.start(tracing.Tracer())
    try:
        instrumented = play()
    finally:
        tracing.stop()
        metrics.disable()
    assert instrumented == baseline
    counters = registry.counters
    arrivals = sum(e.event_type == "arrival" for e in events)
    # One block per admission attempt (perturbation windows add more);
    # the runtime only ever compiles unmutated composites.
    assert counters["compile.blocks_built"] >= arrivals
    assert counters["compile.composites_assembled"] >= 1
    assert all(r.decision_latency == 0.0 for r in baseline.records)
    assert any(r.decision_latency > 0.0 for r in instrumented.records)
    zeroed = RuntimeReport(
        platform=instrumented.platform,
        objective=instrumented.objective,
        migration_budget=instrumented.migration_budget,
        records=[
            EventRecord.from_dict(
                {**r.to_dict(), "decision_latency": 0.0}
            )
            for r in instrumented.records
        ],
        kernel_backend=instrumented.kernel_backend,
    )
    assert zeroed.to_json() == baseline.to_json()


def test_scheduler_admission_counters_balance(qs22):
    events = ScenarioGenerator(qs22, seed=7, load=2.5).generate(14)
    registry = metrics.enable(MetricsRegistry())
    try:
        report = OnlineScheduler(qs22, retry_limit=1).run(events)
    finally:
        metrics.disable()
    decided = sum(1 for r in report.records if r.accepted is not None)
    counters = registry.counters
    assert (
        counters.get("admissions.accepted", 0)
        + counters.get("admissions.rejected", 0)
        == decided
    )
    assert counters.get("admissions.accepted", 0) == report.n_accepted
    hist = registry.histograms["admission_latency"]
    assert hist.count == decided
    assert report.mean_admission_latency > 0.0


def test_scheduler_shed_and_brownout_counters():
    """A failure-heavy brownout run feeds the degradation counters."""
    from repro.graph import DataEdge, StreamGraph, Task
    from repro.runtime import AppArrival, SpeFailure, SpeRecovery

    def app(tag):
        g = StreamGraph(f"app-{tag}")
        g.add_task(Task("src", wppe=400.0, wspe=100.0))
        g.add_task(Task("sink", wppe=400.0, wspe=100.0))
        g.add_edge(DataEdge("src", "sink", 512.0))
        return g

    platform = CellPlatform(n_ppe=1, n_spe=2, name="tiny")
    events = [
        AppArrival(2.0, "a", app("a"), target_period=150.0),
        AppArrival(4.0, "b", app("b"), target_period=150.0),
        SpeFailure(6.0, 1),
        SpeFailure(8.0, 2),
        SpeRecovery(10.0, 1),
        SpeRecovery(12.0, 2),
    ]
    registry = metrics.enable(MetricsRegistry())
    try:
        report = OnlineScheduler(
            platform, brownout_threshold=0.6
        ).run(events)
    finally:
        metrics.disable()
    counters = registry.counters
    assert counters.get("brownout_transitions", 0) == sum(
        1
        for r in report.records
        if r.reason in ("brownout-enter", "brownout-exit")
    )
    assert counters.get("brownout_transitions", 0) >= 2
    assert counters.get("admissions.shed", 0) == len(report.dropped_apps)
    assert registry.histograms["evacuation_latency"].count == 2
    assert "repair_latency" in registry.histograms


# ---------------------------------------------------------------------- #
# Sweep telemetry: merged worker registries == serial registry


def _double(spec):
    reg = metrics.REGISTRY
    if reg is not None:
        reg.inc("specs_seen")
        reg.observe("admission_latency", 0.001 * (spec + 1))
    return spec * 2


def test_run_sweep_telemetry_merges_across_workers():
    specs = list(range(6))
    serial, serial_reg, _ = run_sweep_telemetry(_double, specs, jobs=1)
    fanned, fanned_reg, _ = run_sweep_telemetry(_double, specs, jobs=3)
    assert serial == fanned == [s * 2 for s in specs]
    assert serial_reg.counters == fanned_reg.counters
    assert serial_reg.counters["specs_seen"] == len(specs)
    assert (
        serial_reg.histograms["admission_latency"].count
        == fanned_reg.histograms["admission_latency"].count
        == len(specs)
    )


def test_run_sweep_telemetry_restores_ambient_registry():
    ambient = metrics.enable(MetricsRegistry())
    try:
        run_sweep_telemetry(_double, [1, 2], jobs=1)
        assert metrics.REGISTRY is ambient
    finally:
        metrics.disable()


def test_online_sweep_telemetry_matches_serial(qs22):
    """The merged cross-worker registry of the online sweep equals the
    serial run's on every deterministic entry (counters + histogram
    counts), and the points themselves equal an untelemetered sweep."""
    kwargs = dict(
        loads=(1.0, 2.0),
        budgets=(0, 2),
        n_events=8,
        base_platform=qs22,
        seed=1,
    )
    plain = online.run(**kwargs)
    serial = online.run(metrics=True, trace=True, jobs=1, **kwargs)
    fanned = online.run(metrics=True, trace=True, jobs=2, **kwargs)
    assert plain.points == serial.points == fanned.points
    assert serial.metrics["counters"] == fanned.metrics["counters"]
    for name, hist in serial.metrics["histograms"].items():
        assert (
            hist["count"] == fanned.metrics["histograms"][name]["count"]
        ), name
    assert serial.metrics["counters"]["moves_scored"] > 0
    assert serial.trace_events and fanned.trace_events
    assert all(e["ph"] == "X" for e in serial.trace_events)
    # Telemetry sidecars populated; table grows the telemetry columns.
    assert all(p.candidates_per_sec is not None for p in serial.points)
    assert "cand/s" in serial.table()
    assert "cand/s" not in plain.table()


def test_run_sweep_unchanged_without_telemetry(qs22):
    """The plain sweep path never installs a registry behind the
    caller's back."""
    specs = list(range(3))
    assert run_sweep(_double, specs, jobs=1) == [0, 2, 4]
    assert metrics.REGISTRY is None


# ---------------------------------------------------------------------- #
# Report schema: decision_latency round-trip + old-archive regression


def test_report_round_trips_decision_latency(qs22):
    events = ScenarioGenerator(qs22, seed=2, load=1.5).generate(8)
    metrics.enable(MetricsRegistry())
    try:
        report = OnlineScheduler(qs22).run(events)
    finally:
        metrics.disable()
    restored = RuntimeReport.from_json(report.to_json())
    assert restored == report
    assert [r.decision_latency for r in restored.records] == [
        r.decision_latency for r in report.records
    ]
    assert restored.mean_decision_latency == report.mean_decision_latency


def test_old_schema_report_still_loads(qs22):
    """Archived pre-instrumentation reports (no decision_latency field)
    load with the benign 0.0 default — the PR 6 compatibility contract."""
    from pathlib import Path

    path = Path(__file__).parent / "data" / "runtime_report_pr6.json"
    text = path.read_text()
    assert "decision_latency" not in text  # stays an old-schema payload
    report = RuntimeReport.from_json(text)
    assert report.n_events == len(report.records) > 0
    assert all(r.decision_latency == 0.0 for r in report.records)
    assert report.mean_decision_latency == 0.0
    assert report.mean_admission_latency == 0.0
    # And re-serializing emits the new schema, which loads right back.
    assert RuntimeReport.from_json(report.to_json()) == report
