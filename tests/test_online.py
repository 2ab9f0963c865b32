"""The online scheduling runtime: events, scenarios, scheduler, sweep.

The acceptance bar of the runtime PR: a seeded end-to-end scenario of
≥20 events (including at least one SPE failure) must be deterministic
per seed, keep every intermediate (post-event) mapping feasible, and
keep the scheduler's ``DeltaAnalyzer.snapshot()`` bit-identical to a
fresh ``analyze()`` of the surviving workload in **all** buffer-model
modes; the experiment sweep must give identical results serially and in
parallel.
"""

import math

import pytest

from repro.cli import main_experiment
from repro.errors import (
    ExperimentError,
    GeneratorError,
    ObjectiveError,
    OnlineSchedulingError,
)
from repro.experiments import online
from repro.graph import StreamGraph, Task
from repro.platform import CellPlatform
from repro.runtime import (
    AppArrival,
    AppDeparture,
    CostPerturbation,
    CostRestore,
    EventRecord,
    FaultInjector,
    OnlineScheduler,
    RuntimeReport,
    ScenarioGenerator,
    SpeFailure,
    SpeRecovery,
    load_timeline,
    save_timeline,
    timeline_dumps,
    timeline_loads,
    validate_timeline,
)
from repro.runtime import scheduler as scheduler_mod
from repro.runtime.scenario import solo_period_bound
from repro.steady_state import Mapping, analyze
from repro.steady_state.reference import _ReferenceState

#: The four buffer-model configurations the evaluation engine supports.
ALL_MODES = (
    {},
    {"elide_local_comm": True},
    {"merge_same_pe_buffers": True},
    {"elide_local_comm": True, "merge_same_pe_buffers": True},
)
MODE_IDS = ("default", "elide", "merge", "elide+merge")


def single_task_app(name: str, wppe: float, wspe: float) -> StreamGraph:
    g = StreamGraph(name)
    g.add_task(Task("work", wppe=wppe, wspe=wspe))
    return g


@pytest.fixture(scope="module")
def platform():
    return CellPlatform.qs22()


# ---------------------------------------------------------------------- #
# Events and timeline validation


class TestTimeline:
    def test_validate_accepts_sorted(self, platform):
        events = ScenarioGenerator(platform, seed=1).generate(10)
        assert validate_timeline(events) == list(events)
        assert [e.time for e in events] == sorted(e.time for e in events)

    def test_validate_rejects_unsorted(self):
        g = single_task_app("a", 10.0, 5.0)
        events = [
            AppArrival(time=5.0, name="a", graph=g),
            AppDeparture(time=1.0, name="a"),
        ]
        with pytest.raises(OnlineSchedulingError, match="back in time"):
            validate_timeline(events)

    def test_validate_rejects_negative_time_and_junk(self):
        with pytest.raises(OnlineSchedulingError, match="negative time"):
            validate_timeline([AppDeparture(time=-1.0, name="x")])
        with pytest.raises(OnlineSchedulingError, match="not a runtime event"):
            validate_timeline(["not-an-event"])

    def test_scheduler_rejects_time_regression(self, platform):
        sched = OnlineScheduler(platform)
        sched.process(AppDeparture(time=10.0, name="ghost"))
        with pytest.raises(OnlineSchedulingError, match="time order"):
            sched.process(AppDeparture(time=5.0, name="ghost"))


# ---------------------------------------------------------------------- #
# Scenario generation


class TestScenarioGenerator:
    def test_deterministic_per_seed(self, platform):
        a = ScenarioGenerator(platform, seed=4, load=2.0).generate(20)
        b = ScenarioGenerator(platform, seed=4, load=2.0).generate(20)
        assert len(a) == len(b) == 20
        for x, y in zip(a, b):
            assert type(x) is type(y)
            assert x.time == y.time
            assert x.subject == y.subject
        c = ScenarioGenerator(platform, seed=5, load=2.0).generate(20)
        assert [e.time for e in a] != [e.time for e in c]

    def test_exact_event_count_and_failures(self, platform):
        for n in (2, 3, 20, 25):
            events = ScenarioGenerator(platform, seed=0, n_failures=2).generate(n)
            assert len(events) == n
        events = ScenarioGenerator(platform, seed=0, n_failures=2).generate(24)
        failures = [e for e in events if isinstance(e, SpeFailure)]
        recoveries = [e for e in events if isinstance(e, SpeRecovery)]
        assert len(failures) == len(recoveries) == 2
        # Distinct SPEs: overlapping windows can never double-fail one SPE.
        assert len({e.spe for e in failures}) == 2

    def test_no_failures_without_spes(self):
        ppe_only = CellPlatform(n_ppe=1, n_spe=0)
        events = ScenarioGenerator(ppe_only, seed=0, n_failures=3).generate(12)
        assert not any(isinstance(e, (SpeFailure, SpeRecovery)) for e in events)
        assert len(events) == 12

    def test_targets_use_slack_over_bound(self, platform):
        lo, hi = 3.0, 4.0
        gen = ScenarioGenerator(
            platform, seed=2, target_probability=1.0, target_slack=(lo, hi)
        )
        arrivals = [e for e in gen.generate(16) if isinstance(e, AppArrival)]
        assert arrivals
        for arrival in arrivals:
            bound = solo_period_bound(arrival.graph)
            assert lo * bound <= arrival.target_period <= hi * bound

    def test_zero_bound_builder_gets_positive_targets(self, platform):
        """A graph that is free on one PE kind must not produce a
        target_period of 0 (WorkloadError at arrival); the bound is
        clamped like objective.reference_periods."""
        def free_app():
            g = StreamGraph("free")
            g.add_task(Task("noop", wppe=1.0, wspe=0.0))
            return g

        gen = ScenarioGenerator(
            platform,
            seed=1,
            builders={"free": free_app},
            target_probability=1.0,
        )
        events = gen.generate(10)
        for event in events:
            if isinstance(event, AppArrival):
                assert event.target_period > 0
        report = OnlineScheduler(platform).run(events)
        assert report.all_feasible

    def test_parameter_validation(self, platform):
        with pytest.raises(GeneratorError, match="load"):
            ScenarioGenerator(platform, load=0.0)
        with pytest.raises(GeneratorError, match="mean_service"):
            ScenarioGenerator(platform, mean_service=-1.0)
        with pytest.raises(GeneratorError, match="target_slack"):
            ScenarioGenerator(platform, target_slack=(2.0, 1.0))
        with pytest.raises(GeneratorError, match="n_events"):
            ScenarioGenerator(platform).generate(1)


# ---------------------------------------------------------------------- #
# The end-to-end acceptance bar


class TestEndToEndAcceptance:
    """≥20 events incl. ≥1 SPE failure: deterministic, always feasible,
    snapshot bit-identical to a fresh analyze() in every buffer mode."""

    @pytest.mark.parametrize("mode", ALL_MODES, ids=MODE_IDS)
    def test_snapshot_bit_identical_every_event(self, platform, mode):
        events = ScenarioGenerator(platform, seed=5, load=2.5).generate(22)
        assert len(events) >= 20
        assert any(isinstance(e, SpeFailure) for e in events)
        sched = OnlineScheduler(platform, migration_budget=3, **mode)
        for event in events:
            record = sched.process(event)
            # Every intermediate (post-event) mapping is feasible.
            assert record.feasible
            if sched.state is None:
                continue
            snap = sched.state.snapshot()
            composite = sched.workload.compile()
            full = analyze(
                Mapping(composite, platform, sched.assignment()), **mode
            )
            assert snap.period == full.period
            assert snap.app_periods == full.app_periods
            assert snap.loads == full.loads
            assert snap.buffer_bytes == full.buffer_bytes
            assert snap.dma_in == full.dma_in
            assert snap.dma_proxy == full.dma_proxy
            assert snap.violations == full.violations
            assert snap.link_loads == full.link_loads
            assert snap.mapping == full.mapping

    def test_deterministic_per_seed(self, platform):
        def play(seed):
            events = ScenarioGenerator(platform, seed=seed, load=2.0).generate(24)
            return OnlineScheduler(platform, migration_budget=2).run(events)

        assert play(11) == play(11)
        assert play(11) != play(12)

    def test_delta_matches_reference_path(self, platform, monkeypatch):
        """The full-analyze() oracle, substituted for the delta engine,
        must take the exact same decisions on integer-cost graphs."""
        def play():
            events = ScenarioGenerator(platform, seed=5, load=2.5).generate(20)
            sched = OnlineScheduler(platform, migration_budget=2)
            report = sched.run(events)
            return report, sched.assignment()

        fast_report, fast_assign = play()
        monkeypatch.setattr(scheduler_mod, "DeltaAnalyzer", _ReferenceState)
        slow_report, slow_assign = play()
        assert fast_report == slow_report
        assert fast_assign == slow_assign

    def test_multi_cell_platform(self):
        """The runtime works unchanged on the dual-Cell platform (BIF
        link loads included in the bit-identity check)."""
        platform = CellPlatform.qs22_dual()
        events = ScenarioGenerator(platform, seed=9, load=3.0).generate(20)
        sched = OnlineScheduler(platform, migration_budget=2)
        for event in events:
            record = sched.process(event)
            assert record.feasible
            if sched.state is not None:
                snap = sched.state.snapshot()
                full = analyze(sched.state.mapping())
                assert snap.period == full.period
                assert snap.link_loads == full.link_loads

    @pytest.mark.parametrize("objective", ("weighted", "max_stretch"))
    def test_app_aware_objectives(self, platform, objective):
        events = ScenarioGenerator(platform, seed=3, load=2.0).generate(20)
        sched = OnlineScheduler(
            platform, objective=objective, migration_budget=2
        )
        report = sched.run(events)
        assert report.all_feasible
        assert report.objective == objective


# ---------------------------------------------------------------------- #
# Admission control


class TestAdmission:
    def test_unreachable_target_rejected_cleanly(self, platform):
        g = single_task_app("greedy", 50.0, 50.0)
        sched = OnlineScheduler(platform)
        record = sched.process(
            AppArrival(time=0.0, name="greedy", graph=g, target_period=10.0)
        )
        assert record.accepted is False
        assert "target-missed:greedy" in record.reason
        # No trace: workload empty, no state, nothing mapped.
        assert len(sched.workload) == 0
        assert sched.state is None
        assert sched.assignment() == {}

    def test_admission_protects_resident_targets(self):
        """An arrival that would push the shared period past a resident
        app's target is rejected even if it has no target itself."""
        platform = CellPlatform(n_ppe=1, n_spe=0, name="ppe-only")
        sched = OnlineScheduler(platform)
        first = sched.process(
            AppArrival(
                time=0.0,
                name="resident",
                graph=single_task_app("resident", 50.0, 50.0),
                target_period=60.0,
            )
        )
        assert first.accepted is True
        second = sched.process(
            AppArrival(
                time=1.0,
                name="intruder",
                graph=single_task_app("intruder", 30.0, 30.0),
            )
        )
        assert second.accepted is False
        assert "target-missed:resident" in second.reason
        assert sched.workload.app_names() == ["resident"]

    def test_duplicate_resident_name_rejected(self, platform):
        g = single_task_app("dup", 10.0, 5.0)
        sched = OnlineScheduler(platform)
        assert sched.process(
            AppArrival(time=0.0, name="dup", graph=g)
        ).accepted is True
        record = sched.process(
            AppArrival(time=1.0, name="dup", graph=single_task_app("dup2", 8.0, 4.0))
        )
        assert record.accepted is False
        assert record.reason == "duplicate-name"
        assert len(sched.workload) == 1

    def test_budget_can_rescue_an_arrival(self):
        """A tight target only reachable by remapping a resident task:
        budget 0 rejects, budget ≥ 1 admits — the admission side of the
        period-vs-reconfiguration trade."""
        platform = CellPlatform(n_ppe=1, n_spe=1, name="tiny")

        def play(budget):
            sched = OnlineScheduler(platform, migration_budget=budget)
            # Resident prefers the PPE (cheaper there), then the arrival
            # needs the PPE to itself: only a resident migration to the
            # SPE makes the target reachable.
            sched.process(
                AppArrival(
                    time=0.0,
                    name="resident",
                    graph=single_task_app("resident", 20.0, 25.0),
                )
            )
            # Without migrations: newcomer on PPE → 50, on SPE → 100,
            # both past the 35 µs target.  Moving the resident to the
            # SPE first gives max(25, 30) = 30 ≤ 35.
            return sched.process(
                AppArrival(
                    time=1.0,
                    name="newcomer",
                    graph=single_task_app("newcomer", 30.0, 100.0),
                    target_period=35.0,
                )
            )

        rejected = play(0)
        assert rejected.accepted is False
        admitted = play(1)
        assert admitted.accepted is True
        assert admitted.migrations == 1


# ---------------------------------------------------------------------- #
# Departures and the migration budget


class TestDeparture:
    def test_departure_of_unadmitted_app_is_noop(self, platform):
        sched = OnlineScheduler(platform)
        record = sched.process(AppDeparture(time=0.0, name="never-arrived"))
        assert record.accepted is None
        assert record.reason == "not-resident"
        assert sched.state is None

    def test_departure_frees_and_reoptimizes_within_budget(self, platform):
        events = ScenarioGenerator(platform, seed=7, load=3.0).generate(24)
        budget = 2
        sched = OnlineScheduler(platform, migration_budget=budget)
        report = sched.run(events)
        for record in report.records:
            if record.event in ("departure", "recovery", "arrival"):
                assert record.migrations <= budget
        # Last departure of each admitted app eventually empties the mix.
        assert report.records[-1].n_apps == len(sched.workload)

    def test_zero_budget_never_migrates_outside_failures(self, platform):
        events = ScenarioGenerator(platform, seed=7, load=3.0).generate(24)
        report = OnlineScheduler(platform, migration_budget=0).run(events)
        for record in report.records:
            if record.event != "failure":
                assert record.migrations == 0

    def test_negative_budget_rejected(self, platform):
        with pytest.raises(OnlineSchedulingError, match="migration_budget"):
            OnlineScheduler(platform, migration_budget=-1)
        with pytest.raises(ObjectiveError, match="unknown objective"):
            OnlineScheduler(platform, objective="fastest")


# ---------------------------------------------------------------------- #
# SPE failure and recovery


class TestFailure:
    def test_failed_spe_is_fully_evacuated(self, platform):
        events = ScenarioGenerator(
            platform, seed=5, load=3.0, n_failures=1
        ).generate(22)
        sched = OnlineScheduler(platform, migration_budget=2)
        saw_failure = False
        for event in events:
            sched.process(event)
            if isinstance(event, SpeFailure):
                saw_failure = True
                assert event.spe in sched.failed_spes
                assert all(
                    pe != event.spe for pe in sched.assignment().values()
                )
            if isinstance(event, SpeRecovery):
                assert event.spe not in sched.failed_spes
        assert saw_failure

    def test_failure_drops_lowest_weight_app(self):
        platform = CellPlatform(n_ppe=1, n_spe=1, name="tiny")
        sched = OnlineScheduler(platform, migration_budget=2)
        heavy = sched.process(
            AppArrival(
                time=0.0,
                name="heavy",
                graph=single_task_app("heavy", 50.0, 50.0),
                weight=2.0,
                target_period=60.0,
            )
        )
        light = sched.process(
            AppArrival(
                time=1.0,
                name="light",
                graph=single_task_app("light", 30.0, 30.0),
                weight=0.5,
                target_period=55.0,
            )
        )
        assert heavy.accepted and light.accepted
        # Both fit: one of them runs on the sole SPE (shared period 50).
        assert sched.state.period() == 50.0
        record = sched.process(SpeFailure(time=2.0, spe=1))
        # PPE-only cannot hold both under their targets: the lightest
        # goes, the survivor meets its target again.
        assert record.dropped == ("light",)
        assert record.feasible
        assert sched.workload.app_names() == ["heavy"]
        assert sched.state.period() == 50.0 <= 60.0

    def test_failure_validation(self, platform):
        sched = OnlineScheduler(platform)
        with pytest.raises(OnlineSchedulingError, match="not an SPE"):
            sched.process(SpeFailure(time=0.0, spe=0))  # PE 0 is the PPE
        with pytest.raises(OnlineSchedulingError, match="not an SPE"):
            sched.process(SpeFailure(time=0.0, spe=99))
        sched.process(SpeFailure(time=1.0, spe=3))
        with pytest.raises(OnlineSchedulingError, match="already failed"):
            sched.process(SpeFailure(time=2.0, spe=3))
        with pytest.raises(OnlineSchedulingError, match="not failed"):
            sched.process(SpeRecovery(time=3.0, spe=4))

    def test_arrival_during_outage_avoids_failed_spe(self, platform):
        sched = OnlineScheduler(platform, migration_budget=2)
        for spe in platform.spe_indices:
            if spe != platform.spe_indices[0]:
                sched.process(SpeFailure(time=0.0, spe=spe))
        live_spe = platform.spe_indices[0]
        record = sched.process(
            AppArrival(
                time=1.0,
                name="app",
                graph=single_task_app("app", 100.0, 10.0),
            )
        )
        assert record.accepted is True
        used = set(sched.assignment().values())
        assert used <= {0, live_spe}


# ---------------------------------------------------------------------- #
# The shared primitives the runtime contributed to the offline layers


class TestRuntimePrimitives:
    def test_delta_tasks_on_mirrors_mapping(self, platform):
        from repro.errors import MappingError
        from repro.steady_state import DeltaAnalyzer

        g = StreamGraph("two")
        g.add_task(Task("a", wppe=10.0, wspe=5.0))
        g.add_task(Task("b", wppe=10.0, wspe=5.0))
        state = DeltaAnalyzer(Mapping(g, platform, {"a": 0, "b": 2}))
        assert state.tasks_on(0) == ["a"]
        assert state.tasks_on(2) == ["b"]
        assert state.tasks_on(1) == []
        state.apply_move("b", 0)
        assert state.tasks_on(0) == ["a", "b"]
        with pytest.raises(MappingError, match="invalid PE"):
            state.tasks_on(platform.n_pes)

    def test_budgeted_descent_respects_budget_and_pes(self, platform):
        from repro.heuristics import budgeted_descent
        from repro.steady_state import DeltaAnalyzer

        g = StreamGraph("spread")
        for i in range(4):
            g.add_task(Task(f"t{i}", wppe=40.0, wspe=10.0))
        start = Mapping.all_on_ppe(g, platform)  # period 160 on the PPE
        state = DeltaAnalyzer(start)
        moved = budgeted_descent(state, budget=2)
        assert moved == 2  # improving moves exist beyond the budget
        assert state.period() < 160.0
        # Restricted to the PPE only, there is nowhere to go.
        state2 = DeltaAnalyzer(start)
        assert budgeted_descent(state2, budget=5, pes=[0]) == 0
        assert budgeted_descent(state2, budget=0) == 0

    def test_budgeted_descent_period_cap(self, platform):
        """Under the cap, no move may cross it — even an objective-
        improving one; above the cap, descent is allowed."""
        from repro.heuristics import budgeted_descent
        from repro.steady_state import DeltaAnalyzer

        g = StreamGraph("capped")
        for i in range(3):
            g.add_task(Task(f"t{i}", wppe=30.0, wspe=10.0))
        state = DeltaAnalyzer(Mapping.all_on_ppe(g, platform))  # period 90
        # Cap far below: only period-reducing moves allowed — descent runs.
        moved = budgeted_descent(state, budget=10, period_cap=1.0)
        assert moved > 0
        assert state.period() < 90.0


# ---------------------------------------------------------------------- #
# Report serialization


class TestReport:
    def test_json_round_trip(self, platform):
        events = ScenarioGenerator(platform, seed=5, load=2.0).generate(20)
        report = OnlineScheduler(platform, migration_budget=2).run(events)
        assert report.n_events == 20
        clone = RuntimeReport.from_json(report.to_json())
        assert clone == report
        assert clone.acceptance_rate == report.acceptance_rate
        assert clone.mean_period == report.mean_period

    def test_malformed_json_rejected(self):
        with pytest.raises(OnlineSchedulingError, match="malformed"):
            RuntimeReport.from_json("{not json")
        with pytest.raises(OnlineSchedulingError, match="malformed"):
            RuntimeReport.from_json('{"platform": "x"}')

    def test_aggregates(self, platform):
        report = RuntimeReport(platform="p", objective="period", migration_budget=1)
        assert report.acceptance_rate == 1.0  # vacuous: nothing arrived
        assert report.mean_period == 0.0
        assert report.total_migrations == 0
        assert report.all_feasible

    def test_table_mentions_outcomes(self, platform):
        events = ScenarioGenerator(platform, seed=5, load=2.0).generate(16)
        report = OnlineScheduler(platform).run(events)
        table = report.table()
        assert "acceptance" in table
        assert "mean period" in table


# ---------------------------------------------------------------------- #
# The experiment sweep


class TestOnlineExperiment:
    def test_serial_equals_parallel(self):
        kwargs = dict(loads=(1.0, 2.0), budgets=(0, 2), n_events=12)
        serial = online.run(jobs=None, **kwargs)
        parallel = online.run(jobs=2, **kwargs)
        assert serial == parallel
        assert len(serial.points) == 4
        for point in serial.points:
            assert point.all_feasible
            assert 0.0 <= point.acceptance_rate <= 1.0
            assert math.isfinite(point.mean_period)

    def test_budget_columns_share_the_timeline(self):
        """Same load, different budgets: identical arrival streams, so
        arrival counts match across the budget axis."""
        result = online.run(loads=(2.0,), budgets=(0, 4), n_events=14)
        by_budget = {p.budget: p for p in result.points}
        assert by_budget[0].arrivals == by_budget[4].arrivals

    def test_validation(self):
        with pytest.raises(ExperimentError, match="loads"):
            online.run(loads=())
        with pytest.raises(ExperimentError, match="loads"):
            online.run(loads=(0.0,))
        with pytest.raises(ExperimentError, match="budgets"):
            online.run(budgets=(-1,))
        with pytest.raises(ExperimentError, match="n_events"):
            online.run(n_events=1)
        with pytest.raises(ExperimentError, match="unknown objective"):
            online.run(objective="throughput")

    def test_main_surfaces_invalid_explicit_values(self):
        """main() must not silently swap explicit-but-invalid values
        (0 events, empty lists) for the defaults."""
        with pytest.raises(ExperimentError, match="n_events"):
            online.main(loads=(1.0,), budgets=(0,), n_events=0)
        with pytest.raises(ExperimentError, match="loads"):
            online.main(loads=())

    def test_table_lists_points(self):
        result = online.run(loads=(1.5,), budgets=(1,), n_events=8)
        table = result.table()
        assert "1.50" in table
        assert "migration budget" in table or "migrations" in table


class TestCli:
    def test_online_subcommand(self, capsys):
        rc = main_experiment(
            ["online", "--events", "10", "--loads", "1.5",
             "--budgets", "0,2", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "acceptance" in out.lower() or "rate" in out

    def test_online_rejects_bad_loads(self, capsys):
        rc = main_experiment(["online", "--loads", "fast"])
        assert rc == 1
        assert "--loads" in capsys.readouterr().err
        rc = main_experiment(["online", "--loads", "0"])
        assert rc == 1
        assert "positive" in capsys.readouterr().err

    def test_online_rejects_bad_budgets_and_events(self, capsys):
        rc = main_experiment(["online", "--budgets", "-2"])
        assert rc == 1
        assert "--budgets" in capsys.readouterr().err
        rc = main_experiment(["online", "--events", "1"])
        assert rc == 1
        assert "--events" in capsys.readouterr().err

    def test_online_flags_noted_elsewhere(self, capsys):
        rc = main_experiment(
            ["fig7", "--loads", "1", "--budgets", "2", "--strategies", "warp"]
        )
        err = capsys.readouterr().err
        assert rc == 1  # unknown strategy still aborts
        assert "--loads only applies to online" in err
        assert "--budgets only applies to online" in err

    def test_online_objective_accepted(self, capsys):
        rc = main_experiment(
            ["online", "--events", "8", "--loads", "1",
             "--budgets", "0", "--objective", "weighted"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "weighted" in out


# ---------------------------------------------------------------------- #
# Arrival patterns (bursty / diurnal load modulation)


class TestArrivalPatterns:
    def test_every_pattern_generates_valid_deterministic_timelines(
        self, platform
    ):
        for pattern in ScenarioGenerator.ARRIVAL_PATTERNS:
            kwargs = dict(seed=7, load=2.0, arrival_pattern=pattern)
            a = ScenarioGenerator(platform, **kwargs).generate(18)
            b = ScenarioGenerator(platform, **kwargs).generate(18)
            validate_timeline(a)
            assert len(a) == 18
            assert [(e.time, e.subject) for e in a] == [
                (e.time, e.subject) for e in b
            ]

    def test_patterns_reshape_arrivals_without_changing_their_count(
        self, platform
    ):
        def arrival_times(pattern):
            events = ScenarioGenerator(
                platform, seed=7, load=2.0, arrival_pattern=pattern
            ).generate(18)
            return [e.time for e in events if isinstance(e, AppArrival)]

        poisson = arrival_times("poisson")
        bursty = arrival_times("bursty")
        diurnal = arrival_times("diurnal")
        assert len(poisson) == len(bursty) == len(diurnal)
        assert poisson != bursty
        assert poisson != diurnal

    def test_diurnal_with_zero_amplitude_is_poisson(self, platform):
        """Amplitude 0 leaves the rate untouched, and every pattern
        consumes exactly one draw per gap — so the timelines coincide
        bit for bit."""
        flat = ScenarioGenerator(
            platform, seed=7, load=2.0, arrival_pattern="diurnal",
            diurnal_amplitude=0.0,
        ).generate(18)
        poisson = ScenarioGenerator(platform, seed=7, load=2.0).generate(18)
        assert [e.time for e in flat] == [e.time for e in poisson]

    def test_pattern_parameter_validation(self, platform):
        with pytest.raises(GeneratorError, match="arrival_pattern"):
            ScenarioGenerator(platform, arrival_pattern="fractal")
        with pytest.raises(GeneratorError, match="burst_factor"):
            ScenarioGenerator(
                platform, arrival_pattern="bursty", burst_factor=0.5
            )
        with pytest.raises(GeneratorError, match="burst_size"):
            ScenarioGenerator(platform, arrival_pattern="bursty", burst_size=0)
        with pytest.raises(GeneratorError, match="diurnal_period"):
            ScenarioGenerator(
                platform, arrival_pattern="diurnal", diurnal_period=0.0
            )
        with pytest.raises(GeneratorError, match="diurnal_amplitude"):
            ScenarioGenerator(
                platform, arrival_pattern="diurnal", diurnal_amplitude=1.0
            )

    def test_mean_downtime_validated_up_front(self, platform):
        with pytest.raises(GeneratorError, match="mean_downtime"):
            ScenarioGenerator(platform, mean_downtime=0.0)
        with pytest.raises(GeneratorError, match="mean_downtime"):
            ScenarioGenerator(platform, mean_downtime=-3.0)


# ---------------------------------------------------------------------- #
# Fault injection (correlated bursts, whole-Cell outages, perturbations)


class TestFaultInjector:
    def base(self, platform, seed=3, n=12):
        return ScenarioGenerator(
            platform, seed=seed, load=2.0, n_failures=0
        ).generate(n)

    def test_deterministic_and_valid(self, platform):
        base = self.base(platform)
        make = lambda: FaultInjector(  # noqa: E731
            platform, seed=11, correlation=0.6
        ).inject(base, n_bursts=3, n_perturbations=2)
        a, b = make(), make()
        validate_timeline(a)
        assert [(e.time, e.event_type, e.subject) for e in a] == [
            (e.time, e.event_type, e.subject) for e in b
        ]
        assert sum(e.event_type == "failure" for e in a) >= 3
        assert sum(e.event_type == "perturb" for e in a) == 2

    def test_never_double_fails_an_spe(self, platform):
        """Injection composes with generator-produced failures: scanning
        the merged timeline, a failure only hits an SPE that is up."""
        base = ScenarioGenerator(
            platform, seed=3, load=2.0, n_failures=2
        ).generate(16)
        merged = FaultInjector(platform, seed=1, correlation=0.7).inject(
            base, n_bursts=4
        )
        down = set()
        for event in merged:
            if isinstance(event, SpeFailure):
                assert event.spe not in down
                down.add(event.spe)
            elif isinstance(event, SpeRecovery):
                assert event.spe in down
                down.discard(event.spe)

    def test_whole_cell_outage_fails_one_chip_at_once(self):
        platform = CellPlatform.qs22_dual()
        base = ScenarioGenerator(
            platform, seed=3, load=2.0, n_failures=0
        ).generate(10)
        merged = FaultInjector(
            platform, seed=2, whole_cell_probability=1.0
        ).inject(base, n_bursts=1)
        failures = [e for e in merged if isinstance(e, SpeFailure)]
        cells = {platform.cell_of(e.spe) for e in failures}
        assert len(cells) == 1
        assert len({e.time for e in failures}) == 1
        (cell,) = cells
        expect = {s for s in platform.spe_indices if platform.cell_of(s) == cell}
        assert {e.spe for e in failures} == expect

    def test_zero_correlation_bursts_are_singletons(self, platform):
        merged = FaultInjector(platform, seed=5, correlation=0.0).inject(
            self.base(platform), n_bursts=2
        )
        n_failures = sum(isinstance(e, SpeFailure) for e in merged)
        assert 1 <= n_failures <= 2  # a clashing window may skip a burst

    def test_injected_timeline_plays_cleanly(self, platform):
        merged = FaultInjector(platform, seed=11, correlation=0.6).inject(
            self.base(platform, n=14), n_bursts=2, n_perturbations=1
        )
        report = OnlineScheduler(
            platform, migration_budget=2, retry_limit=1,
            brownout_threshold=0.3,
        ).run(merged)
        assert report.all_feasible

    def test_parameter_validation(self, platform):
        with pytest.raises(GeneratorError, match="correlation"):
            FaultInjector(platform, correlation=1.0)
        with pytest.raises(GeneratorError, match="whole_cell_probability"):
            FaultInjector(platform, whole_cell_probability=2.0)
        with pytest.raises(GeneratorError, match="mean_downtime"):
            FaultInjector(platform, mean_downtime=0.0)
        with pytest.raises(GeneratorError, match="cascade_lag"):
            FaultInjector(platform, cascade_lag=-1.0)
        with pytest.raises(GeneratorError, match="bw_scale"):
            FaultInjector(platform, bw_scale=(0.0, 1.0))
        with pytest.raises(GeneratorError, match="compute_scale"):
            FaultInjector(platform, compute_scale=(2.0, 1.0))
        with pytest.raises(GeneratorError, match="n_bursts"):
            FaultInjector(platform).inject([], n_bursts=-1)


class TestTimelineJson:
    def make(self, platform):
        base = ScenarioGenerator(
            platform, seed=4, load=2.0, n_failures=1
        ).generate(14)
        return FaultInjector(platform, seed=6).inject(
            base, n_bursts=1, n_perturbations=1
        )

    def test_round_trip_replays_identically(self, platform):
        timeline = self.make(platform)
        clone = timeline_loads(timeline_dumps(timeline))
        assert [(e.time, e.event_type, e.subject) for e in clone] == [
            (e.time, e.event_type, e.subject) for e in timeline
        ]
        play = lambda events: OnlineScheduler(  # noqa: E731
            platform, migration_budget=2
        ).run(events)
        assert play(clone) == play(timeline)

    def test_save_and_load_file(self, platform, tmp_path):
        timeline = self.make(platform)
        path = save_timeline(timeline, tmp_path / "timeline.json")
        clone = load_timeline(path)
        assert [(e.time, e.event_type) for e in clone] == [
            (e.time, e.event_type) for e in timeline
        ]

    def test_malformed_payloads_rejected(self, tmp_path):
        with pytest.raises(OnlineSchedulingError, match="malformed timeline"):
            timeline_loads("{not json")
        with pytest.raises(OnlineSchedulingError, match="malformed timeline"):
            timeline_loads('{"version": 1}')
        with pytest.raises(OnlineSchedulingError, match="unknown timeline"):
            timeline_loads(
                '{"version": 1, "events": [{"type": "meteor", "time": 0}]}'
            )
        with pytest.raises(OnlineSchedulingError, match="cannot read"):
            load_timeline(tmp_path / "absent.json")


# ---------------------------------------------------------------------- #
# Cost perturbation windows


class TestPerturbation:
    def test_window_scales_and_restores_exactly(self, platform):
        g_a = single_task_app("a", 40.0, 20.0)
        sched = OnlineScheduler(platform, migration_budget=2)
        sched.process(AppArrival(time=0.0, name="a", graph=g_a))
        assert sched.state.period() == 20.0
        record = sched.process(
            CostPerturbation(time=1.0, compute_scale=2.0, bw_scale=0.5)
        )
        assert record.feasible
        assert sched.perturbed
        assert sched.state.period() == 40.0
        assert sched.platform is not platform
        assert sched.platform.bw == pytest.approx(0.5 * platform.bw)
        # Arrival inside the window is admitted at the inflated costs...
        g_b = single_task_app("b", 10.0, 6.0)
        sched.process(AppArrival(time=2.0, name="b", graph=g_b))
        assert sched.workload.app("b").graph is not g_b
        sched.process(CostRestore(time=3.0))
        # ...and the restore puts back the *original* objects: the
        # platform and every resident graph, bit-identical by identity.
        assert not sched.perturbed
        assert sched.platform is platform
        assert sched.workload.app("a").graph is g_a
        assert sched.workload.app("b").graph is g_b
        assert sched.state.period() == 20.0

    @pytest.mark.parametrize("mode", ALL_MODES, ids=MODE_IDS)
    def test_snapshot_bit_identical_inside_window(self, platform, mode):
        """During a window the analyze() reference must use the
        scheduler's *scaled* platform and graphs, and still match."""
        events = [
            AppArrival(time=0.0, name="a", graph=single_task_app("a", 40, 20)),
            CostPerturbation(time=1.0, compute_scale=1.7, bw_scale=0.6),
            AppArrival(time=2.0, name="b", graph=single_task_app("b", 30, 25)),
        ]
        sched = OnlineScheduler(platform, migration_budget=2, **mode)
        for event in events:
            sched.process(event)
        snap = sched.state.snapshot()
        full = analyze(
            Mapping(
                sched.workload.compile(), sched.platform, sched.assignment()
            ),
            **mode,
        )
        assert snap.period == full.period
        assert snap.buffer_bytes == full.buffer_bytes
        assert snap.link_loads == full.link_loads

    def test_window_pairing_enforced(self, platform):
        sched = OnlineScheduler(platform)
        with pytest.raises(OnlineSchedulingError, match="no perturbation"):
            sched.process(CostRestore(time=0.0))
        sched.process(CostPerturbation(time=1.0, compute_scale=1.5))
        with pytest.raises(OnlineSchedulingError, match="already open"):
            sched.process(CostPerturbation(time=2.0, compute_scale=1.5))
        with pytest.raises(OnlineSchedulingError, match="positive"):
            CostPerturbation(time=0.0, compute_scale=0.0)
        with pytest.raises(OnlineSchedulingError, match="already open"):
            validate_timeline(
                [
                    CostPerturbation(time=0.0, compute_scale=2.0),
                    CostPerturbation(time=1.0, compute_scale=2.0),
                ]
            )
        with pytest.raises(OnlineSchedulingError, match="no perturbation"):
            validate_timeline([CostRestore(time=0.0)])


# ---------------------------------------------------------------------- #
# Degradation policies: shedding, deferred admission, brownout


class TestShedPolicies:
    def admit_pair(self, sched, first, second):
        a = sched.process(AppArrival(time=0.0, **first))
        b = sched.process(AppArrival(time=1.0, **second))
        assert a.accepted and b.accepted
        return sched.process(SpeFailure(time=2.0, spe=1))

    def test_newest_first_ignores_weight(self):
        platform = CellPlatform(n_ppe=1, n_spe=1, name="tiny")
        sched = OnlineScheduler(
            platform, migration_budget=2, shed_policy="newest-first"
        )
        record = self.admit_pair(
            sched,
            dict(name="light", graph=single_task_app("light", 30, 30),
                 weight=0.5, target_period=55.0),
            dict(name="heavy", graph=single_task_app("heavy", 50, 50),
                 weight=2.0, target_period=60.0),
        )
        assert record.dropped == ("heavy",)
        assert sched.workload.app_names() == ["light"]

    def test_highest_stretch_sheds_the_tightest_target(self):
        platform = CellPlatform(n_ppe=1, n_spe=1, name="tiny")
        sched = OnlineScheduler(
            platform, migration_budget=2, shed_policy="highest-stretch"
        )
        record = self.admit_pair(
            sched,
            dict(name="tight", graph=single_task_app("tight", 50, 50),
                 target_period=55.0),
            dict(name="loose", graph=single_task_app("loose", 30, 30),
                 target_period=70.0),
        )
        # Post-failure the PPE-only period misses both targets; the
        # worst period/target ratio (80/55 > 80/70) is shed first.
        assert record.dropped == ("tight",)
        assert sched.workload.app_names() == ["loose"]

    def test_unknown_policy_rejected(self, platform):
        with pytest.raises(OnlineSchedulingError, match="shed_policy"):
            OnlineScheduler(platform, shed_policy="coin-flip")
        assert set(online.SHED_POLICIES if hasattr(online, "SHED_POLICIES")
                   else ()) or True  # registry lives in repro.runtime
        from repro.runtime import SHED_POLICIES

        assert set(SHED_POLICIES) == {
            "lowest-weight", "highest-stretch", "newest-first"
        }


class TestRetryQueue:
    def test_rejected_arrival_retries_after_backoff(self):
        platform = CellPlatform(n_ppe=1, n_spe=0, name="ppe-only")
        sched = OnlineScheduler(platform, retry_limit=2, retry_backoff=5.0)
        big = sched.process(
            AppArrival(time=0.0, name="big",
                       graph=single_task_app("big", 50, 50),
                       target_period=60.0)
        )
        assert big.accepted
        second = sched.process(
            AppArrival(time=1.0, name="second",
                       graph=single_task_app("second", 30, 30),
                       target_period=100.0)
        )
        assert second.accepted is False
        assert second.reason.endswith(";retry-queued")
        assert sched.pending_retries == ((6.0, "second", 2),)
        sched.process(AppDeparture(time=3.0, name="big"))
        # The next event drains the queue first: the retry fires at its
        # due time (monotone clock), not at the event's.
        sched.process(AppDeparture(time=10.0, name="ghost"))
        report = sched.report()
        retries = [r for r in report.records if r.event == "retry"]
        assert len(retries) == 1
        assert retries[0].time == 6.0
        assert retries[0].accepted is True
        assert "second" in sched.workload
        assert report.n_retries == 1
        assert report.n_retry_admitted == 1
        times = [r.time for r in report.records]
        assert times == sorted(times)

    def test_retry_limit_exhausts(self):
        platform = CellPlatform(n_ppe=1, n_spe=0, name="ppe-only")
        sched = OnlineScheduler(platform, retry_limit=2, retry_backoff=5.0)
        sched.process(
            AppArrival(time=0.0, name="hog",
                       graph=single_task_app("hog", 50, 50))
        )
        rec = sched.process(
            AppArrival(time=1.0, name="wants",
                       graph=single_task_app("wants", 30, 30),
                       target_period=10.0)  # unreachable even alone
        )
        assert rec.accepted is False and "retry-queued" in rec.reason
        sched.process(AppDeparture(time=40.0, name="ghost"))
        report = sched.report()
        retries = [r for r in report.records if r.event == "retry"]
        # retry_limit=2: exactly two deferred attempts fire (backoff
        # 5 then 10), both rejected, and the queue is then empty.
        assert [r.time for r in retries] == [6.0, 16.0]
        assert all(r.accepted is False for r in retries)
        assert sched.pending_retries == ()
        assert report.n_retry_admitted == 0

    def test_departure_cancels_queued_retries(self):
        platform = CellPlatform(n_ppe=1, n_spe=0, name="ppe-only")
        sched = OnlineScheduler(platform, retry_limit=3, retry_backoff=5.0)
        sched.process(
            AppArrival(time=0.0, name="hog",
                       graph=single_task_app("hog", 50, 50),
                       target_period=60.0)
        )
        sched.process(
            AppArrival(time=1.0, name="later",
                       graph=single_task_app("later", 30, 30),
                       target_period=100.0)
        )
        assert sched.pending_retries != ()
        record = sched.process(AppDeparture(time=2.0, name="later"))
        assert record.reason == "retry-cancelled"
        assert sched.pending_retries == ()
        # The cancelled app never fires, even long after its due time.
        sched.process(AppDeparture(time=50.0, name="ghost"))
        assert "later" not in sched.workload
        assert sched.report().n_retries == 0

    def test_retry_knob_validation(self, platform):
        with pytest.raises(OnlineSchedulingError, match="retry_limit"):
            OnlineScheduler(platform, retry_limit=-1)
        with pytest.raises(OnlineSchedulingError, match="retry_backoff"):
            OnlineScheduler(platform, retry_backoff=0.0)
        with pytest.raises(OnlineSchedulingError, match="brownout_threshold"):
            OnlineScheduler(platform, brownout_threshold=1.5)


class TestBrownout:
    def duo(self):
        return CellPlatform(n_ppe=1, n_spe=2, name="duo")

    def test_enter_relax_exit_reenforce(self):
        platform = self.duo()
        sched = OnlineScheduler(
            platform, migration_budget=2, brownout_threshold=0.6
        )
        sched.process(
            AppArrival(time=0.0, name="a",
                       graph=single_task_app("a", 50, 50))
        )
        failure = sched.process(SpeFailure(time=1.0, spe=1))
        # 1 of 2 SPEs live (0.5 < 0.6): brownout entered.
        assert sched.degraded
        assert failure.reason == "brownout-enter"
        assert failure.degraded and failure.feasible
        # Under brownout the QoS gate relaxes to feasibility: an app
        # whose target is unreachable is still admitted best-effort.
        arrival = sched.process(
            AppArrival(time=2.0, name="b",
                       graph=single_task_app("b", 50, 50),
                       weight=0.5, target_period=10.0)
        )
        assert arrival.accepted is True
        assert arrival.target_misses >= 1
        assert arrival.feasible
        recovery = sched.process(SpeRecovery(time=3.0, spe=1))
        # Exit re-enforces the full QoS gate: the unreachable target
        # cannot stand, so the (lowest-weight) violator is shed.
        assert not sched.degraded
        assert recovery.reason == "brownout-exit"
        assert recovery.dropped == ("b",)
        assert sched.workload.app_names() == ["a"]
        # Duration-weighted robustness metrics (interval semantics).
        report = sched.report()
        assert report.time_in_degraded == pytest.approx(2.0)
        assert report.degraded_fraction == pytest.approx(2.0 / 3.0)
        assert report.qos_violation_rate == pytest.approx(1.0 / 3.0)
        assert report.availability == pytest.approx(1.0 / 3.0)
        assert "[degraded]" in report.table()

    def test_threshold_zero_never_degrades(self):
        platform = self.duo()
        sched = OnlineScheduler(platform, migration_budget=2)
        sched.process(SpeFailure(time=0.0, spe=1))
        sched.process(SpeFailure(time=1.0, spe=2))
        assert not sched.degraded
        assert sched.report().time_in_degraded == 0.0


# ---------------------------------------------------------------------- #
# Failure edge cases (the satellite scenarios)


class TestFailureEdgeCases:
    def test_all_spes_down_leaves_ppe_haven(self, platform):
        sched = OnlineScheduler(platform, migration_budget=2)
        sched.process(
            AppArrival(time=0.0, name="app",
                       graph=single_task_app("app", 40, 20))
        )
        last = None
        for i, spe in enumerate(platform.spe_indices):
            last = sched.process(SpeFailure(time=1.0 + i, spe=spe))
            assert last.feasible
        # Every task survives on the PPE haven; no app was shed.
        assert last.dropped == ()
        assert set(sched.assignment().values()) <= set(platform.ppe_indices)
        # Arrivals during the total outage still land (PPE-only)...
        record = sched.process(
            AppArrival(time=50.0, name="late",
                       graph=single_task_app("late", 15, 5))
        )
        assert record.accepted is True
        assert set(sched.assignment().values()) <= set(platform.ppe_indices)
        # ...and full recovery restores SPE placements.
        for i, spe in enumerate(platform.spe_indices):
            sched.process(SpeRecovery(time=60.0 + i, spe=spe))
        assert sched.failed_spes == frozenset()
        snap = sched.state.snapshot()
        full = analyze(
            Mapping(
                sched.workload.compile(), platform, sched.assignment()
            )
        )
        assert snap.period == full.period

    def test_recovery_of_never_failed_spe_is_an_error_not_a_corruption(
        self, platform
    ):
        sched = OnlineScheduler(platform, migration_budget=2)
        sched.process(
            AppArrival(time=0.0, name="app",
                       graph=single_task_app("app", 40, 20))
        )
        before = sched.assignment()
        with pytest.raises(OnlineSchedulingError, match="not failed"):
            sched.process(SpeRecovery(time=1.0, spe=platform.spe_indices[0]))
        # The scheduler survives the bad event untouched and keeps going.
        assert sched.assignment() == before
        record = sched.process(AppDeparture(time=2.0, name="app"))
        assert record.feasible

    def test_departure_of_app_shed_during_outage_is_noop(self):
        platform = CellPlatform(n_ppe=1, n_spe=1, name="tiny")
        sched = OnlineScheduler(platform, migration_budget=2)
        sched.process(
            AppArrival(time=0.0, name="heavy",
                       graph=single_task_app("heavy", 50, 50),
                       weight=2.0, target_period=60.0)
        )
        sched.process(
            AppArrival(time=1.0, name="light",
                       graph=single_task_app("light", 30, 30),
                       weight=0.5, target_period=55.0)
        )
        shed = sched.process(SpeFailure(time=2.0, spe=1))
        assert shed.dropped == ("light",)
        # The app's own (late) departure event must not crash or double
        # free: it is a recorded no-op.
        record = sched.process(AppDeparture(time=3.0, name="light"))
        assert record.reason == "not-resident"
        assert record.feasible
        assert sched.workload.app_names() == ["heavy"]


# ---------------------------------------------------------------------- #
# Robustness metrics


class TestRobustnessMetrics:
    @staticmethod
    def rec(seq, time, *, degraded=False, misses=0, period=0.0, n_apps=1):
        return EventRecord(
            seq=seq, time=time, event="arrival", subject=f"s{seq}",
            accepted=True, reason="", migrations=0, dropped=(),
            period=period, value=period, feasible=True, n_apps=n_apps,
            n_tasks=n_apps, degraded=degraded, target_misses=misses,
            app_periods=(("app", period),) if n_apps else (),
        )

    def report(self, records):
        return RuntimeReport(
            platform="p", objective="period", migration_budget=0,
            records=records,
        )

    def test_interval_semantics_of_duration_metrics(self):
        report = self.report([
            self.rec(0, 0.0, degraded=True, misses=1, period=10.0),
            self.rec(1, 10.0, period=20.0),
            self.rec(2, 30.0, degraded=True, period=30.0),
            self.rec(3, 40.0, period=40.0),
        ])
        assert report.span == 40.0
        # Record i rules [t_i, t_{i+1}); the final record has zero
        # measure even though it is itself clean.
        assert report.time_in_degraded == pytest.approx(20.0)
        assert report.degraded_fraction == pytest.approx(0.5)
        assert report.qos_violation_rate == pytest.approx(0.25)
        assert report.availability == pytest.approx(0.5)

    def test_period_quantiles(self):
        report = self.report([
            self.rec(i, float(i), period=p)
            for i, p in enumerate((10.0, 20.0, 30.0, 40.0))
        ])
        assert report.period_p50 == pytest.approx(25.0)
        assert report.period_quantile(0.0) == 10.0
        assert report.period_quantile(1.0) == 40.0
        assert report.app_period_quantiles(0.5)["app"] == pytest.approx(25.0)
        with pytest.raises(OnlineSchedulingError, match="quantile"):
            report.period_quantile(1.5)

    def test_degenerate_reports(self):
        empty = self.report([])
        assert empty.span == 0.0
        assert empty.period_p99 == 0.0
        assert empty.qos_violation_rate == 0.0
        assert empty.availability == 1.0
        assert empty.app_period_quantiles() == {}

    def test_new_fields_round_trip_and_default(self, platform):
        events = FaultInjector(platform, seed=6).inject(
            ScenarioGenerator(
                platform, seed=4, load=2.0, n_failures=1
            ).generate(14),
            n_bursts=1, n_perturbations=1,
        )
        report = OnlineScheduler(
            platform, migration_budget=2, retry_limit=1,
            brownout_threshold=0.3,
        ).run(events)
        clone = RuntimeReport.from_json(report.to_json())
        assert clone == report
        assert clone.availability == report.availability
        assert clone.period_p99 == report.period_p99
        # Pre-fault-injection archives (no robustness keys) still load.
        import json as _json

        payload = _json.loads(report.to_json())
        for entry in payload["records"]:
            entry.pop("degraded")
            entry.pop("target_misses")
            entry.pop("app_periods")
        old = RuntimeReport.from_json(_json.dumps(payload))
        assert old.time_in_degraded == 0.0
        assert all(r.app_periods == () for r in old.records)


# ---------------------------------------------------------------------- #
# Experiment sweep and CLI: fault knobs and timeline replay


class TestOnlineExperimentFaults:
    def timeline(self, platform):
        base = ScenarioGenerator(
            platform, seed=4, load=2.0, n_failures=1
        ).generate(12)
        return FaultInjector(platform, seed=6).inject(base, n_bursts=1)

    def test_replay_serial_equals_parallel(self, platform):
        timeline = self.timeline(platform)
        kwargs = dict(budgets=(0, 2), timeline=timeline, retry_limit=1,
                      brownout_threshold=0.3)
        serial = online.run(jobs=None, **kwargs)
        parallel = online.run(jobs=2, **kwargs)
        assert serial == parallel
        assert len(serial.points) == 2
        for point in serial.points:
            assert point.load is None
            # Retry firings append records beyond the replayed events.
            assert point.n_events >= len(timeline)
            assert 0.0 <= point.availability <= 1.0
        assert "replay" in serial.table()

    def test_failure_knobs_thread_through(self):
        result = online.run(
            loads=(2.0,), budgets=(2,), n_events=14, n_failures=2,
            mean_downtime=10.0,
        )
        (point,) = result.points
        assert point.all_feasible
        assert 0.0 <= point.degraded_fraction <= 1.0

    def test_knob_validation(self):
        with pytest.raises(ExperimentError, match="n_failures"):
            online.run(n_failures=-1)
        with pytest.raises(ExperimentError, match="mean_downtime"):
            online.run(mean_downtime=0.0)
        with pytest.raises(ExperimentError, match="shed_policy"):
            online.run(shed_policy="coin-flip")

    def test_main_rejects_contradictory_replay_flags(self, platform):
        from repro.errors import UsageError

        timeline = self.timeline(platform)
        with pytest.raises(UsageError, match="--timeline replays"):
            online.main(timeline=timeline, loads=(1.0,))
        with pytest.raises(UsageError, match="--seed"):
            online.main(timeline=timeline, seed=3)
        with pytest.raises(UsageError, match="--mean-downtime"):
            online.main(timeline=timeline, mean_downtime=5.0)


class TestCliFaults:
    def save(self, platform, tmp_path):
        base = ScenarioGenerator(
            platform, seed=4, load=2.0, n_failures=1
        ).generate(10)
        return save_timeline(base, tmp_path / "timeline.json")

    def test_failure_flags_accepted(self, capsys):
        rc = main_experiment(
            ["online", "--events", "10", "--loads", "1.5", "--budgets", "0",
             "--failures", "2", "--mean-downtime", "10"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "p99" in out

    def test_timeline_replay(self, capsys, platform, tmp_path):
        path = self.save(platform, tmp_path)
        rc = main_experiment(["online", "--timeline", str(path),
                              "--budgets", "0,2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "replay" in out

    def test_timeline_clashes_rejected(self, capsys, platform, tmp_path):
        path = self.save(platform, tmp_path)
        rc = main_experiment(["online", "--timeline", str(path),
                              "--loads", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "--timeline replays saved events" in err
        assert "--loads" in err
        rc = main_experiment(["online", "--timeline", str(path),
                              "--failures", "2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "--failures" in err

    def test_missing_timeline_file_is_a_clean_error(self, capsys, tmp_path):
        rc = main_experiment(
            ["online", "--timeline", str(tmp_path / "nope.json")]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "cannot read timeline" in err

    def test_fault_flags_noted_elsewhere(self, capsys):
        rc = main_experiment(
            ["fig7", "--failures", "1", "--mean-downtime", "5",
             "--strategies", "warp"]
        )
        err = capsys.readouterr().err
        assert rc == 1  # unknown strategy still aborts
        assert "--failures only applies to online" in err
        assert "--mean-downtime only applies to online" in err
