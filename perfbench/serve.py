"""The serving workload: a durable scheduler service under churn.

``serve-crowded`` replays one seeded timeline through a
:class:`~repro.runtime.service.SchedulerService` in front of a
:class:`~repro.runtime.checkpoint.DurableScheduler` (fsync'd journal,
checkpoint every ``checkpoint_every`` events).  The timeline is a
high-load :class:`~repro.runtime.scenario.ScenarioGenerator` scenario
with few QoS targets, so about a dozen applications stay resident, plus
:class:`~repro.runtime.faults.FaultInjector` failure bursts and
cost-perturbation windows.

The same timeline is replayed under two load shapes, each on a fresh
service, so both make identical decisions:

* **closed** — one client: submit, await the reply, send the next;
* **open** — requests due at a fixed rate, each timed from when it was
  due, so a stall also delays the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.heuristics import greedy_cpu
from repro.platform import CellPlatform
from repro.runtime import (
    DEFAULT_BUILDERS,
    AppArrival,
    DurableScheduler,
    Event,
    FaultInjector,
    OnlineScheduler,
    RuntimeReport,
    ScenarioGenerator,
    SchedulerService,
    ServiceResponse,
)
from repro.steady_state import analyze

from .common import CheckFailed, Outcome, Speed, check, geomean, median, percentile
from .layers import LayerTrace, null_span

__all__ = [
    "WORKLOADS",
    "Replay",
    "ServeInputs",
    "ServeWorkload",
    "check_replay",
    "make_scheduler",
    "measure",
    "measure_traced",
    "replay",
    "setup",
    "tiny",
]


@dataclass(frozen=True)
class ServeWorkload:
    n_events: int = 1000
    #: Offered concurrency (resident applications) of the scenario.
    load: float = 12.0
    target_probability: float = 0.2
    n_failures: int = 2
    n_bursts: int = 7
    n_perturbations: int = 5
    checkpoint_every: int = 50
    #: Open-loop request rate in events per second — fixed, a third to
    #: a half of the closed-loop throughput measured when the benchmark
    #: was set; at half, the growing checkpoints build a backlog by the
    #: end of the timeline on some seeds.
    open_rate: float = 35.0
    migration_budget: int = 3
    retry_limit: int = 1
    #: How far the open loop's work-adjusted last-quarter p50 may exceed
    #: its first quarter's before the run counts as a growing backlog.
    #: A backlog multiplies latency many times over; the quarter-to-
    #: quarter noise of a healthy run on a shared host is about ±20 %.
    backlog_bound: float = 1.0


WORKLOADS: Dict[str, ServeWorkload] = {"serve-crowded": ServeWorkload()}


def tiny(workload: ServeWorkload) -> ServeWorkload:
    return replace(
        workload,
        n_events=40,
        n_bursts=1,
        n_perturbations=1,
        checkpoint_every=10,
        open_rate=20.0,
    )


@dataclass
class ServeInputs:
    platform: CellPlatform
    events: List[Event]
    #: GREEDYCPU's solo period of each application kind.
    solo: Dict[str, float]
    #: Application name → kind, for every arrival of the timeline.
    kinds: Dict[str, str]


def setup(workload: ServeWorkload, seed: int) -> ServeInputs:
    """The seeded timeline and the GREEDYCPU solo references."""
    platform = CellPlatform.qs22()
    rng = random.Random(f"{seed}:serve")
    events = ScenarioGenerator(
        platform,
        seed=rng.randrange(2**31),
        load=workload.load,
        target_probability=workload.target_probability,
        n_failures=workload.n_failures,
    ).generate(workload.n_events)
    events = FaultInjector(platform, seed=rng.randrange(2**31)).inject(
        events,
        n_bursts=workload.n_bursts,
        n_perturbations=workload.n_perturbations,
    )
    solo = {
        kind: analyze(greedy_cpu(build(), platform)).period
        for kind, build in DEFAULT_BUILDERS.items()
    }
    kinds = {e.name: e.app_kind for e in events if isinstance(e, AppArrival)}
    return ServeInputs(platform, events, solo, kinds)


def make_scheduler(workload: ServeWorkload, inputs: ServeInputs) -> OnlineScheduler:
    return OnlineScheduler(
        inputs.platform,
        migration_budget=workload.migration_budget,
        retry_limit=workload.retry_limit,
    )


#: Requests between speed probes (see :class:`~perfbench.common.Speed`);
#: an open-loop probe stalls the event loop, so it probes less often.
PROBE_EVERY = {"closed": 25, "open": 50}

#: Fewest requests per quarter for the open-loop backlog check.
MIN_QUARTER = 100


@dataclass
class Replay:
    shape: str
    responses: List[Optional[ServiceResponse]]
    #: Per-request seconds as measured, and scaled to the reference speed.
    latencies: List[float]
    scaled: List[float]
    report: RuntimeReport
    max_depth: int
    journal: Path
    checkpoint: Path
    lags: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)


async def _closed(service: SchedulerService, events: List[Event], speed):
    await service.start()
    responses, latencies, marks = [], [], []
    try:
        mark = speed.mark() if speed else 0
        for i, event in enumerate(events):
            if speed and i and i % PROBE_EVERY["closed"] == 0:
                mark = speed.mark()
            t0 = perf_counter()
            responses.append(await service.submit(event))
            latencies.append(perf_counter() - t0)
            marks.append(mark)
        if speed:
            speed.mark()
    finally:
        await service.stop()
    return responses, latencies, marks, []


async def _open(service: SchedulerService, events: List[Event], rate: float, speed):
    await service.start()
    responses: List[Optional[ServiceResponse]] = [None] * len(events)
    latencies = [0.0] * len(events)
    marks: List[int] = []
    lags: List[float] = []

    async def request(i: int, event: Event, due: float) -> None:
        responses[i] = await service.submit(event)
        latencies[i] = perf_counter() - due

    tasks = []
    try:
        mark = speed.mark() if speed else 0
        start = perf_counter()
        for i, event in enumerate(events):
            if speed and i and i % PROBE_EVERY["open"] == 0:
                mark = speed.mark()
            due = start + i / rate
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(perf_counter() - due)
            marks.append(mark)
            tasks.append(asyncio.create_task(request(i, event, due)))
        await asyncio.gather(*tasks)
        if speed:
            speed.mark()
    finally:
        await service.stop()
    return responses, latencies, marks, lags


def replay(
    workload: ServeWorkload,
    inputs: ServeInputs,
    directory: Path,
    shape: str,
    span=null_span,
    probe: bool = False,
) -> Replay:
    """One replay of the timeline through a fresh durable service.

    With ``probe`` the host speed is probed between requests and the
    latencies are also scaled to the reference speed.
    """
    tag = f"{shape}-{len(list(directory.glob('*.jsonl')))}"
    journal = directory / f"{tag}.jsonl"
    checkpoint = directory / f"{tag}.ckpt.json"
    service = SchedulerService(
        make_scheduler(workload, inputs),
        journal_path=journal,
        checkpoint_path=checkpoint,
        checkpoint_every=workload.checkpoint_every,
    )
    speed = Speed() if probe else None
    with span("bench." + shape):
        if shape == "closed":
            run = _closed(service, inputs.events, speed)
        else:
            run = _open(service, inputs.events, workload.open_rate, speed)
        responses, latencies, marks, lags = asyncio.run(run)
    scaled = (
        [speed.scale(x, m, m + 1) for x, m in zip(latencies, marks)]
        if speed
        else list(latencies)
    )
    return Replay(
        shape=shape,
        responses=responses,
        latencies=latencies,
        scaled=scaled,
        report=service.report(),
        max_depth=service.stats()["max_depth"],
        journal=journal,
        checkpoint=checkpoint,
        lags=lags,
        probes=speed.probes if speed else [],
    )


def check_replay(
    run: Replay,
    workload: ServeWorkload,
    inputs: ServeInputs,
    offline: RuntimeReport,
) -> int:
    """Check one replay; returns its failed (non-``ok``) request count.

    Every request gets exactly one response, the service report equals
    ``OnlineScheduler.run`` on the requests it answered ``ok`` (``offline``
    is that run on the whole timeline), and ``DurableScheduler.recover``
    on the replay's journal and checkpoint reproduces that report.
    """
    events = inputs.events
    check(
        len(run.responses) == len(events) and None not in run.responses,
        "serve.one_response_per_request",
        f"{run.shape} loop: {sum(r is not None for r in run.responses)} "
        f"responses for {len(events)} requests",
    )
    served = [e for e, r in zip(events, run.responses) if r.ok]
    if len(served) < len(events):  # overload protection turned some away
        offline = make_scheduler(workload, inputs).run(served)
    check(
        run.report == offline,
        "serve.report_matches_offline",
        f"{run.shape} loop report differs from OnlineScheduler.run",
    )
    try:
        with DurableScheduler.recover(
            run.journal, checkpoint_path=run.checkpoint
        ) as recovered:
            recovered_report = recovered.report()
    except ReproError as exc:
        raise CheckFailed(
            "serve.recovery_matches", f"{run.shape} loop: recovery raised {exc}"
        ) from exc
    check(
        recovered_report == offline,
        "serve.recovery_matches",
        f"{run.shape} loop: recovered report differs from the uninterrupted one",
    )
    return len(events) - len(served)


def check_backlog(opened: Replay, closed: Replay, bound: float) -> float:
    """An open loop whose latency keeps rising has a growing backlog.

    Requests do more work while more apps are resident, so each
    open-loop latency is first adjusted by the same request's work: its
    closed-loop latency is replaced by the closed-loop median.  The
    adjusted median of the last quarter may exceed the first quarter's
    by at most ``bound``.  Latencies are the speed-scaled ones, so a
    host slowing down mid-run does not read as a backlog either.
    Quarters of fewer than :data:`MIN_QUARTER` requests are too noisy
    to show a trend, so shorter (test-size) timelines skip the check.
    A request turned away by overload protection means the queue hit
    its watermark, which is a backlog too.  Returns the last-to-first
    ratio (1.0 when skipped).
    """
    shed = sum(r is not None and r.status == "rejected" for r in opened.responses)
    check(
        not shed,
        "serve.open_loop_backlog",
        f"overload protection turned {shed} open-loop requests away: the "
        "backlog reached the queue's watermark, so the run is invalid",
    )
    quarter = len(opened.scaled) // 4
    if quarter < MIN_QUARTER:
        return 1.0
    typical = median(closed.scaled)
    adjusted = [o - c + typical for o, c in zip(opened.scaled, closed.scaled)]
    first = median(adjusted[:quarter])
    last = median(adjusted[-quarter:])
    check(
        last <= first * (1.0 + bound),
        "serve.open_loop_backlog",
        f"work-adjusted last-quarter p50 {1e3 * last:.2f} ms exceeds the "
        f"first quarter's {1e3 * first:.2f} ms by more than {bound:.0%}: "
        "the backlog grows, so the run is invalid",
    )
    return last / first


def quality(inputs: ServeInputs, report: RuntimeReport) -> Dict[str, float]:
    """Deterministic decision quality of the replayed timeline.

    ``period_ratio`` is the geometric mean, over every resident
    application of every committed state, of the application's period
    divided by its GREEDYCPU period alone on the platform.
    """
    ratios = [
        period / inputs.solo[inputs.kinds[name]]
        for record in report.records
        for name, period in record.app_periods
    ]
    return {
        "period_ratio": geomean(ratios),
        "acceptance_rate": report.acceptance_rate,
    }


def measure(
    workload: ServeWorkload,
    inputs: ServeInputs,
    seconds: float,
    directory: Path,
) -> Outcome:
    """Closed/open replay pairs for ``seconds`` (at least one pair)."""
    closed: List[Replay] = []
    opened: List[Replay] = []
    deadline = perf_counter() + seconds
    while not closed or perf_counter() < deadline:
        closed.append(replay(workload, inputs, directory, "closed", probe=True))
        opened.append(replay(workload, inputs, directory, "open", probe=True))
    backlog = max(
        check_backlog(opened_run, closed_run, workload.backlog_bound)
        for opened_run, closed_run in zip(opened, closed)
    )
    offline = make_scheduler(workload, inputs).run(inputs.events)
    n = len(inputs.events)
    failed = sum(
        check_replay(run, workload, inputs, offline) for run in closed + opened
    )
    closed_lat = [x for run in closed for x in run.scaled]
    open_lat = [x for run in opened for x in run.scaled]
    lags = [x for run in opened for x in run.lags]
    solve_s = median([sum(run.scaled) for run in closed])
    metrics = {
        "solve_s": solve_s,
        "throughput_eps": n / solve_s,
        "p50_ms.closed": 1e3 * percentile(closed_lat, 50),
        "p99_ms.closed": 1e3 * percentile(closed_lat, 99),
        "p50_ms.open": 1e3 * percentile(open_lat, 50),
        "p99_ms.open": 1e3 * percentile(open_lat, 99),
        **quality(inputs, offline),
    }
    return Outcome(
        attempted=n * (len(closed) + len(opened)),
        failed=failed,
        metrics=metrics,
        details={
            "pairs": len(closed),
            "events": n,
            "open_loop.backlog_ratio": backlog,
            "raw.solve_s": median([sum(run.latencies) for run in closed]),
            "raw.p50_ms.open": 1e3 * percentile(
                [x for run in opened for x in run.latencies], 50
            ),
            "probe_ms.median": 1e3
            * median([p for run in closed + opened for p in run.probes]),
            "loadgen.lag_ms.p50": 1e3 * percentile(lags, 50),
            "loadgen.lag_ms.p99": 1e3 * percentile(lags, 99),
            "runtime.service.max_depth": max(run.max_depth for run in opened),
            "resident_apps.mean": _resident_mean(offline),
        },
    )


def _resident_mean(report: RuntimeReport) -> float:
    return sum(r.n_apps for r in report.records) / len(report.records)


def measure_traced(
    workload: ServeWorkload,
    inputs: ServeInputs,
    directory: Path,
) -> tuple:
    """Untraced closed replay, then traced closed and open replays.

    Returns the outcome and the two layer traces (closed, open).  The
    per-layer metrics come from the traced closed replay; queue wait,
    generator lag and queue depth from the traced open one.
    """
    plain = replay(workload, inputs, directory, "closed")
    closed_trace, open_trace = LayerTrace(), LayerTrace()
    with closed_trace:
        closed = replay(workload, inputs, directory, "closed", closed_trace.span)
    with open_trace:
        opened = replay(workload, inputs, directory, "open", open_trace.span)
    offline = make_scheduler(workload, inputs).run(inputs.events)
    n = len(inputs.events)
    failed = sum(
        check_replay(run, workload, inputs, offline) for run in (plain, closed, opened)
    )

    metrics = closed_trace.layer_metrics()
    engine_closed = closed_trace.events("runtime.engine")
    engine_open = sorted(open_trace.events("runtime.engine"), key=lambda e: e["ts"])
    check(
        len(engine_open) == n,
        "trace.engine_spans",
        f"{len(engine_open)} engine spans for {n} open-loop requests",
    )
    queue_wait = [
        1e3 * latency - 1e-3 * event["dur"]
        for latency, event in zip(opened.latencies, engine_open)
    ]
    metrics.update(
        {
            "runtime.scheduler.resident_apps.mean": _resident_mean(offline),
            "runtime.service.queue_wait_ms.p50": percentile(queue_wait, 50),
            "runtime.service.queue_wait_ms.p99": percentile(queue_wait, 99),
            "runtime.service.loop.s": sum(closed.latencies)
            - 1e-6 * sum(e["dur"] for e in engine_closed),
            "runtime.service.max_depth": opened.max_depth,
            "loadgen.lag_ms.p50": 1e3 * percentile(opened.lags, 50),
            "loadgen.lag_ms.p99": 1e3 * percentile(opened.lags, 99),
            "trace.overhead": sum(closed.latencies) / sum(plain.latencies),
        }
    )
    sizes = closed_trace.checkpoint_sizes
    check(
        len(sizes) >= 2 and sizes[-1] > sizes[0],
        "trace.checkpoint_growth",
        f"checkpoint sizes did not grow across the run: {sizes[:1]}…{sizes[-1:]}",
    )
    outcome = Outcome(
        attempted=3 * n,
        failed=failed,
        metrics=metrics,
        details={
            "checkpoint_bytes.first": sizes[0],
            "checkpoint_bytes.last": sizes[-1],
        },
    )
    return outcome, [closed_trace, open_trace]
