"""Event-driven online scheduler: admission, remapping, failure handling.

The offline layers (PRs 0–3) map a *known* workload once.
:class:`OnlineScheduler` keeps a :class:`~repro.graph.workload.Workload`
and its mapping alive across a timeline of
:mod:`~repro.runtime.events`, with three policies (Benoit et al.,
*Resource Allocation for Multiple Concurrent In-Network
Stream-Processing Applications*, motivates the admission setting;
*Multi-criteria scheduling of pipeline workflows* the period-versus-
reconfiguration-cost trade):

**Admission control** (:class:`AppArrival`).  The arriving application
is tentatively added to the workload and its tasks are placed by
*delta-scored incremental insertion*: a fresh
:class:`~repro.steady_state.delta.DeltaAnalyzer` is built once over the
new composite (new tasks parked on the always-feasible PPE haven), then
**cloned** per candidate insertion order, and every candidate placement
is scored by ``evaluate_move`` in O(deg) — never a full ``analyze()``
per candidate.  The best feasible result is admitted iff it also meets
every resident QoS target: in the lock-step steady state every
application advances once per shared period, so the QoS test is *shared
period ≤ each declared target*.  Rejected applications leave no trace.

**Departure re-optimisation** (:class:`AppDeparture`).  The departing
application's load is freed and the surviving mapping is re-optimised by
steepest-descent delta-scored moves **within a migration budget** — each
move is one task migration (a real reconfiguration cost on the Cell:
draining the task's buffers and re-loading its code on another PE), so
the budget makes remapping cost explicit.  Moves never violate hard
constraints or resident targets.

**Failure handling** (:class:`SpeFailure` / :class:`SpeRecovery`).  All
tasks on a failed SPE are evacuated in one bulk move to the PPE haven —
always hard-feasible, since a PPE has no store/DMA limits and evacuating
cannot raise any other SPE's constraint counts — then re-placed on live
PEs by the same delta-scored insertion.  If the shrunken platform cannot
meet the resident targets even after a budgeted remap, the scheduler
sheds load: a victim chosen by the pluggable **shed policy**
(:data:`SHED_POLICIES`: ``lowest-weight`` default, ``highest-stretch``,
``newest-first``) is dropped and the check repeats.  Recovery re-runs
the budgeted remapping so load can spread back onto the returned SPE.

**Graceful degradation.**  Three opt-in mechanisms soften the hard
gates under stress:

* *deferred admission* — with ``retry_limit > 0``, a rejected arrival
  (infeasible or target-missed, not duplicate-named) is queued and
  retried with exponential backoff (``retry_backoff · 2^attempt`` after
  each rejection); retries fire from :meth:`process` before the next
  timeline event, are recorded with event kind ``"retry"`` at their due
  time, and a departure of a still-queued application cancels its
  retries;
* *brownout mode* — with ``brownout_threshold > 0``, the scheduler
  enters degraded mode whenever the live-SPE fraction drops below the
  threshold: the QoS gate relaxes to weighted best-effort (admission
  and shedding check hard feasibility only, declared targets may be
  missed), and recovery that lifts capacity back above the threshold
  exits brownout and re-enforces the full gate — repairing, then
  shedding by policy, until every resident target is met again;
* *cost perturbation windows* (:class:`CostPerturbation` /
  :class:`CostRestore`) — resident (and arriving) graphs are swapped
  for ``scaled()`` copies and the platform for a bandwidth-scaled copy;
  the original objects are kept and swapped back at restore, so
  post-window costs are bit-identical to pre-window costs (no float
  drift).

Every committed (post-event) state is hard-feasible — and meets all
resident targets outside brownout — and the analyzer is re-anchored
(``resync``) at each commit, so its ``snapshot()`` is bit-identical to
a fresh ``analyze()`` of the surviving workload in every buffer-model
mode (during a perturbation window: against the scaled graphs and
platform, i.e. ``scheduler.platform``).  The full event/time semantics
contract lives in :mod:`repro.runtime.faults`.

The kernel is resolved once, when the scheduler is built, and every
analyzer it builds runs on that kernel; :attr:`OnlineScheduler.kernel_backend`
names it in reports and ``/stats``.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ObjectiveError, OnlineSchedulingError, ReproError
from ..graph import io as graph_io
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..obs.logging import get_logger
from ..graph.stream_graph import StreamGraph
from ..graph.workload import Workload
from ..heuristics import budgeted_descent
from ..platform.cell import CellPlatform
from ..steady_state.backend import resolve_backend
from ..steady_state.delta import DeltaAnalyzer
from ..steady_state.mapping import Mapping
from ..steady_state.objective import OBJECTIVES, make_objective
from ..steady_state.throughput import PeriodAnalysis
from .events import (
    AppArrival,
    AppDeparture,
    CostPerturbation,
    CostRestore,
    Event,
    SpeFailure,
    SpeRecovery,
    validate_timeline,
)
from .report import EventRecord, RuntimeReport
from .scenario import solo_period_bound

__all__ = ["OnlineScheduler", "SHED_POLICIES", "STATE_SCHEMA"]

#: Schema version of :meth:`OnlineScheduler.snapshot_state` payloads.
STATE_SCHEMA = 1

#: The compact encoder behind every snapshot (``json.dumps`` with these
#: separators builds the same encoder per call).
_encode = json.JSONEncoder(separators=(",", ":")).encode

_LOG = get_logger("runtime")


# ---------------------------------------------------------------------- #
# Shed policies: who goes first when the platform cannot carry everyone.
# Each policy maps (scheduler, state) -> the victim application's name;
# the workload is guaranteed non-empty when a policy is consulted.


def _shed_lowest_weight(sched: "OnlineScheduler", state: DeltaAnalyzer) -> str:
    """Lowest throughput weight goes first (ties: earliest resident)."""
    return min(
        enumerate(sched.workload),
        key=lambda pair: (pair[1].weight, pair[0]),
    )[1].name


def _shed_highest_stretch(sched: "OnlineScheduler", state: DeltaAnalyzer) -> str:
    """Worst period-versus-reference ratio goes first.

    Each application's reference is its declared target period, or the
    graph's mapping-independent period lower bound when it declared
    none — the same reference the ``max_stretch`` objective uses.  The
    shared period divided by the reference is the application's
    stretch; the most-stretched (ties: earliest resident) is shed, on
    the reasoning that it is the furthest from useful service anyway.
    """
    period = state.period()

    def stretch(pair):
        index, app = pair
        ref = (
            app.target_period
            if app.target_period is not None
            else solo_period_bound(app.graph)
        )
        return (period / ref, -index)

    return max(enumerate(sched.workload), key=stretch)[1].name


def _shed_newest_first(sched: "OnlineScheduler", state: DeltaAnalyzer) -> str:
    """Most recently admitted goes first (LIFO: protect seniority)."""
    return list(sched.workload)[-1].name


#: Pluggable shed policies for degradation handling (``shed_policy=``).
SHED_POLICIES: Dict[str, Callable[["OnlineScheduler", DeltaAnalyzer], str]] = {
    "lowest-weight": _shed_lowest_weight,
    "highest-stretch": _shed_highest_stretch,
    "newest-first": _shed_newest_first,
}


@dataclass
class _PendingRetry:
    """One queued deferred-admission attempt."""

    due: float
    seq: int  # enqueue order: the due-time tie-breaker
    event: AppArrival  # the original arrival (unscaled graph)
    attempt: int  # 1-based attempt number this firing represents


@dataclass
class _ActivePerturbation:
    """Bookkeeping of the open cost-perturbation window.

    ``saved`` maps each resident application to its *original* graph
    object; restore swaps these back by reference (bit-identical costs,
    no divide-back drift).  Applications that depart or are shed during
    the window are evicted from the map.
    """

    event: CostPerturbation
    base_platform: CellPlatform
    saved: Dict[str, StreamGraph] = field(default_factory=dict)


class OnlineScheduler:
    """Online admission, remapping and failure handling for one platform.

    Parameters
    ----------
    platform:
        The (fixed) Cell platform.  PE 0 is a PPE by the paper's indexing
        convention; it doubles as the always-feasible evacuation haven.
    objective:
        Objective ranking candidate placements and remapping moves
        (``period`` | ``weighted`` | ``max_stretch``, see
        :mod:`repro.steady_state.objective`).
    migration_budget:
        Maximum number of task migrations per departure/recovery
        re-optimisation pass (and per repair attempt after a failure).
        0 disables re-optimisation entirely.
    elide_local_comm / merge_same_pe_buffers:
        Buffer-model flags, threaded through to the evaluation engine
        exactly as in the offline heuristics.
    shed_policy:
        Victim selection when load must be dropped (:data:`SHED_POLICIES`:
        ``lowest-weight`` | ``highest-stretch`` | ``newest-first``).
    retry_limit / retry_backoff:
        Deferred admission: up to ``retry_limit`` retries per rejected
        arrival, the ``k``-th (0-based) ``retry_backoff · 2^k`` after
        its rejection.  ``retry_limit=0`` (default) disables the queue.
    brownout_threshold:
        Live-SPE fraction below which the scheduler enters brownout
        (degraded) mode; ``0.0`` (default) never browns out.
    """

    def __init__(
        self,
        platform: CellPlatform,
        objective: str = "period",
        migration_budget: int = 4,
        elide_local_comm: bool = False,
        merge_same_pe_buffers: bool = False,
        name: str = "online",
        shed_policy: str = "lowest-weight",
        retry_limit: int = 0,
        retry_backoff: float = 8.0,
        brownout_threshold: float = 0.0,
    ) -> None:
        if objective not in OBJECTIVES:
            raise ObjectiveError(
                f"unknown objective {objective!r}; "
                f"pick from {', '.join(OBJECTIVES)}"
            )
        if migration_budget < 0:
            raise OnlineSchedulingError(
                f"migration_budget must be non-negative "
                f"(got {migration_budget!r})"
            )
        if shed_policy not in SHED_POLICIES:
            raise OnlineSchedulingError(
                f"unknown shed_policy {shed_policy!r}; "
                f"pick from {', '.join(SHED_POLICIES)}"
            )
        if retry_limit < 0:
            raise OnlineSchedulingError(
                f"retry_limit must be non-negative (got {retry_limit!r})"
            )
        if retry_backoff <= 0:
            raise OnlineSchedulingError(
                f"retry_backoff must be positive (got {retry_backoff!r})"
            )
        if not 0.0 <= brownout_threshold <= 1.0:
            raise OnlineSchedulingError(
                "brownout_threshold must be within [0, 1] "
                f"(got {brownout_threshold!r})"
            )
        #: The platform in effect — swapped for a bandwidth-scaled copy
        #: inside a perturbation window, swapped back at restore.
        self.platform = platform
        self.objective = objective
        self.migration_budget = int(migration_budget)
        self.elide_local_comm = bool(elide_local_comm)
        self.merge_same_pe_buffers = bool(merge_same_pe_buffers)
        #: Resolved kernel label, fixed for the scheduler's lifetime
        #: (``REPRO_KERNEL_BACKEND`` is read here and nowhere later).
        self._kernel_backend = resolve_backend()
        self.workload = Workload(name)
        #: The PPE that absorbs evacuations and parks unplaced tasks: a
        #: PPE has no local-store or DMA-queue constraints, so hosting
        #: anything there is always hard-feasible.
        self._haven = 0
        assert platform.is_ppe(self._haven)
        self.shed_policy = shed_policy
        self.retry_limit = int(retry_limit)
        self.retry_backoff = float(retry_backoff)
        self.brownout_threshold = float(brownout_threshold)
        self._failed: set = set()
        self._assign: Dict[str, int] = {}
        self._state: Optional[DeltaAnalyzer] = None
        self._obj = None
        self._records: List[EventRecord] = []
        #: Compact JSON of ``_records[:len(_record_json)]``, filled by
        #: :meth:`snapshot_json` (records are frozen and only appended).
        self._record_json: List[str] = []
        self._time = 0.0
        self._pending: List[_PendingRetry] = []
        self._retry_seq = 0
        self._perturbation: Optional[_ActivePerturbation] = None
        self._degraded = False
        #: Decision-clock start of the event being handled; ``None``
        #: while instrumentation is off, so uninstrumented runs record
        #: ``decision_latency == 0.0`` and stay byte-deterministic.
        self._t0: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Introspection

    @property
    def state(self) -> Optional[DeltaAnalyzer]:
        """The committed evaluation state (``None`` while idle)."""
        return self._state

    @property
    def time(self) -> float:
        return self._time

    @property
    def failed_spes(self) -> frozenset:
        return frozenset(self._failed)

    @property
    def degraded(self) -> bool:
        """Whether the scheduler is currently in brownout mode."""
        return self._degraded

    @property
    def perturbed(self) -> bool:
        """Whether a cost-perturbation window is currently open."""
        return self._perturbation is not None

    @property
    def pending_retries(self) -> Tuple[Tuple[float, str, int], ...]:
        """Queued deferred admissions as ``(due, name, attempt)`` triples.

        Retries fire from :meth:`process` before the next timeline
        event; entries still queued when the timeline ends simply never
        fire (the run is over).
        """
        return tuple(
            (p.due, p.event.name, p.attempt)
            for p in sorted(self._pending, key=lambda p: (p.due, p.seq))
        )

    def assignment(self) -> Dict[str, int]:
        """The committed composite-task → PE assignment."""
        return dict(self._assign)

    def mapping(self) -> Optional[Mapping]:
        return self._state.mapping() if self._state is not None else None

    def snapshot(self) -> Optional[PeriodAnalysis]:
        return self._state.snapshot() if self._state is not None else None

    @property
    def kernel_backend(self) -> str:
        """The kernel every analyzer of this scheduler runs on
        ("python" | "numpy" | "cython"), resolved once at construction."""
        return self._kernel_backend

    def report(self) -> RuntimeReport:
        return RuntimeReport(
            platform=self.platform.name,
            objective=self.objective,
            migration_budget=self.migration_budget,
            records=list(self._records),
            kernel_backend=self.kernel_backend,
        )

    # ------------------------------------------------------------------ #
    # Durability: state capture / restore (the checkpoint layer's hooks)

    def config(self) -> Dict:
        """The constructor configuration as a JSON-able dict.

        Everything a fresh, equivalent scheduler needs — the *base*
        (unperturbed) platform's full field set, the objective, budget,
        buffer-model flags and degradation knobs.  The kernel
        is deliberately excluded: it never influences a decision
        (kernel interchangeability is a repo invariant), so recovery is
        free to run on any kernel.
        """
        base = (
            self._perturbation.base_platform
            if self._perturbation is not None
            else self.platform
        )
        return {
            "platform": asdict(base),
            "objective": self.objective,
            "migration_budget": self.migration_budget,
            "elide_local_comm": self.elide_local_comm,
            "merge_same_pe_buffers": self.merge_same_pe_buffers,
            "name": self.workload.name,
            "shed_policy": self.shed_policy,
            "retry_limit": self.retry_limit,
            "retry_backoff": self.retry_backoff,
            "brownout_threshold": self.brownout_threshold,
        }

    def snapshot_state(self) -> Dict:
        """JSON-able capture of every committed decision input.

        The payload holds the clock, the resident workload with its
        graphs (inside a perturbation window these are the *scaled*
        copies — what the next decision actually sees), the committed
        assignment, the failed-SPE set, the brownout flag, the
        deferred-admission retry queue, the open perturbation window
        (parameters plus the saved original graphs), and the full record
        history.  ``json.dump`` round-trips floats exactly (repr-based),
        so :meth:`restore_state` on the parsed payload reproduces the
        committed state bit for bit — the checkpoint/recovery
        equivalence the chaos harness asserts.

        The records make the payload grow with the history; checkpoints
        encode it through :meth:`snapshot_json`, which serializes each
        record once, so their encoding cost is O(new records).
        """
        return {
            **self._state_head(),
            "records": [r.to_dict() for r in self._records],
        }

    def snapshot_json(self) -> str:
        """``json.dumps(self.snapshot_state(), separators=(",", ":"))``.

        Each record is encoded the first time a snapshot needs it and
        its text is spliced into every later one, so the cost is the
        state without records plus the records new since the last call.
        """
        cache = self._record_json
        cache.extend(
            _encode(r.to_dict()) for r in self._records[len(cache):]
        )
        head = _encode(self._state_head())
        return head[:-1] + ',"records":[' + ",".join(cache) + "]}"

    def _state_head(self) -> Dict:
        """:meth:`snapshot_state` without the record history."""
        perturbation = None
        if self._perturbation is not None:
            perturbation = {
                "time": self._perturbation.event.time,
                "compute_scale": self._perturbation.event.compute_scale,
                "bw_scale": self._perturbation.event.bw_scale,
                "saved": [
                    {"name": name, "graph": graph_io.to_dict(graph)}
                    for name, graph in self._perturbation.saved.items()
                ],
            }
        return {
            "schema": STATE_SCHEMA,
            "time": self._time,
            "apps": [
                {
                    "name": app.name,
                    "graph": graph_io.to_dict(app.graph),
                    "weight": app.weight,
                    "target_period": app.target_period,
                }
                for app in self.workload
            ],
            "assignment": dict(self._assign),
            "failed_spes": sorted(self._failed),
            "degraded": self._degraded,
            "retry_seq": self._retry_seq,
            "pending": [
                {
                    "due": p.due,
                    "seq": p.seq,
                    "attempt": p.attempt,
                    "arrival": {
                        "time": p.event.time,
                        "name": p.event.name,
                        "graph": graph_io.to_dict(p.event.graph),
                        "weight": p.event.weight,
                        "target_period": p.event.target_period,
                        "app_kind": p.event.app_kind,
                    },
                }
                for p in self._pending
            ],
            "perturbation": perturbation,
        }

    def restore_state(self, payload: Dict) -> None:
        """Reinstate a :meth:`snapshot_state` capture on this scheduler.

        The scheduler must have been constructed with the same
        configuration the capture was taken under (see :meth:`config`);
        any prior state on this instance is discarded.  Inside a
        restored perturbation window the scaled platform is recomputed
        from the base platform with the same float operations the live
        path used — bit-identical, because float multiplication is
        deterministic — and the saved original graphs are reinstated so
        a later :class:`CostRestore` is exact.
        """
        if payload.get("schema") != STATE_SCHEMA:
            raise OnlineSchedulingError(
                f"unsupported scheduler state schema "
                f"{payload.get('schema')!r} (this build reads "
                f"{STATE_SCHEMA})"
            )
        base = (
            self._perturbation.base_platform
            if self._perturbation is not None
            else self.platform
        )
        try:
            workload = Workload(self.workload.name)
            for spec in payload["apps"]:
                workload.add_app(
                    str(spec["name"]),
                    graph_io.from_dict(spec["graph"]),
                    weight=float(spec["weight"]),
                    target_period=(
                        None
                        if spec["target_period"] is None
                        else float(spec["target_period"])
                    ),
                )
            pending = [
                _PendingRetry(
                    due=float(spec["due"]),
                    seq=int(spec["seq"]),
                    attempt=int(spec["attempt"]),
                    event=AppArrival(
                        time=float(spec["arrival"]["time"]),
                        name=str(spec["arrival"]["name"]),
                        graph=graph_io.from_dict(spec["arrival"]["graph"]),
                        weight=float(spec["arrival"]["weight"]),
                        target_period=(
                            None
                            if spec["arrival"]["target_period"] is None
                            else float(spec["arrival"]["target_period"])
                        ),
                        app_kind=str(spec["arrival"]["app_kind"]),
                    ),
                )
                for spec in payload["pending"]
            ]
            records = [EventRecord.from_dict(r) for r in payload["records"]]
            assignment = {
                str(task): int(pe)
                for task, pe in payload["assignment"].items()
            }
            failed = {int(spe) for spe in payload["failed_spes"]}
            degraded = bool(payload["degraded"])
            retry_seq = int(payload["retry_seq"])
            time = float(payload["time"])
            pert_spec = payload["perturbation"]
            perturbation = None
            if pert_spec is not None:
                perturbation = _ActivePerturbation(
                    event=CostPerturbation(
                        time=float(pert_spec["time"]),
                        compute_scale=float(pert_spec["compute_scale"]),
                        bw_scale=float(pert_spec["bw_scale"]),
                    ),
                    base_platform=base,
                    saved={
                        str(entry["name"]): graph_io.from_dict(entry["graph"])
                        for entry in pert_spec["saved"]
                    },
                )
        except OnlineSchedulingError:
            raise
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            raise OnlineSchedulingError(
                f"malformed scheduler state payload: {exc}"
            ) from exc
        for spe in failed:
            if not 0 <= spe < base.n_pes or not base.is_spe(spe):
                raise OnlineSchedulingError(
                    f"state payload fails PE {spe!r}, which is not an SPE "
                    f"of {base.name}"
                )
        self.workload = workload
        self._failed = failed
        self._degraded = degraded
        self._retry_seq = retry_seq
        self._pending = pending
        self._records = records
        self._record_json = []
        self._time = time
        self._perturbation = perturbation
        if perturbation is None:
            self.platform = base
        else:
            event = perturbation.event
            self.platform = replace(
                base,
                bw=base.bw * event.bw_scale,
                eib_bw=base.eib_bw * event.bw_scale,
                bif_bw=base.bif_bw * event.bw_scale,
            )
        self._t0 = None
        try:
            state = self._rebuild(assignment)
        except KeyError as exc:
            raise OnlineSchedulingError(
                f"state payload assignment is missing task {exc}"
            ) from None
        self._commit(state)

    # ------------------------------------------------------------------ #
    # Event consumption

    def run(self, events: Sequence[Event]) -> RuntimeReport:
        """Consume a whole timeline and return the report."""
        for event in validate_timeline(events):
            self.process(event)
        return self.report()

    def process(self, event: Event) -> EventRecord:
        """Consume one event; returns its outcome record.

        Deferred-admission retries that fell due before ``event.time``
        fire first (in due order, each recorded at its own due time),
        so the record stream stays time-monotone.
        """
        if event.time < self._time:
            raise OnlineSchedulingError(
                f"event at t={event.time:g} arrives after the scheduler "
                f"reached t={self._time:g}; feed events in time order"
            )
        self._drain_retries(event.time)
        self._time = event.time
        self._t0 = (
            perf_counter()
            if _metrics.REGISTRY is not None or _tracing.TRACER is not None
            else None
        )
        with _tracing.span(
            "runtime:" + event.event_type, subject=event.subject
        ):
            if isinstance(event, AppArrival):
                return self._on_arrival(event)
            if isinstance(event, AppDeparture):
                return self._on_departure(event)
            if isinstance(event, SpeFailure):
                return self._on_failure(event)
            if isinstance(event, SpeRecovery):
                return self._on_recovery(event)
            if isinstance(event, CostPerturbation):
                return self._on_perturb(event)
            if isinstance(event, CostRestore):
                return self._on_restore(event)
            raise OnlineSchedulingError(f"unknown event {event!r}")

    def _drain_retries(self, upto: float) -> None:
        """Fire every queued retry due at or before ``upto``, in due order."""
        while self._pending:
            self._pending.sort(key=lambda p: (p.due, p.seq))
            head = self._pending[0]
            if head.due > upto:
                break
            self._pending.pop(0)
            self._time = head.due  # due > its rejection time: monotone
            self._t0 = (
                perf_counter()
                if _metrics.REGISTRY is not None
                or _tracing.TRACER is not None
                else None
            )
            with _tracing.span("runtime:retry", subject=head.event.name):
                self._on_arrival(
                    replace(head.event, time=head.due),
                    attempt=head.attempt,
                    kind="retry",
                )

    # ------------------------------------------------------------------ #
    # Shared machinery

    def _make_state(self, mapping: Mapping) -> DeltaAnalyzer:
        # Pass the selection explicitly so no analyzer re-reads
        # REPRO_KERNEL_BACKEND: every one runs on the reported kernel.
        return DeltaAnalyzer(
            mapping,
            elide_local_comm=self.elide_local_comm,
            merge_same_pe_buffers=self.merge_same_pe_buffers,
            backend="python" if self._kernel_backend == "python" else "auto",
        )

    def _live_pes(self) -> List[int]:
        """All PPEs plus the SPEs currently in service."""
        return [
            pe
            for pe in range(self.platform.n_pes)
            if not (self.platform.is_spe(pe) and pe in self._failed)
        ]

    def _target_cap(self) -> float:
        """The tightest declared target among resident applications."""
        targets = [
            app.target_period
            for app in self.workload
            if app.target_period is not None
        ]
        return min(targets) if targets else math.inf

    def _violated_targets(self, state: DeltaAnalyzer) -> List[str]:
        """Resident apps whose declared target the shared period misses."""
        period = state.period()
        return [
            app.name
            for app in self.workload
            if app.target_period is not None and period > app.target_period
        ]

    def _ok(self, state: DeltaAnalyzer) -> bool:
        """The committed-state gate: what every event must restore.

        Hard feasibility always; declared QoS targets only outside
        brownout (degraded mode is weighted best-effort by design).
        """
        if not state.feasible:
            return False
        return self._degraded or not self._violated_targets(state)

    def _live_spe_fraction(self) -> float:
        """Fraction of the platform's SPEs currently in service."""
        total = self.platform.n_spe
        if not total:
            return 1.0
        return (total - len(self._failed)) / total

    def _update_degraded(self) -> Tuple[bool, bool]:
        """Refresh brownout mode from live capacity; returns (was, now)."""
        was = self._degraded
        self._degraded = self._live_spe_fraction() < self.brownout_threshold
        return was, self._degraded

    def _enforce(
        self, state: Optional[DeltaAnalyzer]
    ) -> Tuple[Optional[DeltaAnalyzer], int, List[str]]:
        """Repair-then-shed until the committed gate passes.

        Budgeted remapping first; when that is not enough, the shed
        policy picks a victim, the victim is dropped, and the loop
        repeats on the rebuilt state.  Returns the surviving state
        (``None`` when everything was shed), the migrations spent and
        the victims in drop order.
        """
        migrations = 0
        dropped: List[str] = []
        while state is not None and not self._ok(state):
            migrations += self._reoptimize(
                state, self._obj, self.migration_budget
            )
            if self._ok(state):
                break
            victim = SHED_POLICIES[self.shed_policy](self, state)
            self.workload.remove_app(victim)
            if self._perturbation is not None:
                self._perturbation.saved.pop(victim, None)
            dropped.append(victim)
            state = self._rebuild(state.assignment())
        return state, migrations, dropped

    def _insert_tasks(self, state: DeltaAnalyzer, tasks: Sequence[str], obj) -> None:
        """Greedy delta-scored placement of ``tasks``, one at a time.

        Each task's live-PE candidates go through one
        :meth:`~DeltaAnalyzer.best_move` neighbourhood scan (shared
        precomputation on the delta engine, O(deg + n_live) per task
        instead of a delta per candidate); the task moves to the live PE
        minimising ``(objective value, period)`` over the feasible
        candidates, staying put on ties.
        """
        live = self._live_pes()
        for name in tasks:
            found = state.best_move([name], live, obj)
            if found is not None:
                state.apply_move(found[0], found[1])

    def _reoptimize(self, state: DeltaAnalyzer, obj, budget: int) -> int:
        """Budgeted steepest-descent remapping on the live PEs.

        Delegates to :func:`repro.heuristics.budgeted_descent`: each
        applied move is one task migration, moves stay hard-feasible and
        never push the shared period past the tightest resident target
        (unless the state is already past it — the failure-repair
        descent).  Returns the number of migrations performed.
        """
        return budgeted_descent(
            state,
            objective=obj,
            budget=budget,
            pes=self._live_pes(),
            period_cap=self._target_cap(),
        )

    def _rebuild(self, assign: Dict[str, int]) -> Optional[DeltaAnalyzer]:
        """A fresh state over the current workload's composite.

        ``assign`` provides the PEs of every surviving task (extra
        entries — departed or dropped apps — are ignored).  Also refreshes
        the cached objective, which is composite-bound.
        """
        if not len(self.workload):
            self._obj = None
            return None
        composite = self.workload.compile()
        surviving = {t: assign[t] for t in composite.task_names()}
        self._obj = make_objective(self.objective, composite)
        return self._make_state(Mapping(composite, self.platform, surviving))

    def _commit(self, state: Optional[DeltaAnalyzer]) -> None:
        if state is not None:
            state.resync()  # re-anchor: snapshot == fresh analyze, bit for bit
        self._state = state
        self._assign = state.assignment() if state is not None else {}

    def _record(
        self,
        event: Event,
        accepted: Optional[bool] = None,
        reason: str = "",
        migrations: int = 0,
        dropped: Tuple[str, ...] = (),
        kind: Optional[str] = None,
    ) -> EventRecord:
        state = self._state
        if state is None:
            period, value, feasible = 0.0, 0.0, True
            misses = 0
            app_periods: Tuple[Tuple[str, float], ...] = ()
        else:
            score = state.evaluate(self._obj)
            period, value, feasible = score.period, score.value, score.feasible
            misses = len(self._violated_targets(state))
            app_periods = tuple(sorted(state.app_periods().items()))
        latency = 0.0
        if self._t0 is not None:
            latency = perf_counter() - self._t0
            self._t0 = None
        record = EventRecord(
            seq=len(self._records),
            time=event.time,
            event=kind or event.event_type,
            subject=event.subject,
            accepted=accepted,
            reason=reason,
            migrations=migrations,
            dropped=dropped,
            period=period,
            value=value,
            feasible=feasible,
            n_apps=len(self.workload),
            n_tasks=len(self._assign),
            degraded=self._degraded,
            target_misses=misses,
            app_periods=app_periods,
            decision_latency=latency,
        )
        self._records.append(record)
        reg = _metrics.REGISTRY
        if reg is not None:
            if accepted is True:
                reg.inc("admissions.accepted")
            elif accepted is False:
                reg.inc("admissions.rejected")
            if dropped:
                reg.inc("admissions.shed", len(dropped))
            if reason in ("brownout-enter", "brownout-exit"):
                reg.inc("brownout_transitions")
            reg.set_gauge("retry_queue_depth", float(len(self._pending)))
            if latency > 0.0:
                if record.event in ("arrival", "retry"):
                    reg.observe("admission_latency", latency)
                elif record.event == "failure":
                    reg.observe("evacuation_latency", latency)
                else:
                    reg.observe("repair_latency", latency)
        if _LOG.isEnabledFor(logging.INFO):
            _LOG.info(
                "t=%g %s %s: %s",
                record.time,
                record.event,
                record.subject,
                reason
                or ("accepted" if accepted else "ok"),
                extra={
                    "event_kind": record.event,
                    "subject": record.subject,
                    "accepted": record.accepted,
                    "period": record.period,
                    "n_apps": record.n_apps,
                    "migrations": record.migrations,
                    "dropped": list(record.dropped),
                    "degraded": record.degraded,
                },
            )
        return record

    # ------------------------------------------------------------------ #
    # Event handlers

    def _maybe_retry(self, event: AppArrival, attempt: int, reason: str) -> str:
        """Queue the next deferred-admission attempt; returns the reason.

        ``attempt`` is how many attempts have now failed; the next one
        fires ``retry_backoff · 2^(attempt-1)`` after this rejection
        (strictly later than now — the retry records stay monotone).
        """
        if not self.retry_limit or attempt > self.retry_limit:
            return reason
        due = self._time + self.retry_backoff * (2.0 ** (attempt - 1))
        self._pending.append(
            _PendingRetry(
                due=due, seq=self._retry_seq, event=event, attempt=attempt + 1
            )
        )
        self._retry_seq += 1
        return reason + ";retry-queued"

    def _on_arrival(
        self,
        event: AppArrival,
        attempt: int = 1,
        kind: Optional[str] = None,
    ) -> EventRecord:
        if event.name in self.workload:
            return self._record(
                event, accepted=False, reason="duplicate-name", kind=kind
            )
        graph = event.graph
        if self._perturbation is not None:
            # Admission under an open window sees the stressed costs; the
            # original graph is saved on admission so restore is exact.
            graph = graph.scaled(self._perturbation.event.compute_scale)
        self.workload.add_app(
            event.name,
            graph,
            weight=event.weight,
            target_period=event.target_period,
        )
        composite = self.workload.compile()
        obj = make_objective(self.objective, composite)
        new_tasks = list(composite.app_tasks[event.name])

        # One analyzer build over the new composite (new tasks parked on
        # the PPE haven keep it exactly as feasible as the committed
        # state), then a clone per insertion order — candidate placements
        # are delta-scored, never re-analysed.
        assign = dict(self._assign)
        for task in new_tasks:
            assign[task] = self._haven
        base = self._make_state(Mapping(composite, self.platform, assign))
        heaviest_first = sorted(  # heaviest-first (SPE cost), name-stable
            new_tasks,
            key=lambda t: (-composite.task(t).wspe, t),
        )
        orders = (
            (new_tasks,)  # member order; skip an identical second pass
            if heaviest_first == new_tasks
            else (new_tasks, heaviest_first)
        )
        best_state: Optional[DeltaAnalyzer] = None
        best_key = None
        for order in orders:
            trial = base.clone()
            self._insert_tasks(trial, order, obj)
            score = trial.evaluate(obj)
            key = (not trial.feasible, score.value, score.period)
            if best_key is None or key < best_key:
                best_state, best_key = trial, key
        assert best_state is not None

        if not best_state.feasible:
            self.workload.remove_app(event.name)
            return self._record(
                event,
                accepted=False,
                reason=self._maybe_retry(event, attempt, "infeasible"),
                kind=kind,
            )
        migrations = 0
        # Brownout admission is weighted best-effort: feasibility only.
        violated = [] if self._degraded else self._violated_targets(best_state)
        if violated:
            # Pure insertion missed a target: try remapping resident
            # tasks too, within the migration budget, before giving up.
            migrations = self._reoptimize(
                best_state, obj, self.migration_budget
            )
            violated = self._violated_targets(best_state)
        if violated:
            self.workload.remove_app(event.name)
            return self._record(
                event,
                accepted=False,
                reason=self._maybe_retry(
                    event, attempt, "target-missed:" + ",".join(violated)
                ),
                kind=kind,
            )
        if self._perturbation is not None:
            self._perturbation.saved[event.name] = event.graph
        self._obj = obj
        self._commit(best_state)
        return self._record(
            event, accepted=True, migrations=migrations, kind=kind
        )

    def _on_departure(self, event: AppDeparture) -> EventRecord:
        if event.name not in self.workload:
            if any(p.event.name == event.name for p in self._pending):
                # The stream ended while its admission was still queued:
                # retrying it would admit a departed application.
                self._pending = [
                    p for p in self._pending if p.event.name != event.name
                ]
                return self._record(event, reason="retry-cancelled")
            # Rejected at arrival or dropped after a failure: a no-op.
            return self._record(event, reason="not-resident")
        self.workload.remove_app(event.name)
        if self._perturbation is not None:
            self._perturbation.saved.pop(event.name, None)
        state = self._rebuild(self._assign)
        migrations = 0
        if state is not None:
            migrations = self._reoptimize(
                state, self._obj, self.migration_budget
            )
        self._commit(state)
        return self._record(event, migrations=migrations)

    def _on_failure(self, event: SpeFailure) -> EventRecord:
        spe = event.spe
        if not 0 <= spe < self.platform.n_pes or not self.platform.is_spe(spe):
            raise OnlineSchedulingError(
                f"cannot fail PE {spe!r}: not an SPE of {self.platform.name}"
            )
        if spe in self._failed:
            raise OnlineSchedulingError(
                f"SPE {spe} is already failed (no recovery seen since)"
            )
        self._failed.add(spe)
        was, now = self._update_degraded()
        reason = "brownout-enter" if now and not was else ""
        state = self._state
        migrations = 0
        dropped: List[str] = []
        if state is not None:
            # The evacuation list comes from the engine's per-PE
            # membership sets — O(tasks on the dead SPE), not an O(V)
            # scan over the whole composite.
            evacuees = state.tasks_on(spe)
            if evacuees:
                # Bulk move to the PPE haven: always hard-feasible, and
                # cannot raise any surviving SPE's constraint counts.
                state.apply_changes({task: self._haven for task in evacuees})
                migrations += len(evacuees)
                self._insert_tasks(state, evacuees, self._obj)
            # Shed load until the shrunken platform passes the gate
            # again: budgeted repair first, policy-picked drops when
            # repair is not enough.
            state, migrations_, dropped = self._enforce(state)
            migrations += migrations_
            self._commit(state)
        return self._record(
            event, migrations=migrations, dropped=tuple(dropped),
            reason=reason,
        )

    def _on_recovery(self, event: SpeRecovery) -> EventRecord:
        spe = event.spe
        if spe not in self._failed:
            raise OnlineSchedulingError(
                f"SPE {spe!r} is not failed; cannot recover it"
            )
        self._failed.discard(spe)
        was, now = self._update_degraded()
        reason = "brownout-exit" if was and not now else ""
        migrations = 0
        dropped: Tuple[str, ...] = ()
        state = self._state
        if state is not None:
            migrations = self._reoptimize(
                state, self._obj, self.migration_budget
            )
            if was and not now:
                # Leaving brownout: the full QoS gate applies again —
                # repair, then shed by policy, until targets are met.
                state, migrations_, dropped_ = self._enforce(state)
                migrations += migrations_
                dropped = tuple(dropped_)
            self._commit(state)
        return self._record(
            event, migrations=migrations, dropped=dropped, reason=reason
        )

    def _on_perturb(self, event: CostPerturbation) -> EventRecord:
        if self._perturbation is not None:
            raise OnlineSchedulingError(
                "a perturbation window is already open; restore costs "
                "before opening another"
            )
        self._perturbation = _ActivePerturbation(
            event=event,
            base_platform=self.platform,
            saved={app.name: app.graph for app in self.workload},
        )
        # Bandwidth degradation scales every link rate of the platform
        # copy; compute slowdown scales each member graph's task costs.
        self.platform = replace(
            self.platform,
            bw=self.platform.bw * event.bw_scale,
            eib_bw=self.platform.eib_bw * event.bw_scale,
            bif_bw=self.platform.bif_bw * event.bw_scale,
        )
        migrations = 0
        dropped: List[str] = []
        if len(self.workload):
            for name, graph in self._perturbation.saved.items():
                self.workload.replace_graph(
                    name, graph.scaled(event.compute_scale)
                )
            state = self._rebuild(self._assign)
            state, migrations, dropped = self._enforce(state)
            self._commit(state)
        return self._record(
            event, migrations=migrations, dropped=tuple(dropped)
        )

    def _on_restore(self, event: CostRestore) -> EventRecord:
        pert = self._perturbation
        if pert is None:
            raise OnlineSchedulingError(
                "no perturbation window is open; nothing to restore"
            )
        self._perturbation = None
        self.platform = pert.base_platform  # the very object: exact restore
        migrations = 0
        dropped: List[str] = []
        if len(self.workload):
            for name, graph in pert.saved.items():
                if name in self.workload:
                    self.workload.replace_graph(name, graph)
            state = self._rebuild(self._assign)
            state, migrations, dropped = self._enforce(state)
            self._commit(state)
        return self._record(
            event, migrations=migrations, dropped=tuple(dropped)
        )
