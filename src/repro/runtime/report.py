"""Runtime timeline reporting: one record per consumed event.

:class:`RuntimeReport` is the audit trail of an
:class:`~repro.runtime.scheduler.OnlineScheduler` run — what arrived,
what was admitted or rejected (and why), how many tasks migrated, which
applications were dropped after a failure, and the post-event period and
objective value.  It is a plain-data object: JSON round-trippable
(:meth:`RuntimeReport.to_json` / :meth:`RuntimeReport.from_json`) so a
run can be archived and replayed/diffed without re-executing the
scheduler, and the aggregate metrics the online experiment sweeps
(acceptance rate, mean period, migration count) are derived properties.

Duration-weighted aggregates follow the runtime's **interval
semantics** (the contract in :mod:`repro.runtime.faults`): record ``i``
describes the committed state over ``[t_i, t_{i+1})``, so time-in-
degraded-mode, the QoS violation rate and availability integrate each
record's flags over the gap to the *next* record — the final record
extends to its own time and contributes zero measure.  Event-count
aggregates (acceptance rate, shed/retry counts) are dt-invariant;
duration aggregates are exactly the ones that are not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import OnlineSchedulingError

__all__ = ["EventRecord", "RuntimeReport"]


@dataclass(frozen=True)
class EventRecord:
    """Outcome of one timeline event.

    ``accepted`` is three-valued: ``True``/``False`` for arrivals (and
    deferred-admission ``retry`` attempts), ``None`` for every other
    event kind.  ``period``/``value``/``feasible`` describe the
    committed post-event state (0.0/0.0/True when no application is
    resident).  ``degraded`` flags brownout mode, ``target_misses``
    counts resident applications whose declared QoS target the shared
    period misses (only non-zero in degraded mode — full-service states
    always meet every target), and ``app_periods`` carries the per-app
    periods of the committed state for quantile aggregation.

    ``decision_latency`` is the wall-clock seconds the scheduler spent
    deciding this event, measured only while instrumentation is on
    (:mod:`repro.obs`) and 0.0 otherwise.  It is telemetry, not state:
    ``compare=False`` keeps it out of record equality, so two runs of
    the same seed compare equal record for record whether or not either
    was instrumented.
    """

    seq: int
    time: float
    event: str  # "arrival" | "departure" | "failure" | "recovery"
    #          # | "perturb" | "restore" | "retry"
    subject: str  # application name or PE name
    accepted: Optional[bool]
    reason: str  # rejection reason or informational note
    migrations: int
    dropped: Tuple[str, ...]
    period: float
    value: float
    feasible: bool
    n_apps: int
    n_tasks: int
    degraded: bool = False
    target_misses: int = 0
    app_periods: Tuple[Tuple[str, float], ...] = ()
    decision_latency: float = field(default=0.0, compare=False)

    def to_dict(self) -> Dict:
        # Built directly, in field order: checkpoints serialize every
        # past record, and ``dataclasses.asdict`` would deep-copy each.
        return {
            "seq": self.seq,
            "time": self.time,
            "event": self.event,
            "subject": self.subject,
            "accepted": self.accepted,
            "reason": self.reason,
            "migrations": self.migrations,
            "dropped": list(self.dropped),
            "period": self.period,
            "value": self.value,
            "feasible": self.feasible,
            "n_apps": self.n_apps,
            "n_tasks": self.n_tasks,
            "degraded": self.degraded,
            "target_misses": self.target_misses,
            "app_periods": [[name, period] for name, period in self.app_periods],
            "decision_latency": self.decision_latency,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "EventRecord":
        try:
            return cls(
                seq=int(payload["seq"]),
                time=float(payload["time"]),
                event=str(payload["event"]),
                subject=str(payload["subject"]),
                accepted=(
                    None
                    if payload["accepted"] is None
                    else bool(payload["accepted"])
                ),
                reason=str(payload["reason"]),
                migrations=int(payload["migrations"]),
                dropped=tuple(payload["dropped"]),
                period=float(payload["period"]),
                value=float(payload["value"]),
                feasible=bool(payload["feasible"]),
                n_apps=int(payload["n_apps"]),
                n_tasks=int(payload["n_tasks"]),
                # Robustness fields: absent in pre-fault-injection
                # archives, which load with the benign defaults.
                degraded=bool(payload.get("degraded", False)),
                target_misses=int(payload.get("target_misses", 0)),
                app_periods=tuple(
                    (str(name), float(period))
                    for name, period in payload.get("app_periods", [])
                ),
                # Telemetry field: absent in pre-instrumentation (PR 6)
                # archives, which load with no latency recorded.
                decision_latency=float(payload.get("decision_latency", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise OnlineSchedulingError(
                f"malformed event record payload: {exc}"
            ) from exc


@dataclass(frozen=True)
class RuntimeReport:
    """The full, ordered timeline of one online scheduling run."""

    platform: str
    objective: str
    migration_budget: int
    records: List[EventRecord] = field(default_factory=list)
    #: Resolved kernel label of the run's evaluation engine
    #: ("python" | "numpy" | "cython").  "" in archives predating the
    #: field.
    kernel_backend: str = ""

    # ------------------------------------------------------------------ #
    # Aggregates (the online experiment's figure axes)

    @property
    def n_events(self) -> int:
        return len(self.records)

    @property
    def n_arrivals(self) -> int:
        return sum(1 for r in self.records if r.event == "arrival")

    @property
    def n_accepted(self) -> int:
        return sum(1 for r in self.records if r.accepted is True)

    @property
    def acceptance_rate(self) -> float:
        """Admitted arrivals over all arrivals (1.0 when none arrived)."""
        arrivals = self.n_arrivals
        return self.n_accepted / arrivals if arrivals else 1.0

    @property
    def mean_period(self) -> float:
        """Mean post-event shared period over the non-idle states."""
        busy = [r.period for r in self.records if r.n_apps > 0]
        return sum(busy) / len(busy) if busy else 0.0

    @property
    def total_migrations(self) -> int:
        return sum(r.migrations for r in self.records)

    @property
    def dropped_apps(self) -> Tuple[str, ...]:
        """Applications dropped by failure handling, in drop order."""
        out: List[str] = []
        for record in self.records:
            out.extend(record.dropped)
        return tuple(out)

    @property
    def all_feasible(self) -> bool:
        return all(r.feasible for r in self.records)

    # ------------------------------------------------------------------ #
    # Robustness metrics (duration-weighted ones use interval semantics)

    @staticmethod
    def _quantile(values: List[float], q: float) -> float:
        """Linear-interpolation quantile of ``values`` (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise OnlineSchedulingError(
                f"quantile must be within [0, 1] (got {q!r})"
            )
        if not values:
            return 0.0
        ordered = sorted(values)
        rank = q * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])

    def period_quantile(self, q: float) -> float:
        """Quantile of the post-event shared period over non-idle states."""
        return self._quantile(
            [r.period for r in self.records if r.n_apps > 0], q
        )

    @property
    def period_p50(self) -> float:
        return self.period_quantile(0.5)

    @property
    def period_p99(self) -> float:
        return self.period_quantile(0.99)

    def app_period_quantiles(
        self, q: float = 0.5
    ) -> Dict[str, float]:
        """Per-application period quantile over the states it was resident.

        Aggregates each record's ``app_periods`` (the per-app period of
        the committed state), so an application's tail latency is
        visible even when the shared period is dominated by others.
        """
        samples: Dict[str, List[float]] = {}
        for record in self.records:
            for name, period in record.app_periods:
                samples.setdefault(name, []).append(period)
        return {
            name: self._quantile(values, q)
            for name, values in samples.items()
        }

    def _span_where(self, flag) -> float:
        """Total duration of intervals whose *leading* record sets ``flag``.

        Interval semantics: record ``i`` rules ``[t_i, t_{i+1})``; the
        final record contributes zero measure.
        """
        return sum(
            self.records[i + 1].time - self.records[i].time
            for i in range(len(self.records) - 1)
            if flag(self.records[i])
        )

    @property
    def span(self) -> float:
        """Wall-clock extent of the run (first to last record)."""
        if len(self.records) < 2:
            return 0.0
        return self.records[-1].time - self.records[0].time

    @property
    def time_in_degraded(self) -> float:
        """Total wall-clock time spent in brownout (degraded) mode."""
        return self._span_where(lambda r: r.degraded)

    @property
    def degraded_fraction(self) -> float:
        """Degraded time over the run's span (0.0 for degenerate spans)."""
        span = self.span
        return self.time_in_degraded / span if span else 0.0

    @property
    def qos_violation_rate(self) -> float:
        """Fraction of the span with at least one missed QoS target."""
        span = self.span
        if not span:
            return 0.0
        return self._span_where(lambda r: r.target_misses > 0) / span

    @property
    def availability(self) -> float:
        """Fraction of the span at full service.

        Full service = not in brownout and every resident QoS target
        met; the complement is the degraded-or-violating measure.  1.0
        for degenerate spans (nothing happened, nothing was missed).
        """
        span = self.span
        if not span:
            return 1.0
        lost = self._span_where(lambda r: r.degraded or r.target_misses > 0)
        return 1.0 - lost / span

    @property
    def shed_count(self) -> int:
        """Applications shed (dropped) by degradation handling."""
        return len(self.dropped_apps)

    @property
    def n_retries(self) -> int:
        """Deferred-admission retry attempts fired from the queue."""
        return sum(1 for r in self.records if r.event == "retry")

    @property
    def n_retry_admitted(self) -> int:
        return sum(
            1
            for r in self.records
            if r.event == "retry" and r.accepted is True
        )

    @property
    def mean_decision_latency(self) -> float:
        """Mean recorded per-event decision seconds (0.0 uninstrumented)."""
        samples = [
            r.decision_latency
            for r in self.records
            if r.decision_latency > 0.0
        ]
        return sum(samples) / len(samples) if samples else 0.0

    @property
    def mean_admission_latency(self) -> float:
        """Mean decision seconds over arrival/retry events.

        Non-zero only for instrumented runs (``repro.obs`` metrics or
        tracing enabled while the scheduler ran) — the online sweep's
        admission-latency column.
        """
        samples = [
            r.decision_latency
            for r in self.records
            if r.event in ("arrival", "retry") and r.decision_latency > 0.0
        ]
        return sum(samples) / len(samples) if samples else 0.0

    # ------------------------------------------------------------------ #
    # Serialization (replay/diff without re-running the scheduler)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(
            {
                "platform": self.platform,
                "objective": self.objective,
                "migration_budget": self.migration_budget,
                "kernel_backend": self.kernel_backend,
                "records": [r.to_dict() for r in self.records],
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "RuntimeReport":
        try:
            payload = json.loads(text)
            records = [
                EventRecord.from_dict(entry) for entry in payload["records"]
            ]
            return cls(
                platform=str(payload["platform"]),
                objective=str(payload["objective"]),
                migration_budget=int(payload["migration_budget"]),
                records=records,
                # Absent in archives predating backend surfacing.
                kernel_backend=str(payload.get("kernel_backend", "")),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise OnlineSchedulingError(
                f"malformed runtime report payload: {exc}"
            ) from exc

    # ------------------------------------------------------------------ #

    def table(self) -> str:
        """Human-readable timeline (CLI/notebook friendly)."""
        engine = (
            f", kernel: {self.kernel_backend}" if self.kernel_backend else ""
        )
        rows = [
            f"Online run on {self.platform} [objective: {self.objective}, "
            f"migration budget: {self.migration_budget}{engine}]",
            "  seq      time  event      subject              outcome      "
            "migr    period  apps",
        ]
        for r in self.records:
            if r.accepted is True:
                outcome = "admitted"
            elif r.accepted is False:
                outcome = "rejected"
            else:
                outcome = "-"
            detail = f" ({r.reason})" if r.reason else ""
            drop = f" drop:{','.join(r.dropped)}" if r.dropped else ""
            mode = " [degraded]" if r.degraded else ""
            rows.append(
                f"  {r.seq:3d}  {r.time:8.1f}  {r.event:<9}  "
                f"{r.subject:<19}  {outcome:<9}  {r.migrations:4d}  "
                f"{r.period:8.2f}  {r.n_apps:4d}{mode}{detail}{drop}"
            )
        rows.append(
            f"  => acceptance {self.n_accepted}/{self.n_arrivals} "
            f"({100.0 * self.acceptance_rate:.0f}%), "
            f"mean period {self.mean_period:.2f} µs, "
            f"{self.total_migrations} migrations, "
            f"{len(self.dropped_apps)} dropped"
        )
        rows.append(
            f"  => robustness: period p50/p99 {self.period_p50:.2f}/"
            f"{self.period_p99:.2f} µs, QoS violation rate "
            f"{100.0 * self.qos_violation_rate:.0f}%, degraded "
            f"{100.0 * self.degraded_fraction:.0f}% of span, availability "
            f"{100.0 * self.availability:.0f}%, {self.shed_count} shed, "
            f"{self.n_retry_admitted}/{self.n_retries} retries admitted"
        )
        return "\n".join(rows)
