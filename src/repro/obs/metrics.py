"""Process-local metrics registry: counters, gauges, histograms.

Instrumentation across the delta kernels, the metaheuristics and the
online runtime funnels into one :class:`MetricsRegistry` per process.
The design contract, enforced by ``tests/test_obs.py`` and the nightly
overhead guard in ``benchmarks/bench_kernel.py``:

* **Disabled ≈ free.**  The registry is off by default; every
  instrumented hot path reads the module global :data:`REGISTRY` once
  and branches on ``None`` — no object allocation, no dict lookup, no
  call.  Enable with :func:`enable` (or ``REPRO_METRICS=1`` in the
  environment, read at import).
* **Passive.**  Recording a counter or a latency sample never consumes
  randomness, never touches float state of the thing being measured —
  enabling metrics cannot change a mapping, a seeded strategy's
  decisions, or ``snapshot()``/``analyze()`` bit-identity.
* **Mergeable.**  :meth:`MetricsRegistry.snapshot` is a plain picklable
  dict and :meth:`MetricsRegistry.merge` folds one snapshot into
  another, so ``experiments/parallel`` sweep workers ship their
  registries back to the parent (see
  :func:`repro.experiments.parallel.run_sweep_telemetry`) and the
  parent reports a single merged view.  Counter totals and histogram
  *counts* are deterministic (they count decisions, not wall time), so
  serial == parallel extends to telemetry; histogram bucket
  distributions and sums record wall-clock latencies and are the only
  non-deterministic entries.

Named metrics (the fixed vocabulary the instrumented layers emit):

================================  ============================================
``moves_scored``                  single-task move candidates scored
``swaps_scored``                  task-pair swap candidates scored
``candidates_ranked``             two-phase selection: candidates ranked
``candidates_confirmed``          two-phase selection: exact re-scorings
``bulk_changes``                  bulk change-sets / assignments scored
``resyncs``                       O(V+E) state re-anchors
``backend_dispatches.<name>``     analyzer constructions per kernel backend
``clone_pool_hits/misses``        ClonePool free-list recycles vs fresh clones
``compile.blocks_built``          workload per-app blocks compiled
``compile.composites_assembled``  composite compiles served from blocks
``admissions.<verdict>``          online admissions: accepted|rejected|shed
``retry_queue_depth``             gauge: deferred-admission queue depth
``brownout_transitions``          brownout mode enters + exits
``admission_latency``             histogram: per-arrival decision seconds
``repair_latency``                histogram: departure/recovery/perturb events
``evacuation_latency``            histogram: failure-evacuation events
================================  ============================================
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "LATENCY_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "active",
    "disable",
    "enable",
    "enabled",
]

#: Fixed latency buckets (seconds): 10 µs … 10 s in decade-thirds, the
#: range spanning a single kernel sweep up to a full re-optimisation
#: pass.  Fixed (not adaptive) so merged histograms from different
#: workers are bucket-compatible by construction.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0,
)


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max sidecars.

    ``buckets`` are upper bounds; a sample lands in the first bucket
    whose bound is >= the value, or in the overflow slot past the last
    bound.  ``count`` is deterministic for deterministic workloads
    (it counts observations); ``sum``/``min``/``max`` and the bucket
    distribution record wall-clock values.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        self.buckets: Tuple[float, ...] = tuple(buckets)
        if list(self.buckets) != sorted(self.buckets) or not self.buckets:
            raise ValueError(
                f"histogram buckets must be sorted and non-empty "
                f"(got {buckets!r})"
            )
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile by interpolation inside buckets.

        The estimate interpolates linearly within the bucket holding
        the ``q``-th sample (bucket lower bound → upper bound), then
        clamps to the exact ``min``/``max`` sidecars so the extremes
        never overshoot the observed range.  0.0 for an empty
        histogram.  This is the service experiment's p50/p99 source —
        deterministic given the bucket counts, which are themselves
        deterministic only for deterministic workloads (latency buckets
        are wall-clock).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be within [0, 1] (got {q!r})")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for i, bound in enumerate(self.buckets):
            if self.counts[i] and cumulative + self.counts[i] >= rank:
                fraction = (rank - cumulative) / self.counts[i]
                value = lower + fraction * (bound - lower)
                return min(max(value, self.min), self.max)
            cumulative += self.counts[i]
            lower = bound
        return self.max

    def to_dict(self) -> Dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }


class MetricsRegistry:
    """One process's metric state: plain dicts, no locks, no threads.

    All instrumented layers run single-threaded per process (the sweep
    runner fans across *processes*), so increments are plain ``+=`` on
    dict slots — the cheapest thing Python can do per sample.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -------------------------------------------------------------- #
    # Recording

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # -------------------------------------------------------------- #
    # Snapshot / merge (the sweep-worker shipping protocol)

    def snapshot(self) -> Dict:
        """The registry as a plain picklable/JSON-able dict."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.to_dict()
                for name, hist in self.histograms.items()
            },
        }

    def merge(self, snapshot: Dict) -> "MetricsRegistry":
        """Fold one :meth:`snapshot` into this registry, in place.

        Counters and histogram counts/sums add; gauges keep the last
        merged value (they are point-in-time readings); min/max widen.
        Histograms merge bucket-by-bucket — every producer uses the
        same fixed bounds, and mismatched bounds raise rather than
        silently misfile samples.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, payload in snapshot.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram(payload["buckets"])
            if list(hist.buckets) != list(payload["buckets"]):
                raise ValueError(
                    f"histogram {name!r} bucket mismatch on merge: "
                    f"{hist.buckets} vs {payload['buckets']}"
                )
            for i, c in enumerate(payload["counts"]):
                hist.counts[i] += c
            hist.count += payload["count"]
            hist.sum += payload["sum"]
            if payload["count"]:
                hist.min = min(hist.min, payload["min"])
                hist.max = max(hist.max, payload["max"])
        return self

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry({len(self.counters)} counters, "
            f"{len(self.gauges)} gauges, "
            f"{len(self.histograms)} histograms)"
        )


#: The active registry, or ``None`` when metrics are disabled.  Hot
#: paths read this module global directly (via :func:`active` at the
#: boundary layers, or ``metrics.REGISTRY`` where the extra call would
#: show up) — when ``None``, instrumentation is a load + branch.
REGISTRY: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    """The enabled registry, or ``None`` — the instrumentation gate."""
    return REGISTRY


def enabled() -> bool:
    return REGISTRY is not None


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) the process's active registry.

    Idempotent without arguments: re-enabling keeps the existing
    registry and its counts.  Passing ``registry`` installs that
    instance (the sweep wrapper uses this to give each point a fresh
    one).
    """
    global REGISTRY
    if registry is not None:
        REGISTRY = registry
    elif REGISTRY is None:
        REGISTRY = MetricsRegistry()
    return REGISTRY


def disable() -> None:
    """Drop the active registry; instrumentation reverts to no-ops."""
    global REGISTRY
    REGISTRY = None


if os.environ.get("REPRO_METRICS", "").lower() not in ("", "0", "false"):
    enable()
