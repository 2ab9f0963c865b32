"""Helpers shared by the workloads: statistics, checks, run environment."""

from __future__ import annotations

import math
import os
import platform
import resource
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Sequence

import numpy

__all__ = [
    "CheckFailed",
    "Outcome",
    "PROBE_REFERENCE_S",
    "Speed",
    "check",
    "environment",
    "fifo_latencies",
    "geomean",
    "median",
    "peak_rss_mb",
    "percentile",
    "probe",
]

#: Seconds the speed probe takes at the reference host speed; reported
#: times are scaled to that speed (see :class:`Speed`).
PROBE_REFERENCE_S = 0.010


class CheckFailed(Exception):
    """A correctness check failed; :attr:`check` names it."""

    def __init__(self, name: str, detail: str) -> None:
        super().__init__(f"check {name} failed: {detail}")
        self.check = name


def check(condition: bool, name: str, detail: str) -> None:
    """Raise :class:`CheckFailed` named ``name`` unless ``condition``."""
    if not condition:
        raise CheckFailed(name, detail)


@dataclass
class Outcome:
    """What one benchmark run measured.

    ``metrics`` holds the values named in ``BENCHMARK.json``;
    ``details`` holds supporting figures that are printed and recorded
    but are not gated (sample counts, open-loop lag, contrasts).
    """

    attempted: int
    failed: int
    metrics: Dict[str, float]
    details: Dict[str, object] = field(default_factory=dict)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe() -> float:
    """Seconds one fixed unit of interpreter and numpy work takes now."""
    start = perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(60000):
        table[i & 1023] = table.get(i & 1023, 0) + i
        total += i * i % 7
    values = numpy.arange(4096, dtype=float)
    for _ in range(200):
        values = numpy.sqrt(values * 1.0001 + 1.0)
    return perf_counter() - start


class Speed:
    """Host speed, probed between the timed operations of a run.

    The cores this benchmark runs on may be shared: on the host it was
    set on, a fixed loop ran up to 40 % slower for seconds to minutes
    at a time, and the program slowed with it.  A time measured between
    probes ``a`` and ``b`` is scaled by :data:`PROBE_REFERENCE_S` over
    the mean of the two probes, so it reads as if the host had run at
    the reference speed throughout.  Raw times are kept beside it.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []

    def mark(self) -> int:
        """Probe now; returns the index of the sample."""
        self.probes.append(probe())
        return len(self.probes) - 1

    def scale(self, seconds: float, a: int, b: int) -> float:
        return seconds * 2.0 * PROBE_REFERENCE_S / (self.probes[a] + self.probes[b])


def environment() -> Dict[str, object]:
    """What a result depends on besides the code: backend and versions."""
    from repro.steady_state import resolve_backend

    return {
        "kernel_backend": resolve_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def fifo_latencies(service_s: List[float], rate: float, n_requests: int) -> List[float]:
    """Response times of an open loop served FIFO by one server.

    Request ``i`` is due at ``i / rate`` and needs ``service_s[i % k]``
    seconds of the server; it starts when both it is due and the
    previous request has finished.  Returns each request's time from
    its due time to its completion, in seconds.
    """
    out: List[float] = []
    free_at = 0.0
    for i in range(n_requests):
        due = i / rate
        free_at = max(free_at, due) + service_s[i % len(service_s)]
        out.append(free_at - due)
    return out
