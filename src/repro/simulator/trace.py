"""Simulation results: throughput traces and summary statistics.

The paper's Fig. 6 plots the *achieved throughput as a function of the
number of processed instances* — a running-rate curve that ramps up while
the pipeline fills and settles at steady state.  :class:`SimulationResult`
reconstructs exactly that curve from per-instance completion times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..steady_state.mapping import Mapping
from ..steady_state.throughput import analyze
from .config import SimConfig

__all__ = ["SimulationResult"]


@dataclass
class SimulationResult:
    """Outcome of one simulated stream execution."""

    mapping: Mapping
    config: SimConfig
    n_instances: int
    #: Completion time (µs) of each stream instance at the last sink.
    completion_times: List[float]
    #: Time of the very last event (trailing memory writes included).
    end_time: float
    pe_busy: Dict[str, float]
    pe_overhead: Dict[str, float]
    pe_activations: Dict[str, int]
    _analysis: object = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    # Headline numbers

    @property
    def makespan(self) -> float:
        """Time (µs) until the last instance left the pipeline."""
        return self.completion_times[-1] if self.completion_times else 0.0

    @property
    def throughput(self) -> float:
        """Overall achieved throughput, instances/µs (ramp-up included)."""
        return self.n_instances / self.makespan if self.makespan else float("inf")

    def steady_state_throughput(self, skip_fraction: float = 0.25) -> float:
        """Throughput over the middle of the stream — the Fig. 6 plateau.

        Both ends of the stream are transient: the ramp-up while the
        pipeline fills (≈ the max ``firstPeriod``, the paper's "steady
        state after ~1000 instances") and the *drain*, where upstream tasks
        have finished and the remaining instances flush faster than the
        steady rate.  We therefore rate the band
        ``[skip_fraction, 1 - skip_fraction]`` of the instances.
        """
        times = self.completion_times
        if len(times) < 2:
            return self.throughput
        lo = int(len(times) * skip_fraction)
        hi = max(lo + 1, len(times) - 1 - int(len(times) * skip_fraction))
        hi = min(hi, len(times) - 1)
        span = times[hi] - times[lo]
        return (hi - lo) / span if span > 0 else float("inf")

    # ------------------------------------------------------------------ #
    # Comparisons with the analytic model

    @property
    def analysis(self):
        if self._analysis is None:
            object.__setattr__(self, "_analysis", analyze(self.mapping))
        return self._analysis

    @property
    def predicted_throughput(self) -> float:
        """The analytic (LP-model) throughput of the same mapping."""
        return self.analysis.throughput

    def efficiency(self) -> float:
        """Measured steady-state throughput over predicted (§6.4.1 ≈ 95 %)."""
        predicted = self.predicted_throughput
        if predicted == 0:
            return float("inf")
        return self.steady_state_throughput() / predicted

    # ------------------------------------------------------------------ #
    # Fig. 6 curve

    def throughput_curve(
        self, window: Optional[int] = None
    ) -> List[Tuple[int, float]]:
        """Achieved throughput as a function of instances processed (Fig. 6).

        With ``window=None`` (default) this is the paper's metric — the
        *cumulative* rate ``instances / elapsed``, which ramps up while the
        pipeline fills and converges to the steady state.  A positive
        ``window`` gives the instantaneous rate over the last ``window``
        instances instead (noisier, useful for diagnosing stalls).

        Returns ``(instances_processed, rate)`` points (rate in
        instances/µs).
        """
        times = self.completion_times
        points: List[Tuple[int, float]] = []
        if window is None:
            for i, t in enumerate(times):
                if t > 0:
                    points.append((i + 1, (i + 1) / t))
            return points
        for i in range(1, len(times)):
            j = max(0, i - window)
            span = times[i] - times[j]
            if span > 0:
                points.append((i + 1, (i - j) / span))
        return points

    def utilisation(self) -> Dict[str, float]:
        """Busy fraction of each PE over the whole run (diagnostics)."""
        span = self.end_time or 1.0
        return {
            name: (self.pe_busy[name] + self.pe_overhead.get(name, 0.0)) / span
            for name in self.pe_busy
        }

    def summary(self) -> str:
        """Human-readable digest of the run."""
        lines = [
            f"simulated {self.n_instances} instances of "
            f"{self.mapping.graph.name!r} in {self.makespan / 1e6:.4f} s",
            f"  overall throughput : {self.throughput * 1e6:10.2f} instances/s",
            "  steady-state       : "
            f"{self.steady_state_throughput() * 1e6:10.2f} instances/s",
            "  model prediction   : "
            f"{self.predicted_throughput * 1e6:10.2f} instances/s",
            f"  efficiency         : {self.efficiency() * 100:10.1f} %",
        ]
        for name, frac in sorted(self.utilisation().items()):
            if self.pe_activations.get(name):
                lines.append(f"  {name:>6} busy {frac * 100:5.1f} %")
        return "\n".join(lines)
