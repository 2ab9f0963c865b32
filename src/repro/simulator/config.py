"""Simulation configuration knobs.

The defaults reproduce the paper's runtime (§6.1): receiver-driven DMA with
queue limits enforced, bounded-multiport bandwidth sharing, and realistic
per-DMA/per-activation overheads that account for the ≈5 % gap between the
model's throughput and the measured one (§6.4.1).  Every knob exists to
support an ablation called out in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError
from ..platform.dma import DmaCosts

__all__ = ["SimConfig"]


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the discrete-event Cell simulator.

    Attributes
    ----------
    dma:
        Per-DMA overheads (issue/completion/signal/latency).  Use
        :meth:`DmaCosts.free` to match the analytic model exactly,
        :meth:`DmaCosts.realistic` for hardware-like overheads.
    scheduler_overhead:
        µs of bookkeeping per task activation — the cost of one turn of the
        Fig. 4 select/check loop of the paper's runtime.
    enforce_dma_slots:
        Throttle concurrent DMAs to 16 per receiving SPE and 8 per
        SPE-to-PPE proxy queue (§2.1).  Disabling is an ablation.
    count_memory_dma:
        Whether SPE main-memory reads/writes occupy MFC queue slots too.
        The paper's LP counts only inter-PE data (default False).
    serial_comm:
        Replace bounded-multiport sharing with one-transfer-at-a-time
        interfaces (model-accuracy ablation).
    enforce_eib:
        Cap the summed rate of all flows at the EIB ring bandwidth.  The
        paper argues this never binds (8 × 25 GB/s = 200 GB/s); the flag
        lets tests verify that claim.
    mem_write_window:
        Outstanding main-memory writes a task may have in flight before it
        stalls (double-buffering by default).
    trace_instances:
        Record per-instance completion times (needed for Fig. 6 curves).
    max_events:
        Safety valve against runaway simulations.
    """

    dma: DmaCosts = field(default_factory=DmaCosts.free)
    scheduler_overhead: float = 0.0
    enforce_dma_slots: bool = True
    count_memory_dma: bool = False
    serial_comm: bool = False
    enforce_eib: bool = False
    mem_write_window: int = 2
    trace_instances: bool = True
    max_events: int = 200_000_000

    def __post_init__(self) -> None:
        if self.scheduler_overhead < 0:
            raise SimulationError("scheduler_overhead must be non-negative")
        if self.mem_write_window < 1:
            raise SimulationError("mem_write_window must be >= 1")
        if self.max_events < 1:
            raise SimulationError("max_events must be >= 1")

    @classmethod
    def ideal(cls) -> "SimConfig":
        """Zero overheads — the simulator should match the analytic model."""
        return cls(dma=DmaCosts.free(), scheduler_overhead=0.0)

    @classmethod
    def realistic(cls) -> "SimConfig":
        """Hardware-like overheads calibrated for the ≈95 % ratio of §6.4.1.

        ``scheduler_overhead`` covers one turn of the Fig. 4 loop: task
        selection, resource checks and the synchronisation the paper blames
        for its model-vs-hardware gap.
        """
        return cls(dma=DmaCosts.realistic(), scheduler_overhead=20.0)
