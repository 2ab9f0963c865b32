"""Analytic steady-state period, throughput and feasibility of a mapping.

This is the evaluation side of the paper's model: given a mapping, the
period ``T`` is the maximum occupation time over all resources —

* compute time of each PE (constraints (1e)/(1f)),
* incoming and outgoing communication time of each PE interface, memory
  reads/writes included (constraints (1g)/(1h)),

and the mapping is *feasible* iff every SPE's buffers fit its local store
(1i) and the DMA queue limits hold ((1j)/(1k)).  The throughput of the
induced periodic schedule is ``ρ = 1/T`` (§3.1).

On a multi-application :class:`~repro.graph.workload.CompositeGraph`
(see :class:`~repro.graph.workload.Workload`) the same pass additionally
reports :attr:`PeriodAnalysis.app_periods`: for each member application,
the period it would achieve under the same mapping *without* the other
applications' load — its own resource occupation alone.  The shared
period never beats any per-app period, and the ratio
``period / app_periods[a]`` is application ``a``'s *stretch*, the
quantity the ``max_stretch`` objective minimises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import InfeasibleMappingError
from .mapping import Mapping
from .periods import buffer_requirements

__all__ = [
    "ResourceLoad",
    "LinkLoad",
    "Violation",
    "PeriodAnalysis",
    "analyze",
    "period",
    "throughput",
    "speedup",
    "assert_feasible",
]


@dataclass(frozen=True)
class ResourceLoad:
    """Occupation time (µs/instance) of one PE's three resources."""

    pe: int
    pe_name: str
    compute: float
    comm_in: float
    comm_out: float

    @property
    def busiest(self) -> Tuple[str, float]:
        """The resource bounding this PE and its occupation time."""
        loads = (
            ("compute", self.compute),
            ("comm_in", self.comm_in),
            ("comm_out", self.comm_out),
        )
        return max(loads, key=lambda kv: kv[1])


@dataclass(frozen=True)
class Violation:
    """One violated hard constraint of a mapping."""

    constraint: str  # "memory", "dma_in" or "dma_proxy"
    pe: int
    pe_name: str
    actual: float
    limit: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.constraint} violated on {self.pe_name}: "
            f"{self.actual:g} > {self.limit:g}"
        )


@dataclass(frozen=True)
class LinkLoad:
    """Occupation time (µs/instance) of one inter-Cell BIF link direction."""

    src_cell: int
    dst_cell: int
    time: float


@dataclass(frozen=True)
class PeriodAnalysis:
    """Full steady-state analysis of a mapping."""

    mapping: Mapping
    loads: List[ResourceLoad]
    buffer_bytes: Dict[int, float]
    dma_in: Dict[int, int]
    dma_proxy: Dict[int, int]
    violations: List[Violation] = field(default_factory=list)
    #: Inter-Cell link occupation (multi-Cell platforms only).
    link_loads: List[LinkLoad] = field(default_factory=list)
    #: Per-application periods (multi-application composite graphs only):
    #: each application's own resource occupation under this mapping,
    #: ignoring the other applications' load.  Empty for plain graphs.
    app_periods: Dict[str, float] = field(default_factory=dict)

    @property
    def period(self) -> float:
        """The period ``T``: maximum occupation time over all resources."""
        worst_pe = max(
            max(load.compute, load.comm_in, load.comm_out)
            for load in self.loads
        )
        worst_link = max((link.time for link in self.link_loads), default=0.0)
        return max(worst_pe, worst_link)

    @property
    def throughput(self) -> float:
        """Steady-state throughput ``ρ = 1/T`` in instances/µs."""
        t = self.period
        return float("inf") if t == 0 else 1.0 / t

    @property
    def feasible(self) -> bool:
        return not self.violations

    @property
    def bottleneck(self) -> Tuple[str, str]:
        """``(pe_name, resource)`` of the binding resource."""
        worst = max(
            self.loads,
            key=lambda load: max(load.compute, load.comm_in, load.comm_out),
        )
        return worst.pe_name, worst.busiest[0]

    def report(self) -> str:
        """Multi-line textual breakdown (for CLI/examples)."""
        lines = [
            f"period T = {self.period:.3f} µs  "
            f"(throughput {self.throughput * 1e6:.2f} instances/s)",
            f"bottleneck: {self.bottleneck[0]} ({self.bottleneck[1]})",
        ]
        for app, app_period in self.app_periods.items():
            stretch = (
                self.period / app_period if app_period > 0 else float("inf")
            )
            lines.append(
                f"  app {app:>12}: alone {app_period:9.3f} µs  "
                f"stretch {stretch:6.2f}"
            )
        for load in self.loads:
            tasks = self.mapping.tasks_on(load.pe)
            if not tasks and load.compute == 0 and load.comm_in == 0:
                continue
            lines.append(
                f"  {load.pe_name:>6}: compute {load.compute:9.3f}  "
                f"in {load.comm_in:8.3f}  out {load.comm_out:8.3f}  "
                f"({len(tasks)} tasks)"
            )
        for violation in self.violations:
            lines.append(f"  !! {violation}")
        return "\n".join(lines)


def analyze(
    mapping: Mapping,
    elide_local_comm: bool = False,
    merge_same_pe_buffers: bool = False,
) -> PeriodAnalysis:
    """Compute the :class:`PeriodAnalysis` of ``mapping`` (paper model)."""
    graph, platform = mapping.graph, mapping.platform
    n = platform.n_pes

    compute = [0.0] * n
    in_bytes = [0.0] * n
    out_bytes = [0.0] * n

    # Multi-application composites additionally get per-app occupation
    # sums (same accumulation order as the global sums, so the delta
    # engine can reproduce them bit for bit).
    app_of = getattr(graph, "app_of", None) or None
    app_compute: Dict[str, List[float]] = {}
    app_in: Dict[str, List[float]] = {}
    app_out: Dict[str, List[float]] = {}
    app_link: Dict[Tuple[str, Tuple[int, int]], float] = {}
    if app_of is not None:
        for app in getattr(graph, "app_names", ()):
            app_compute[app] = [0.0] * n
            app_in[app] = [0.0] * n
            app_out[app] = [0.0] * n

    for task in graph.tasks():
        pe = mapping.pe_of(task.name)
        cost = task.cost_on(platform.kind(pe))
        compute[pe] += cost
        in_bytes[pe] += task.read
        out_bytes[pe] += task.write
        if app_of is not None:
            app = app_of[task.name]
            app_compute[app][pe] += cost
            app_in[app][pe] += task.read
            app_out[app][pe] += task.write

    dma_in: Dict[int, int] = {i: 0 for i in platform.spe_indices}
    dma_proxy: Dict[int, int] = {i: 0 for i in platform.spe_indices}
    link_bytes: Dict[Tuple[int, int], float] = {}

    for edge in graph.edges():
        src_pe = mapping.pe_of(edge.src)
        dst_pe = mapping.pe_of(edge.dst)
        if src_pe == dst_pe:
            continue
        out_bytes[src_pe] += edge.data
        in_bytes[dst_pe] += edge.data
        if app_of is not None:
            app = app_of[edge.src]  # endpoints always share the app
            app_out[app][src_pe] += edge.data
            app_in[app][dst_pe] += edge.data
        if platform.is_spe(dst_pe):
            dma_in[dst_pe] += 1
        if platform.is_spe(src_pe) and platform.is_ppe(dst_pe):
            dma_proxy[src_pe] += 1
        if platform.n_cells > 1 and platform.is_cross_cell(src_pe, dst_pe):
            key = (platform.cell_of(src_pe), platform.cell_of(dst_pe))
            link_bytes[key] = link_bytes.get(key, 0.0) + edge.data
            if app_of is not None:
                akey = (app_of[edge.src], key)
                app_link[akey] = app_link.get(akey, 0.0) + edge.data

    loads = [
        ResourceLoad(
            pe=i,
            pe_name=platform.pe_name(i),
            compute=compute[i],
            comm_in=in_bytes[i] / platform.bw,
            comm_out=out_bytes[i] / platform.bw,
        )
        for i in range(n)
    ]

    buffers = buffer_requirements(
        graph,
        mapping if (elide_local_comm or merge_same_pe_buffers) else None,
        elide_local_comm=elide_local_comm,
        merge_same_pe_buffers=merge_same_pe_buffers,
    )
    buffer_bytes: Dict[int, float] = {i: 0.0 for i in platform.spe_indices}
    for name, pe in mapping.items():
        if platform.is_spe(pe):
            buffer_bytes[pe] += buffers[name]

    violations, link_loads = violations_and_links(
        platform, buffer_bytes, dma_in, dma_proxy, link_bytes
    )

    app_periods: Dict[str, float] = {}
    if app_of is not None:
        app_periods = app_periods_from_loads(
            getattr(graph, "app_names", ()),
            app_compute,
            app_in,
            app_out,
            app_link,
            platform.bw,
            platform.bif_bw,
        )

    return PeriodAnalysis(
        mapping=mapping,
        loads=loads,
        buffer_bytes=buffer_bytes,
        dma_in=dma_in,
        dma_proxy=dma_proxy,
        violations=violations,
        link_loads=link_loads,
        app_periods=app_periods,
    )


def violations_and_links(
    platform,
    buffer_bytes: Dict[int, float],
    dma_in: Dict[int, int],
    dma_proxy: Dict[int, int],
    link_bytes: Dict[Tuple[int, int], float],
) -> Tuple[List[Violation], List[LinkLoad]]:
    """The violated (1i)–(1k) constraints and the BIF link loads.

    Shared between :func:`analyze` and ``DeltaAnalyzer.snapshot()`` so
    the two report the same violations in the same order and the same
    link times from the same sums.
    """
    violations: List[Violation] = []
    for spe in platform.spe_indices:
        pe_name = platform.pe_name(spe)
        if buffer_bytes[spe] > platform.buffer_budget:
            violations.append(
                Violation(
                    "memory", spe, pe_name, buffer_bytes[spe], platform.buffer_budget
                )
            )
        if dma_in[spe] > platform.dma_in_slots:
            violations.append(
                Violation("dma_in", spe, pe_name, dma_in[spe], platform.dma_in_slots)
            )
        if dma_proxy[spe] > platform.dma_proxy_slots:
            violations.append(
                Violation(
                    "dma_proxy", spe, pe_name, dma_proxy[spe], platform.dma_proxy_slots
                )
            )
    link_loads = [
        LinkLoad(src_cell=src, dst_cell=dst, time=bytes_ / platform.bif_bw)
        for (src, dst), bytes_ in sorted(link_bytes.items())
    ]
    return violations, link_loads


def app_periods_from_loads(
    app_names,
    app_compute: Dict[str, List[float]],
    app_in: Dict[str, List[float]],
    app_out: Dict[str, List[float]],
    app_link: Dict[Tuple[str, Tuple[int, int]], float],
    bw: float,
    bif_bw: float,
) -> Dict[str, float]:
    """Per-application periods from per-app occupation sums.

    Shared between :func:`analyze` and ``DeltaAnalyzer.snapshot()`` so
    the two compute the final maxima through the exact same float
    expressions (the sums they start from are maintained to be equal).
    """
    out: Dict[str, float] = {}
    for app in app_names:
        compute, in_b, out_b = app_compute[app], app_in[app], app_out[app]
        worst = 0.0
        for pe in range(len(compute)):
            value = max(compute[pe], in_b[pe] / bw, out_b[pe] / bw)
            if value > worst:
                worst = value
        out[app] = worst
    for (app, _key), bytes_ in app_link.items():
        time = bytes_ / bif_bw
        if time > out[app]:
            out[app] = time
    return out


def period(mapping: Mapping, **kwargs) -> float:
    """The period ``T`` (µs) of the steady-state schedule of ``mapping``."""
    return analyze(mapping, **kwargs).period


def throughput(mapping: Mapping, **kwargs) -> float:
    """Steady-state throughput ``ρ = 1/T`` (instances/µs)."""
    return analyze(mapping, **kwargs).throughput


def speedup(mapping: Mapping, reference: Optional[Mapping] = None) -> float:
    """Throughput of ``mapping`` normalised to the PPE-only mapping (§6.4)."""
    if reference is None:
        reference = Mapping.all_on_ppe(mapping.graph, mapping.platform)
    return throughput(mapping) / throughput(reference)


def assert_feasible(mapping: Mapping, **kwargs) -> PeriodAnalysis:
    """Analyse and raise :class:`InfeasibleMappingError` on any violation."""
    analysis = analyze(mapping, **kwargs)
    if not analysis.feasible:
        detail = "; ".join(str(v) for v in analysis.violations)
        raise InfeasibleMappingError(f"infeasible mapping: {detail}")
    return analysis
