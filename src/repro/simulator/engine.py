"""Discrete-event simulator of a mapped streaming application on the Cell.

This is the repository's stand-in for the paper's PlayStation 3 / QS22
hardware.  It executes the runtime of §6.1 faithfully:

* each PE runs the Fig. 4 state machine — select a runnable task
  (round-robin), wait for resources (input instances including peek,
  output buffer slots), process, signal;
* all inter-PE data is pulled by the consumer through DMA gets, with the
  MFC queue limits of §2.1 (16 gets per SPE, 8 PPE-issued proxy gets per
  SPE) throttling concurrency;
* transfers share interface bandwidth under the bounded-multiport model
  (max-min fair fluid flows, see :mod:`repro.simulator.flows`);
* main-memory reads/writes are transfers to the unconstrained MEM endpoint
  through the PE's own interface, as in the paper's model;
* configurable per-DMA and per-activation overheads reproduce the gap
  between model and hardware reported in §6.4.1.

Events are (time, seq, kind, payload) tuples in a binary heap; fluid-flow
completions use epoch tokens for lazy invalidation when rates change.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from ..errors import SimulationError
from ..steady_state.mapping import Mapping
from ..steady_state.periods import first_periods
from .config import SimConfig
from .flows import FlowNetwork
from .state import EdgeKind, EdgeRuntime, PEState, TaskRuntime
from .trace import SimulationResult

__all__ = ["Simulator", "simulate"]

_TASK_DONE = 0
_FLOW_START = 1  # DMA latency elapsed: the fluid flow begins
_FLOW_DONE = 2


class Simulator:
    """Simulate ``n_instances`` of the stream under a fixed mapping."""

    def __init__(self, mapping: Mapping, config: Optional[SimConfig] = None) -> None:
        self.mapping = mapping
        self.config = config or SimConfig()
        self.platform = mapping.platform
        self.graph = mapping.graph
        self.now = 0.0
        self._seq = 0
        self._events: List[Tuple[float, int, int, object]] = []
        self._build_network()
        self._build_state()

    # ------------------------------------------------------------------ #
    # Construction

    def _build_network(self) -> None:
        capacity = {}
        for pe in range(self.platform.n_pes):
            capacity[("out", pe)] = self.platform.bw
            capacity[("in", pe)] = self.platform.bw
        # Multi-Cell platforms: one directed BIF link port per chip pair.
        for c_src in range(self.platform.n_cells):
            for c_dst in range(self.platform.n_cells):
                if c_src != c_dst:
                    capacity[("bif", c_src, c_dst)] = self.platform.bif_bw
        self.net = FlowNetwork(
            capacity,
            eib_bw=self.platform.eib_bw if self.config.enforce_eib else None,
            serial=self.config.serial_comm,
        )

    def _build_state(self) -> None:
        mapping, platform, graph = self.mapping, self.platform, self.graph
        fp = first_periods(graph)
        self.pes: List[PEState] = [
            PEState(
                index=i,
                name=platform.pe_name(i),
                is_spe=platform.is_spe(i),
            )
            for i in range(platform.n_pes)
        ]
        self.tasks: Dict[str, TaskRuntime] = {}
        sinks = set(graph.sinks())
        for name in graph.topological_order():
            task = graph.task(name)
            pe = mapping.pe_of(name)
            runtime = TaskRuntime(
                name=name,
                pe=pe,
                cost=task.cost_on(platform.kind(pe)),
                peek=task.peek,
                is_sink=name in sinks,
            )
            self.tasks[name] = runtime
            self.pes[pe].tasks.append(runtime)

        self.edges: List[EdgeRuntime] = []
        for edge in graph.edges():
            src_pe = mapping.pe_of(edge.src)
            dst_pe = mapping.pe_of(edge.dst)
            window = fp[edge.dst] - fp[edge.src]
            runtime = EdgeRuntime(
                key=edge.key,
                kind=EdgeKind.LOCAL if src_pe == dst_pe else EdgeKind.REMOTE,
                src_pe=src_pe,
                dst_pe=dst_pe,
                data=edge.data,
                window=window,
                peek=graph.task(edge.dst).peek,
            )
            self.edges.append(runtime)
            self.tasks[edge.src].out_edges.append(runtime)
            self.tasks[edge.dst].in_edges.append(runtime)

        for task in graph.tasks():
            pe = mapping.pe_of(task.name)
            if task.read > 0:
                runtime = EdgeRuntime(
                    key=("MEM", task.name),
                    kind=EdgeKind.MEM_READ,
                    src_pe=None,
                    dst_pe=pe,
                    data=task.read,
                    window=2,
                    peek=0,
                )
                self.edges.append(runtime)
                self.tasks[task.name].in_edges.append(runtime)
            if task.write > 0:
                runtime = EdgeRuntime(
                    key=(task.name, "MEM"),
                    kind=EdgeKind.MEM_WRITE,
                    src_pe=pe,
                    dst_pe=None,
                    data=task.write,
                    window=self.config.mem_write_window,
                    peek=0,
                )
                self.edges.append(runtime)
                self.tasks[task.name].out_edges.append(runtime)

    # ------------------------------------------------------------------ #
    # Event plumbing

    def _push(self, time: float, kind: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._events, (time, self._seq, kind, payload))

    def _reschedule_flows(self) -> None:
        """Reallocate rates and re-push completion events (epoch-tagged).

        A flow whose remaining bytes already reached zero (it finished at
        the exact same instant as the event being processed) completes
        *now*: the allocator gives it no rate, so it would otherwise never
        receive a completion event.
        """
        self.net.allocate()
        for flow in self.net.flows.values():
            if flow.remaining <= 1e-9:
                self._push(self.now, _FLOW_DONE, (flow.flow_id, flow.epoch))
            elif flow.rate > 0:
                finish = self.now + flow.remaining / flow.rate
                self._push(finish, _FLOW_DONE, (flow.flow_id, flow.epoch))

    # ------------------------------------------------------------------ #
    # DMA slot accounting

    def _dma_slot_free(self, edge: EdgeRuntime) -> bool:
        if not self.config.enforce_dma_slots:
            return True
        if edge.kind == EdgeKind.REMOTE:
            dst, src = edge.dst_pe, edge.src_pe
            assert dst is not None and src is not None
            if self.platform.is_spe(dst):
                return self.pes[dst].mfc_in_flight < self.platform.dma_in_slots
            if self.platform.is_spe(src):  # SPE -> PPE proxy get
                return self.pes[src].proxy_in_flight < self.platform.dma_proxy_slots
            return True  # PPE -> PPE memcpy
        if not self.config.count_memory_dma:
            return True
        owner = edge.dst_pe if edge.kind == EdgeKind.MEM_READ else edge.src_pe
        assert owner is not None
        if self.platform.is_spe(owner):
            return self.pes[owner].mfc_in_flight < self.platform.dma_in_slots
        return True

    def _dma_slot_take(self, edge: EdgeRuntime) -> None:
        if not self.config.enforce_dma_slots:
            return
        if edge.kind == EdgeKind.REMOTE:
            dst, src = edge.dst_pe, edge.src_pe
            assert dst is not None and src is not None
            if self.platform.is_spe(dst):
                self.pes[dst].mfc_in_flight += 1
            elif self.platform.is_spe(src):
                self.pes[src].proxy_in_flight += 1
            return
        if not self.config.count_memory_dma:
            return
        owner = edge.dst_pe if edge.kind == EdgeKind.MEM_READ else edge.src_pe
        assert owner is not None
        if self.platform.is_spe(owner):
            self.pes[owner].mfc_in_flight += 1

    def _dma_slot_release(self, edge: EdgeRuntime) -> None:
        if not self.config.enforce_dma_slots:
            return
        if edge.kind == EdgeKind.REMOTE:
            dst, src = edge.dst_pe, edge.src_pe
            assert dst is not None and src is not None
            if self.platform.is_spe(dst):
                self.pes[dst].mfc_in_flight -= 1
            elif self.platform.is_spe(src):
                self.pes[src].proxy_in_flight -= 1
            return
        if not self.config.count_memory_dma:
            return
        owner = edge.dst_pe if edge.kind == EdgeKind.MEM_READ else edge.src_pe
        assert owner is not None
        if self.platform.is_spe(owner):
            self.pes[owner].mfc_in_flight -= 1

    def _issuer_pe(self, edge: EdgeRuntime) -> Optional[int]:
        """PE whose compute is interrupted to issue/poll this DMA (§4.1)."""
        if edge.kind == EdgeKind.REMOTE:
            dst = edge.dst_pe
            assert dst is not None
            return dst  # receiver-driven gets
        if edge.kind == EdgeKind.MEM_READ:
            return edge.dst_pe
        return edge.src_pe

    # ------------------------------------------------------------------ #
    # Transfer pump (the communication phase of Fig. 4)

    def _pump_edges(self) -> bool:
        """Issue every DMA whose conditions hold (communication phase).

        Returns True when a fluid flow started *now* (zero-latency path),
        i.e. when rates must be reallocated.
        """
        started = False
        for edge in self.edges:
            if not edge.wants_transfer(self.n_instances):
                continue
            if not self._dma_slot_free(edge):
                continue
            self._dma_slot_take(edge)
            edge.in_flight += 1
            issuer = self._issuer_pe(edge)
            if issuer is not None:
                self.pes[issuer].overhead_debt += self.config.dma.issue_overhead
            if self.config.dma.latency > 0:
                self._push(
                    self.now + self.config.dma.latency, _FLOW_START, edge
                )
            else:
                self._start_flow(edge)
                started = True
        return started

    def _start_flow(self, edge: EdgeRuntime) -> None:
        src_port = None if edge.src_pe is None else ("out", edge.src_pe)
        dst_port = None if edge.dst_pe is None else ("in", edge.dst_pe)
        extra = ()
        if (
            edge.src_pe is not None
            and edge.dst_pe is not None
            and self.platform.n_cells > 1
            and self.platform.is_cross_cell(edge.src_pe, edge.dst_pe)
        ):
            extra = (
                (
                    "bif",
                    self.platform.cell_of(edge.src_pe),
                    self.platform.cell_of(edge.dst_pe),
                ),
            )
        self.net.start_flow(
            src_port, dst_port, edge.data, tag=edge, extra_ports=extra
        )

    # ------------------------------------------------------------------ #
    # Compute scheduling (the computation phase of Fig. 4)

    def _schedule_pe(self, pe: PEState) -> None:
        """If idle, pick the next runnable task round-robin and start it."""
        if pe.busy or not pe.tasks:
            return
        n = len(pe.tasks)
        for offset in range(n):
            task = pe.tasks[(pe.rr_next + offset) % n]
            if task.ready(self.n_instances, self.config.mem_write_window):
                pe.rr_next = (pe.rr_next + offset + 1) % n
                overhead = pe.overhead_debt + self.config.scheduler_overhead
                pe.overhead_debt = 0.0
                pe.overhead_time += overhead
                pe.busy_time += task.cost
                pe.activations += 1
                pe.busy = True
                finish = self.now + overhead + task.cost
                self._push(finish, _TASK_DONE, task)
                return

    # ------------------------------------------------------------------ #
    # Event handlers

    def _on_task_done(self, task: TaskRuntime, touched: Set[int]) -> None:
        pe = self.pes[task.pe]
        pe.busy = False
        instance = task.next_instance
        task.next_instance += 1
        for edge in task.out_edges:
            edge.produced += 1
            if edge.kind == EdgeKind.LOCAL:
                assert edge.dst_pe is not None
                touched.add(edge.dst_pe)
            elif edge.kind == EdgeKind.REMOTE:
                pe.overhead_debt += self.config.dma.signal_overhead
                assert edge.dst_pe is not None
                touched.add(edge.dst_pe)
        for edge in task.in_edges:
            edge.consumed += 1
            if edge.kind == EdgeKind.LOCAL and edge.src_pe is not None:
                touched.add(edge.src_pe)
        touched.add(task.pe)
        if task.is_sink:
            self._sink_done[instance] += 1
            if self._sink_done[instance] == self._n_sinks:
                self.completion_times[instance] = self.now
                self.completed = instance + 1

    def _on_flow_done(self, edge: EdgeRuntime, touched: Set[int]) -> None:
        edge.arrived += 1
        edge.in_flight -= 1
        self._dma_slot_release(edge)
        issuer = self._issuer_pe(edge)
        if issuer is not None:
            self.pes[issuer].overhead_debt += self.config.dma.completion_overhead
            touched.add(issuer)
        if edge.src_pe is not None:
            touched.add(edge.src_pe)  # sender out-buffer unlocked
        if edge.dst_pe is not None:
            touched.add(edge.dst_pe)  # new input data

    # ------------------------------------------------------------------ #
    # Main loop

    def run(self, n_instances: int) -> SimulationResult:
        """Process ``n_instances`` of the stream; returns the result trace."""
        if n_instances < 1:
            raise SimulationError("n_instances must be >= 1")
        self.n_instances = n_instances
        sinks = [t for t in self.tasks.values() if t.is_sink]
        self._n_sinks = len(sinks)
        self._sink_done = [0] * n_instances
        self.completion_times: List[Optional[float]] = [None] * n_instances
        self.completed = 0

        # Kick-off: pump initial memory reads and start source tasks.
        started = self._pump_edges()
        for pe in self.pes:
            self._schedule_pe(pe)
        if started:
            self._reschedule_flows()

        events_handled = 0
        while self._events:
            events_handled += 1
            if events_handled > self.config.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.config.max_events}; "
                    "likely a pathological configuration"
                )
            time, _seq, kind, payload = heapq.heappop(self._events)
            if kind == _FLOW_DONE:
                flow_id, epoch = payload  # type: ignore[misc]
                flow = self.net.flows.get(flow_id)
                if flow is None or flow.epoch != epoch:
                    continue  # stale event from a superseded allocation
            if time < self.now - 1e-9:
                raise SimulationError(
                    f"event time {time} precedes current time {self.now}"
                )
            self.net.advance(max(0.0, time - self.now))
            self.now = max(self.now, time)

            touched = set()
            flows_dirty = False
            if kind == _TASK_DONE:
                self._on_task_done(payload, touched)  # type: ignore[arg-type]
            elif kind == _FLOW_START:
                self._start_flow(payload)  # type: ignore[arg-type]
                flows_dirty = True
            else:  # _FLOW_DONE
                flow = self.net.finish_flow(flow_id)  # type: ignore[possibly-undefined]
                self._on_flow_done(flow.tag, touched)  # type: ignore[arg-type]
                flows_dirty = True

            if self._pump_edges():
                flows_dirty = True
            for pe_index in touched:
                self._schedule_pe(self.pes[pe_index])
            if flows_dirty:
                self._reschedule_flows()

        self._check_final_state()
        return SimulationResult(
            mapping=self.mapping,
            config=self.config,
            n_instances=n_instances,
            completion_times=[t for t in self.completion_times if t is not None],
            end_time=self.now,
            pe_busy={p.name: p.busy_time for p in self.pes},
            pe_overhead={p.name: p.overhead_time for p in self.pes},
            pe_activations={p.name: p.activations for p in self.pes},
        )

    def _check_final_state(self) -> None:
        """Conservation invariants: everything produced, shipped, consumed."""
        for task in self.tasks.values():
            if task.next_instance != self.n_instances:
                raise SimulationError(
                    f"deadlock/starvation: task {task.name!r} stopped at "
                    f"instance {task.next_instance}/{self.n_instances}"
                )
        for edge in self.edges:
            if edge.kind == EdgeKind.MEM_READ:
                continue  # reads may legitimately stop once consumers finish
            if edge.produced != self.n_instances:
                raise SimulationError(
                    f"edge {edge.key}: produced {edge.produced} != {self.n_instances}"
                )
            if edge.kind in (EdgeKind.REMOTE, EdgeKind.MEM_WRITE):
                if edge.arrived != edge.produced:
                    raise SimulationError(
                        f"edge {edge.key}: {edge.produced - edge.arrived} "
                        "instances never arrived"
                    )
        if self.net.flows:
            raise SimulationError(
                f"{len(self.net.flows)} flows still active at end of stream"
            )


def simulate(
    mapping: Mapping,
    n_instances: int,
    config: Optional[SimConfig] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(mapping, config).run(n_instances)
