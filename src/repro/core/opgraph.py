"""Operation-graph analysis (Fig. 4 and Takeaway 5).

Every trace carries producer links (each event knows which events
produced its inputs), so the operation-dependency DAG needs no workload
cooperation.  This module derives the paper's Fig. 4 observations:

* whether the symbolic phase *depends on* neural results (pipelined
  Neuro|Symbolic systems: NVSA/VSAIT/PrAE) or the symbolic knowledge is
  *compiled into* the neural structure (LNN/LTN/NLM/ZeroC);
* the latency-weighted critical path through the DAG and which phase
  dominates it;
* a serialization measure — critical-path time over total time — low
  parallelism being the paper's "complex control results in
  inefficiency" point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC, Trace
from repro.hwsim.device import DeviceSpec
from repro.hwsim.latency import ProjectedTrace, project_trace

if TYPE_CHECKING:
    import networkx as nx


def build_graph(trace: Trace) -> "nx.DiGraph":
    """The operation-dependency DAG: nodes are event ids; an edge
    u -> v means v consumed a tensor produced by u.

    :func:`analyze_graph` sweeps the same DAG without building it; this
    networkx form is for callers that want graph algorithms on it.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for event in trace:
        graph.add_node(event.eid, name=event.name, phase=event.phase,
                       stage=event.stage, category=event.category.value)
    for event in trace:
        for parent in event.parents:
            if graph.has_node(parent):
                graph.add_edge(parent, event.eid)
    return graph


@dataclass
class OpGraphReport:
    """Fig. 4 summary for one workload."""

    workload: str
    num_nodes: int
    num_edges: int
    cross_phase_edges: int
    symbolic_depends_on_neural: bool
    neural_depends_on_symbolic: bool
    critical_path_time: float
    critical_path_length: int
    critical_path_phase_times: Dict[str, float]
    total_time: float
    max_width: int

    @property
    def serialization(self) -> float:
        """Critical-path time / total time (1.0 = fully serial)."""
        if self.total_time <= 0:
            return 0.0
        return self.critical_path_time / self.total_time

    @property
    def symbolic_on_critical_path(self) -> float:
        total = sum(self.critical_path_phase_times.values())
        if total <= 0:
            return 0.0
        return self.critical_path_phase_times.get(PHASE_SYMBOLIC,
                                                  0.0) / total


def analyze_graph(trace: Trace, device: DeviceSpec) -> OpGraphReport:
    """Weight the DAG with projected latencies and extract the critical
    path and phase-dependency structure."""
    return _graph_from_projected(project_trace(trace, device))


def _graph_from_projected(projected: ProjectedTrace) -> OpGraphReport:
    """One Kahn sweep over the DAG :func:`build_graph` would build.

    The sweep visits nodes in networkx's ``topological_sort`` order —
    generation by generation, the first generation in node order, each
    later one in the order its nodes become ready — so ties between
    equal-latency critical paths break exactly as they did over the nx
    graph.  A cycle raises :class:`ValueError`.
    """
    trace = projected.trace
    # nodes in first-appearance order; a repeated eid keeps its first
    # position and its last phase and latency, as nx.add_node does
    phase_of: Dict[int, str] = {}
    latency: Dict[int, float] = {}
    for cost in projected.costs:
        eid = cost.event.eid
        phase_of[eid] = cost.event.phase
        latency[eid] = cost.total
    preds: Dict[int, List[int]] = {eid: [] for eid in phase_of}
    succs: Dict[int, List[int]] = {eid: [] for eid in phase_of}

    num_edges = 0
    cross = 0
    sym_on_neural = False
    neural_on_sym = False
    for event in trace:
        v = event.eid
        incoming = preds[v]
        for u in event.parents:
            if u not in phase_of or u in incoming:
                continue
            incoming.append(u)
            succs[u].append(v)
            num_edges += 1
            pu, pv = phase_of[u], phase_of[v]
            if pu != pv:
                cross += 1
                if pu == PHASE_NEURAL and pv == PHASE_SYMBOLIC:
                    sym_on_neural = True
                elif pu == PHASE_SYMBOLIC and pv == PHASE_NEURAL:
                    neural_on_sym = True

    # Kahn sweep: longest (latency-weighted) path and generation widths
    waiting = {v: len(p) for v, p in preds.items() if p}
    order = [v for v, p in preds.items() if not p]
    generation = dict.fromkeys(order, 0)
    best_time: Dict[int, float] = {}
    best_pred: Dict[int, Optional[int]] = {}
    for node in order:  # grows while it is swept
        base, pred = max([(best_time[p], p) for p in preds[node]],
                         default=(0.0, None))
        best_time[node] = base + latency[node]
        best_pred[node] = pred
        for child in succs[node]:
            left = waiting[child] - 1
            if left:
                waiting[child] = left
            else:
                del waiting[child]
                order.append(child)
                generation[child] = generation[node] + 1
    if waiting:
        raise ValueError(
            f"operation graph of {trace.workload!r} has a cycle through "
            f"{len(waiting)} event(s)")

    if best_time:
        end = max(best_time, key=best_time.get)
        path: List[int] = []
        cursor: Optional[int] = end
        while cursor is not None:
            path.append(cursor)
            cursor = best_pred[cursor]
        path.reverse()
        cp_time = best_time[end]
    else:
        path, cp_time = [], 0.0

    cp_phase_times: Dict[str, float] = {}
    for node in path:
        phase = phase_of[node]
        cp_phase_times[phase] = cp_phase_times.get(phase, 0.0) \
            + latency[node]

    # width: max antichain estimate via generation sizes
    widths = Counter(generation.values())

    return OpGraphReport(
        workload=trace.workload,
        num_nodes=len(phase_of),
        num_edges=num_edges,
        cross_phase_edges=cross,
        symbolic_depends_on_neural=sym_on_neural,
        neural_depends_on_symbolic=neural_on_sym,
        critical_path_time=cp_time,
        critical_path_length=len(path),
        critical_path_phase_times=cp_phase_times,
        total_time=projected.total_time,
        max_width=max(widths.values(), default=0),
    )
