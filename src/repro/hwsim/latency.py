"""Analytic latency projection of traces onto devices.

Replaces the paper's wall-clock measurement: each trace event is
projected onto a :class:`~repro.hwsim.device.DeviceSpec` with a
roofline-style model,

    t = max(flops / (peak * eff_c), bytes / (bw * eff_m)) + launch,

where ``eff_c`` is the category- and size-dependent sustained compute
efficiency (GEMM/conv near peak; vector-symbolic, transform and logic
ops far below it) and ``eff_m`` the sustained bandwidth fraction of the
category's access pattern.  Host<->device transfer ops (``to_gpu`` /
``to_host``) are charged to the PCIe link instead of DRAM.

The projection makes the paper's core asymmetry emerge from first
principles: symbolic events have low arithmetic intensity, so their
projected time is bandwidth-dominated, while neural GEMM/conv events
are compute-dominated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.profiler import Trace, TraceEvent
from repro.core.taxonomy import OpCategory
from repro.hwsim.device import DeviceSpec


@dataclass
class EventCost:
    """Projected execution cost of one event on one device."""

    event: TraceEvent
    compute_time: float
    memory_time: float
    overhead: float

    @property
    def total(self) -> float:
        return max(self.compute_time, self.memory_time) + self.overhead

    @property
    def bound(self) -> str:
        """``"compute"`` or ``"memory"`` — which roof limits the event."""
        return "compute" if self.compute_time >= self.memory_time else "memory"

    @property
    def achieved_flops_rate(self) -> float:
        """FLOP/s actually sustained under the projection."""
        total = self.total
        if total <= 0:
            return 0.0
        return self.event.flops / total


@dataclass
class _Folds:
    """Per-key time sums of one projection, accumulated in event order
    (each sum adds the same terms in the same order as a per-view loop
    would, so every float is bit-equal to it)."""

    total_time: float
    phase_times: Dict[str, float]
    phase_counts: Dict[str, int]
    stage_times: Dict[str, float]
    category_times: Dict[OpCategory, float]
    phase_category_times: Dict[str, Dict[OpCategory, float]]
    memory_bound_time: float
    phase_memory_bound_times: Dict[str, float]


class ProjectedTrace:
    """A trace with per-event latency projections for one device.

    The per-phase, per-stage, per-(phase, category) and memory-bound
    time sums are folded in one sweep over ``costs``, on first use, and
    shared by every accessor; each accessor returns a fresh dict.
    """

    def __init__(self, trace: Trace, device: DeviceSpec,
                 costs: Sequence[EventCost]):
        self.trace = trace
        self.device = device
        self.costs = list(costs)
        self._folds: Optional[_Folds] = None

    def _fold(self) -> _Folds:
        if self._folds is not None:
            return self._folds
        phase_times: Dict[str, float] = {}
        phase_counts: Dict[str, int] = {}
        stage_times: Dict[str, float] = {}
        category_times: Dict[OpCategory, float] = {}
        phase_category: Dict[str, Dict[OpCategory, float]] = {}
        totals: List[float] = []
        memory_bound = 0.0
        phase_memory: Dict[str, float] = {}
        for cost in self.costs:
            event = cost.event
            phase = event.phase
            category = event.category
            total = cost.total
            totals.append(total)
            phase_times[phase] = phase_times.get(phase, 0.0) + total
            phase_counts[phase] = phase_counts.get(phase, 0) + 1
            stage = event.stage or "<untagged>"
            stage_times[stage] = stage_times.get(stage, 0.0) + total
            category_times[category] = category_times.get(category, 0.0) \
                + total
            by_category = phase_category.get(phase)
            if by_category is None:
                by_category = phase_category[phase] = {}
            by_category[category] = by_category.get(category, 0.0) + total
            if cost.bound == "memory":
                memory_bound += total
                phase_memory[phase] = phase_memory.get(phase, 0.0) + total
        self._folds = _Folds(sum(totals), phase_times, phase_counts,
                             stage_times, category_times, phase_category,
                             memory_bound, phase_memory)
        return self._folds

    @property
    def total_time(self) -> float:
        return self._fold().total_time

    def phases(self) -> List[str]:
        """Distinct phase labels in first-appearance order (the same
        list as :meth:`Trace.phases`)."""
        return list(self._fold().phase_times)

    def count_by_phase(self) -> Dict[str, int]:
        return dict(self._fold().phase_counts)

    def time_by_phase(self) -> Dict[str, float]:
        return dict(self._fold().phase_times)

    def time_by_stage(self) -> Dict[str, float]:
        return dict(self._fold().stage_times)

    def time_by_category(self, phase: Optional[str] = None) -> Dict[OpCategory, float]:
        folds = self._fold()
        if phase is None:
            return dict(folds.category_times)
        return dict(folds.phase_category_times.get(phase, {}))

    def memory_bound_fraction(self, phase: Optional[str] = None) -> float:
        """Fraction of projected time spent in memory-bound events."""
        folds = self._fold()
        if phase is None:
            total = folds.total_time
            bound = folds.memory_bound_time
        else:
            total = folds.phase_times.get(phase, 0.0)
            bound = folds.phase_memory_bound_times.get(phase, 0.0)
        return bound / total if total > 0 else 0.0


def project_event(event: TraceEvent, device: DeviceSpec) -> EventCost:
    """Project one event's latency onto ``device``."""
    eff_c = device.compute_efficiency(event.category, event.flops)
    compute_time = (event.flops / (device.peak_flops * eff_c)
                    if event.flops > 0 and eff_c > 0 else 0.0)

    is_host_transfer = (event.category is OpCategory.MOVEMENT
                        and event.name.startswith(("to_gpu", "to_host",
                                                   "to_device")))
    if is_host_transfer and device.host_transfer_bandwidth > 0:
        memory_time = event.total_bytes / device.host_transfer_bandwidth
    else:
        eff_m = device.bandwidth_efficiency(event.category)
        memory_time = (event.total_bytes / (device.dram_bandwidth * eff_m)
                       if event.total_bytes > 0 and eff_m > 0 else 0.0)

    return EventCost(event=event, compute_time=compute_time,
                     memory_time=memory_time,
                     overhead=device.kernel_launch_overhead)


def project_trace(trace: Trace, device: DeviceSpec) -> ProjectedTrace:
    """Project a whole trace onto ``device``."""
    costs = [project_event(e, device) for e in trace]
    return ProjectedTrace(trace, device, costs)
