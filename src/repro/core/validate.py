"""Structural trace validation.

Sanity checks that every analysis relies on: monotone event ids,
parent links pointing backwards, non-negative resource counters,
phase/stage labels drawn from the expected vocabulary.  Benchmarks run
these on freshly-collected traces so a broken workload fails loudly
rather than producing quietly-wrong figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.profiler import Trace

#: Per-event numeric fields that must be finite for any analysis to hold.
COUNTER_FIELDS = ("flops", "bytes_read", "bytes_written", "wall_time",
                  "live_bytes", "output_sparsity")


@dataclass
class ValidationResult:
    """Outcome of validating one trace.

    Besides the error messages, the pass keeps two findings in
    structured form for :mod:`repro.resilience.health`, which reports
    them as checks of their own: ``non_finite`` holds ``(eid, name,
    counter, value)`` per non-finite counter and ``negative_live``
    holds ``(eid, live_bytes)`` per negative live-bytes snapshot, both
    in trace order.
    """

    workload: str
    errors: List[str] = field(default_factory=list)
    non_finite: List[Tuple[int, str, str, float]] = field(
        default_factory=list)
    negative_live: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_invalid(self) -> None:
        if self.errors:
            raise ValueError(
                f"trace for {self.workload!r} failed validation:\n  "
                + "\n  ".join(self.errors))


def validate_trace(trace: Trace,
                   expected_phases: Optional[Sequence[str]] = None,
                   require_flops: bool = True) -> ValidationResult:
    """Run all structural checks on ``trace``."""
    result = ValidationResult(workload=trace.workload)
    err = result.errors.append

    if not trace.events:
        err("trace is empty")
        return result

    seen_ids = set()
    previous = -1
    for event in trace:
        if event.eid in seen_ids:
            err(f"duplicate event id {event.eid}")
        seen_ids.add(event.eid)
        if event.eid <= previous:
            err(f"event ids not strictly increasing at {event.eid}")
        previous = event.eid

        for parent in event.parents:
            if parent >= event.eid:
                err(f"event {event.eid} has non-causal parent {parent}")
            if parent not in seen_ids:
                err(f"event {event.eid} has unknown parent {parent}")

        # non-finite counters must be rejected explicitly: NaN slips
        # through every `< 0` / range comparison below.
        for counter in COUNTER_FIELDS:
            value = float(getattr(event, counter))
            if not math.isfinite(value):
                result.non_finite.append(
                    (event.eid, event.name, counter, value))
                err(f"event {event.eid} ({event.name}) has non-finite "
                    f"{counter}: {value}")

        if event.flops < 0:
            err(f"event {event.eid} ({event.name}) has negative flops")
        if event.bytes_read < 0 or event.bytes_written < 0:
            err(f"event {event.eid} ({event.name}) has negative bytes")
        if math.isfinite(event.output_sparsity) \
                and not (0.0 <= event.output_sparsity <= 1.0):
            err(f"event {event.eid} sparsity out of range: "
                f"{event.output_sparsity}")
        if event.wall_time < 0:
            err(f"event {event.eid} has negative wall time")
        if event.live_bytes < 0:
            result.negative_live.append((event.eid, event.live_bytes))
            err(f"event {event.eid} has negative live bytes")

    if expected_phases is not None:
        actual = set(p for p in trace.phases() if p)
        missing = set(expected_phases) - actual
        if missing:
            err(f"missing expected phases: {sorted(missing)}")

    if require_flops and trace.total_flops <= 0:
        err("trace performed no floating-point work")

    return result
