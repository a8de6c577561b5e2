"""Health-report pin: the exact ``HealthReport.render()`` text for
poisoned traces.

The health checks take their ``structure``, ``finite_counters`` and
negative-live-bytes verdicts from one validation pass.  These pins hold
every check's name, order and detail text for NaN-, inf- and
negative-live-bytes-poisoned traces, so a change to how the verdicts
are computed cannot change what the report says.
"""

from __future__ import annotations

import math
import warnings

import pytest

from repro.core.profiler import Trace, TraceEvent
from repro.core.taxonomy import OpCategory
from repro.resilience import (FAULT_INF, FAULT_NAN, FaultPlan, FaultSpec,
                              check_trace_health)
from repro.workloads import create

PHASES = ("neural", "symbolic")


def _poisoned_lnn(kind: str, rate: float, seed: int) -> Trace:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # NaN/inf math
        with FaultPlan([FaultSpec(kind=kind, rate=rate)], seed=seed):
            return create("lnn", seed=0).profile()


def _negative_live_lnn() -> Trace:
    trace = create("lnn", seed=0).profile()
    for i, event in enumerate(trace.events):
        if i % 25 == 3:
            event.live_bytes = -(1 << 10) * (i + 1)
    return trace


def _handmade() -> Trace:
    def event(eid: int, **fields: object) -> TraceEvent:
        base = dict(eid=eid, name=f"op{eid}", category=OpCategory.MATMUL,
                    phase="neural", flops=10.0, bytes_read=8,
                    bytes_written=8, wall_time=1e-6, live_bytes=64)
        base.update(fields)
        return TraceEvent(**base)

    trace = Trace(workload="toy", events=[
        event(0, wall_time=math.nan), event(1, flops=-math.inf),
        event(2, live_bytes=-8), event(3, output_sparsity=math.nan)])
    trace.metadata["peak_live_bytes"] = 32
    return trace


CASES = {
    "nan": lambda: _poisoned_lnn(FAULT_NAN, 0.05, 1),
    "inf": lambda: _poisoned_lnn(FAULT_INF, 0.02, 2),
    "negative_live_bytes": _negative_live_lnn,
    "handmade": _handmade,
}

EXPECTED = {
    "nan": """\
health of 'lnn': UNHEALTHY (2 of 5 checks failing)
  [FAIL] structure: event 20 (add) has non-finite flops: nan; event 20 (add) has non-finite output_sparsity: nan; event 25 (relu) has non-finite flops: nan; event 25 (relu) has non-finite output_sparsity: nan; event 47 (relu) has non-finite flops: nan; ... and 21 more
  [FAIL] finite_counters: event 20 (add) flops=nan; event 20 (add) output_sparsity=nan; event 25 (relu) flops=nan; event 25 (relu) output_sparsity=nan; event 47 (relu) flops=nan; ... and 21 more
  [  ok] nonempty_phases
  [  ok] nonzero_latency
  [  ok] live_bytes_balance""",
    "inf": """\
health of 'lnn': UNHEALTHY (2 of 5 checks failing)
  [FAIL] structure: event 58 (take) has non-finite flops: inf; event 58 (take) has non-finite output_sparsity: inf; event 63 (clip) has non-finite flops: inf; event 63 (clip) has non-finite output_sparsity: inf; event 81 (less) has non-finite flops: inf; ... and 11 more
  [FAIL] finite_counters: event 58 (take) flops=inf; event 58 (take) output_sparsity=inf; event 63 (clip) flops=inf; event 63 (clip) output_sparsity=inf; event 81 (less) flops=inf; ... and 11 more
  [  ok] nonempty_phases
  [  ok] nonzero_latency
  [  ok] live_bytes_balance""",
    "negative_live_bytes": """\
health of 'lnn': UNHEALTHY (2 of 5 checks failing)
  [FAIL] structure: event 3 has negative live bytes; event 28 has negative live bytes; event 53 has negative live bytes; event 78 has negative live bytes; event 103 has negative live bytes; ... and 8 more
  [  ok] finite_counters
  [  ok] nonempty_phases
  [  ok] nonzero_latency
  [FAIL] live_bytes_balance: event 3 live_bytes -4096 < 0; event 28 live_bytes -29696 < 0; event 53 live_bytes -55296 < 0; event 78 live_bytes -80896 < 0; event 103 live_bytes -106496 < 0; ... and 8 more""",
    "handmade": """\
health of 'toy': UNHEALTHY (5 of 5 checks failing)
  [FAIL] structure: event 0 (op0) has non-finite wall_time: nan; event 1 (op1) has non-finite flops: -inf; event 1 (op1) has negative flops; event 2 has negative live bytes; event 3 (op3) has non-finite output_sparsity: nan; ... and 2 more
  [FAIL] finite_counters: event 0 (op0) wall_time=nan; event 1 (op1) flops=-inf; event 3 (op3) output_sparsity=nan
  [FAIL] nonempty_phases: phase 'symbolic' has no events
  [FAIL] nonzero_latency: total wall time is nan
  [FAIL] live_bytes_balance: event 2 live_bytes -8 < 0; event live-bytes peak 64 exceeds runtime-tracked peak 32""",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_health_render_pinned(case):
    report = check_trace_health(CASES[case](), expected_phases=PHASES)
    assert report.render() == EXPECTED[case]
