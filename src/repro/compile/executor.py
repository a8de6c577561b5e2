"""Plan executor: replay a :class:`CompiledPlan` bit-exactly.

The executor does **plan-guided dispatch**: the workload's own
``run()`` executes unchanged (Python control flow is reproduced by
construction, so classified errors surface at exactly the same point
as eager), but every op that reaches :func:`repro.tensor.dispatch.
run_op` is intercepted — ``run_op`` checks :data:`ENABLED` and hands
the call to the thread's active :class:`PlanSession` — and replayed
against the positional plan:

1. the next eid indexes straight into ``plan.steps``; a name/kind
   mismatch, shape mismatch, or step over/underrun raises
   :class:`~repro.compile.plan.PlanDivergenceError` (deterministic —
   runners fall back to eager, never retry);
2. the step's **prototype event** is appended to the trace verbatim —
   no taxonomy lookup, byte counting, FLOP math, sparsity scan,
   timing, span lookup, or event construction per op;
3. hoisted repeats (``reuse_of``) skip their kernel and serve the
   leader's arena buffer; everything else runs the *instrumented
   kernel closure* it was captured with (never raw numpy — lint
   RL108);
4. counters are aggregated analytically: one
   :func:`repro.obs.metrics.observe_op_group` flush per plan group
   instead of one metrics update per op.

Result tensors are built with ``_track=False`` — allocation tracking
is the other per-op cost the plan already paid for at capture (the
prototype events carry captured ``live_bytes`` and the plan carries
``peak_live_bytes``), and skipping it is what pushes the measured
dispatch reduction past the modeled 5x.

The bit-exactness contract (asserted across the full workload roster
in ``tests/test_compile.py``): identical outputs, identical counter
digests (:func:`repro.obs.runrec.counters_digest`), identical
classified errors.  Wall-clock fields and latency-histogram bucket
placement are measured context, not contract.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.compile.arena import Arena
from repro.compile.plan import (COMPILED_FLUSH_NS, COMPILED_STEP_NS,
                                CompiledPlan, PlanDivergenceError,
                                PlanError)
from repro.core.profiler import Trace
from repro.obs import metrics as _metrics
from repro.obs.selfprof import MODELED_OVERHEAD_NS_PER_OP
from repro.tensor.context import (active_context, active_fault_hook,
                                  active_op_observer)
from repro.tensor.context import profile as _profile
from repro.tensor.tensor import Tensor

__all__ = ["ENABLED", "PlanSession", "ExecutionStats", "plan_session",
           "active_session", "execute", "run_compiled",
           "diff_against_eager"]

#: Fast-path flag consulted by the dispatcher before any function call
#: into this module (same contract as ``repro.obs.selfprof.ACTIVE`` /
#: ``repro.obs.metrics.ENABLED``): true while *any* thread has an open
#: plan session.  The dispatcher still resolves the thread-local
#: session, so other threads fall through to eager dispatch.
ENABLED = False

_enabled_count = 0
_enabled_lock = threading.Lock()

_state = threading.local()


def _session_stack() -> List["PlanSession"]:
    if not hasattr(_state, "sessions"):
        _state.sessions = []
    return _state.sessions


def active_session() -> Optional["PlanSession"]:
    """This thread's innermost open plan session, if any."""
    stack = _session_stack()
    return stack[-1] if stack else None


def _count_enabled(delta: int) -> None:
    global ENABLED, _enabled_count
    with _enabled_lock:
        _enabled_count = max(0, _enabled_count + delta)
        ENABLED = _enabled_count > 0


@dataclass
class ExecutionStats:
    """What one compiled replay actually did (measured context)."""

    steps_replayed: int = 0
    kernels_run: int = 0
    kernels_skipped: int = 0
    groups_flushed: int = 0
    arena: Dict[str, int] = field(default_factory=dict)

    def modeled_saved_ns(self) -> int:
        """Dispatch ns saved vs eager, under the frozen cost model."""
        eager = self.steps_replayed * MODELED_OVERHEAD_NS_PER_OP
        compiled = (self.steps_replayed * COMPILED_STEP_NS
                    + self.groups_flushed * COMPILED_FLUSH_NS)
        return eager - compiled

    def to_dict(self) -> Dict[str, object]:
        return {
            "steps_replayed": self.steps_replayed,
            "kernels_run": self.kernels_run,
            "kernels_skipped": self.kernels_skipped,
            "groups_flushed": self.groups_flushed,
            "modeled_saved_ns": self.modeled_saved_ns(),
            "arena": dict(self.arena),
        }


class PlanSession:
    """One thread's replay of one plan (sessions never cross threads)."""

    def __init__(self, plan: CompiledPlan):
        self.plan = plan
        self.arena = Arena(plan.arena)
        self.stats = ExecutionStats()

    # -- dispatcher entry ----------------------------------------------------
    def replay_op(self, name: str, compute, inputs: Sequence) -> Tensor:
        """Replay one dispatched op against the positional plan."""
        ctx = active_context()
        if ctx is None:
            # untraced dispatch (e.g. a stray op outside the profile
            # block): nothing to replay against — mirror the eager
            # untraced path exactly
            arrays = [v.data if isinstance(v, Tensor) else v
                      for v in inputs]
            return Tensor(np.asarray(compute(*arrays)))
        steps = self.plan.steps
        eid = ctx.next_eid()
        if eid >= len(steps):
            raise PlanDivergenceError(
                f"replay overran the plan: op {name!r} would be event "
                f"{eid} but the plan has {len(steps)} steps")
        step = steps[eid]
        if step.kind != "op" or step.name != name:
            raise PlanDivergenceError(
                f"replay diverged at eid {eid}: plan expects "
                f"{step.kind} {step.name!r}, workload dispatched "
                f"op {name!r}")
        arrays = [v.data if isinstance(v, Tensor) else v
                  for v in inputs]
        if step.reuse_of >= 0:
            out_arr = self.arena.get(step.reuse_of)
            if out_arr is None:
                raise PlanDivergenceError(
                    f"eid {eid} reuses hoist leader {step.reuse_of} "
                    "whose output was never checked in")
            self.stats.kernels_skipped += 1
        else:
            out_arr = np.asarray(compute(*arrays))
            if out_arr.shape != step.output_shape:
                raise PlanDivergenceError(
                    f"replay diverged at eid {eid} ({name!r}): plan "
                    f"recorded output shape {step.output_shape}, "
                    f"kernel produced {out_arr.shape}")
            if step.cache_as:
                out_arr = self.arena.place(eid, out_arr)
            self.stats.kernels_run += 1
        event = step.event
        ctx.record(event)
        if step.flush:
            self._flush(step.group)
        observer = active_op_observer()
        if observer is not None:
            observer.observe_op(event, arrays, out_arr)
        self.stats.steps_replayed += 1
        return Tensor(out_arr, producer=event.eid, _track=False)

    def _flush(self, group_index: int) -> None:
        self.stats.groups_flushed += 1
        if not _metrics.ENABLED:
            return
        for row in self.plan.groups[group_index].metric_rows:
            (category, count, seconds_total, flops_total,
             nbytes_total, live_bytes, peak_live_bytes) = row
            _metrics.observe_op_group(
                category, count, seconds_total, flops_total,
                nbytes_total, live_bytes, peak_live_bytes)

    def finish(self) -> ExecutionStats:
        self.stats.arena = self.arena.stats()
        return self.stats


@contextmanager
def plan_session(plan: CompiledPlan) -> Iterator[PlanSession]:
    """Install a replay session for this thread.

    Refuses to open under an active fault hook: fault plans count op
    indices by *consulting every dispatch*, and the compiled path does
    not consult, so the semantics would silently diverge.  Callers
    that need fault injection run eager (the resilient runner does
    exactly that).
    """
    if active_fault_hook() is not None:
        raise PlanError(
            "compiled execution cannot run under a fault hook; "
            "use the eager tier for fault-injection runs")
    session = PlanSession(plan)
    _session_stack().append(session)
    _count_enabled(+1)
    try:
        yield session
    finally:
        _count_enabled(-1)
        stack = _session_stack()
        if not stack or stack[-1] is not session:  # pragma: no cover
            raise RuntimeError("plan sessions exited out of order")
        stack.pop()
        session.finish()


def execute(workload, plan: CompiledPlan) -> Tuple[Trace, ExecutionStats]:
    """Run ``workload`` through ``plan``; returns (trace, stats).

    Mirrors ``Workload.profile()`` — same metadata keys, same trace
    shape — with ``peak_live_bytes`` taken from the plan (allocation
    tracking is compiled out).  Raises
    :class:`~repro.compile.plan.PlanDivergenceError` when the run
    records a different number of events than the plan captured.
    """
    name = getattr(getattr(workload, "info", None), "name", "")
    if plan.workload and name and plan.workload != name:
        raise PlanError(
            f"plan was captured from workload {plan.workload!r}; "
            f"refusing to replay {name!r}")
    workload.build()
    with _profile(name or plan.workload) as prof:
        with plan_session(plan) as session:
            result = workload.run()
    trace = prof.trace
    if len(trace.events) != len(plan.steps):
        raise PlanDivergenceError(
            f"replay recorded {len(trace.events)} events but the plan "
            f"has {len(plan.steps)} steps — the op graph changed since "
            "capture")
    trace.metadata.update(workload.params)
    trace.metadata["result"] = result
    trace.metadata["peak_live_bytes"] = plan.peak_live_bytes
    trace.metadata["parameter_bytes"] = workload.parameter_bytes()
    trace.metadata["codebook_bytes"] = workload.codebook_bytes()
    return trace, session.stats


def run_compiled(workload, plan: CompiledPlan) -> Trace:
    """:func:`execute` returning only the trace (profile-compatible)."""
    trace, _ = execute(workload, plan)
    return trace


def diff_against_eager(eager: Trace, compiled: Trace) -> Dict[str, object]:
    """Bit-exactness comparison between an eager and a compiled trace.

    The contract surface: counter digests, event counts, per-event
    deterministic fields, and result metadata.  Wall-clock fields are
    deliberately not compared.
    """
    from repro.obs.runrec import counters_digest  # deferred (cycle)
    eager_digest = counters_digest(eager)
    compiled_digest = counters_digest(compiled)
    mismatches: List[str] = []
    if len(eager.events) != len(compiled.events):
        mismatches.append(
            f"event count: eager {len(eager.events)} vs compiled "
            f"{len(compiled.events)}")
    for a, b in zip(eager.events, compiled.events):
        if (a.name, a.category, a.phase, a.stage, a.flops,
                a.bytes_read, a.bytes_written, tuple(a.output_shape),
                a.parents) != (b.name, b.category, b.phase, b.stage,
                               b.flops, b.bytes_read, b.bytes_written,
                               tuple(b.output_shape), b.parents):
            mismatches.append(f"event {a.eid}: {a.name!r} fields differ")
            if len(mismatches) >= 8:
                break
    eager_result = eager.metadata.get("result")
    compiled_result = compiled.metadata.get("result")
    if repr(eager_result) != repr(compiled_result):
        mismatches.append("result metadata differs")
    return {
        "bit_exact": (eager_digest == compiled_digest
                      and not mismatches),
        "eager_counters_digest": eager_digest,
        "compiled_counters_digest": compiled_digest,
        "events": len(eager.events),
        "mismatches": mismatches,
    }
