"""Op dispatch: compute with numpy, record a trace event.

Every public op in :mod:`repro.tensor.ops` funnels through
:func:`run_op`.  The dispatcher

1. coerces inputs, collecting byte counts and producer event ids,
2. times the numpy kernel,
3. computes FLOPs (explicit or ``flop_factor * output.size``),
4. measures output sparsity,
5. emits a :class:`~repro.core.profiler.TraceEvent` into the active
   profiling context (if any), and
6. returns a :class:`~repro.tensor.tensor.Tensor` whose ``producer``
   points at the new event.

It is the one dispatch path, with or without self-profiling: while a
:class:`~repro.obs.selfprof.DispatchLedger` is installed
(:data:`repro.obs.selfprof.ACTIVE`), ten ``perf_ns`` probes split each
traced op into the nine :data:`~repro.obs.selfprof.COMPONENTS` and
feed the ledger; without one each probe short-circuits and reads no
clock.

There is also :func:`record_region` for control-flow-heavy symbolic
code (rule search loops, theorem-prover traversals) that does not map
onto a single tensor kernel: it wraps a Python block, measures its wall
time, and records one aggregate event — mirroring how the paper's
"Others" operator category captures fuzzy-logic and logic-rule work.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.profiler import TraceEvent
from repro.core.taxonomy import OpCategory, category_for
from repro.obs import metrics as _metrics
from repro.obs import selfprof as _selfprof
from repro.obs.clock import perf_ns as _perf_ns
from repro.obs.spans import current_span as _current_span
from repro.obs.spans import now as _now
from repro.tensor.context import (InjectedFaultError, ProfileContext,
                                  active_context, active_fault_hook,
                                  active_op_observer)
from repro.tensor.tensor import Tensor

# imported last: repro.compile.executor reaches back into the two
# tensor modules above, and this ordering keeps the cycle resolvable
# from either import direction
import repro.compile.executor as _planexec  # noqa: E402

#: Arrays larger than this skip sparsity measurement (keeps dispatch cheap).
_SPARSITY_MEASURE_LIMIT = 1 << 26

#: Float/complex outputs of at least this many elements count their
#: nonzeros as ``np.count_nonzero(arr != 0)``: the vectorized compare
#: and a bool count beat ``count_nonzero``'s per-element float test
#: from about 2-3k elements (1.5x at 4096 float32/float64, 3-4x at 64k)
#: and lose below that.  Same count: NaN is nonzero, -0.0 is zero.
_COMPARE_NONZERO_MIN = 4096

InputLike = Union[Tensor, np.ndarray, float, int, bool]


def _current_sid() -> Optional[int]:
    """Span id of the innermost open span, or ``None`` untraced."""
    record = _current_span()
    return record.sid if record is not None else None


def _split_inputs(inputs: Sequence[InputLike]) -> Tuple[List[np.ndarray], int,
                                                        Tuple[Tuple[int, ...], ...],
                                                        Tuple[int, ...]]:
    """Separate raw arrays, byte counts, shapes, and producer eids."""
    arrays: List[np.ndarray] = []
    bytes_read = 0
    shapes: List[Tuple[int, ...]] = []
    parents: List[int] = []
    for value in inputs:
        if isinstance(value, Tensor):
            arrays.append(value.data)
            bytes_read += value.data.nbytes
            shapes.append(value.data.shape)
            if value.producer is not None:
                parents.append(value.producer)
        elif isinstance(value, np.ndarray):
            arrays.append(value)
            bytes_read += value.nbytes
            shapes.append(value.shape)
        else:  # python scalar
            arrays.append(value)  # type: ignore[arg-type]
            bytes_read += 8
            shapes.append(())
    return arrays, bytes_read, tuple(shapes), tuple(parents)


def _injection_kind(injection: object) -> str:
    """Metric label for an injection's dominant effect."""
    if getattr(injection, "raises", False):
        return "error"
    if getattr(injection, "poison", None) is not None:
        return "poison"
    if float(getattr(injection, "extra_latency", 0.0)) > 0.0:
        return "latency"
    if int(getattr(injection, "extra_live_bytes", 0)) > 0:
        return "alloc"
    return "other"


def _consider_fault(name: str) -> Optional[object]:
    """Ask the active fault hook about this op; raise if it says so.

    Returns the injection object (or ``None``) so the caller can apply
    the non-raising effects: counter poisoning, simulated latency, and
    allocation blowups.
    """
    hook = active_fault_hook()
    if hook is None:
        return None
    ctx = active_context()
    phase = ctx.current_phase if ctx is not None else ""
    stage = ctx.current_stage if ctx is not None else ""
    injection = hook.consider(name, phase, stage)
    if injection is None:
        return None
    if _metrics.ENABLED:
        _metrics.observe_fault(_injection_kind(injection))
    if getattr(injection, "raises", False):
        raise InjectedFaultError(
            f"injected fault in op {name!r} "
            f"(index {getattr(injection, 'op_index', -1)})",
            op_name=name,
            op_index=getattr(injection, "op_index", -1),
            transient=getattr(injection, "transient", False))
    return injection


def _poison_array(arr: np.ndarray, value: float) -> np.ndarray:
    """Corrupt one element of a float array with ``value`` (NaN/Inf).

    Integer and boolean outputs cannot hold non-finite values; they are
    returned untouched (the recorded counters are still poisoned, which
    is what the health checks observe).
    """
    if arr.size == 0 or not np.issubdtype(arr.dtype, np.floating):
        return arr
    poisoned = arr.copy()
    poisoned.flat[0] = value
    return poisoned


def _apply_injection(injection: Optional[object],
                     elapsed: float) -> Tuple[float, Optional[float], int]:
    """Resolve an injection into (elapsed, poison value, extra live bytes).

    A *blocking* latency fault really sleeps (so wall-clock timeouts can
    be exercised); a plain one only inflates the recorded wall time.
    """
    if injection is None:
        return elapsed, None, 0
    extra = float(getattr(injection, "extra_latency", 0.0))
    if extra > 0.0:
        if getattr(injection, "blocking", False):
            time.sleep(extra)
        elapsed += extra
    poison = getattr(injection, "poison", None)
    extra_live = int(getattr(injection, "extra_live_bytes", 0))
    return elapsed, poison, extra_live


def _measure_sparsity(arr: np.ndarray) -> float:
    if arr.size == 0 or arr.size > _SPARSITY_MEASURE_LIMIT:
        return 0.0
    if arr.dtype == object:  # pragma: no cover - defensive
        return 0.0
    if arr.size >= _COMPARE_NONZERO_MIN and arr.dtype.kind in "fc":
        return 1.0 - np.count_nonzero(arr != 0) / arr.size
    return 1.0 - np.count_nonzero(arr) / arr.size


def run_op(name: str,
           category: Optional[OpCategory] = None,
           compute: Callable[..., np.ndarray] = None,  # type: ignore[assignment]
           inputs: Sequence[InputLike] = (),
           *,
           flops: Optional[float] = None,
           flop_factor: float = 1.0,
           extra_bytes_read: int = 0,
           bytes_written: Optional[int] = None,
           measure_sparsity: bool = True) -> Tensor:
    """Execute ``compute`` on raw arrays and record one trace event.

    Parameters
    ----------
    category:
        Operator-taxonomy category.  When ``None``, it is resolved from
        the :data:`repro.core.taxonomy.OP_CATEGORIES` registry (the
        authoritative op-name -> category mapping); explicit values at
        call sites are cross-checked against that registry by
        ``repro lint`` (RL002).
    flops:
        Explicit FLOP count.  When ``None``, the count defaults to
        ``flop_factor * output.size`` (the convention for element-wise
        kernels; reductions pass explicit counts).
    extra_bytes_read:
        Additional traffic not visible from the inputs (e.g. lookup
        tables touched inside the kernel).
    bytes_written:
        Override for written bytes; defaults to the output's nbytes.
    """
    if _planexec.ENABLED:
        # compiled tier: a thread with an open plan session replays
        # this op against its positional plan (bit-exact contract);
        # other threads fall through to eager dispatch
        session = _planexec.active_session()
        if session is not None:
            return session.replay_op(name, compute, inputs)
    # the probes sit at shared segment boundaries, so one op's component
    # deltas telescope to exactly p9 - p0
    ledger = _selfprof.ACTIVE
    p0 = ledger and _perf_ns()
    if category is None:
        category = category_for(name)
    p1 = ledger and _perf_ns()                     # taxonomy
    arrays, bytes_read, shapes, parents = _split_inputs(inputs)
    p2 = ledger and _perf_ns()                     # inputs
    ctx = active_context()
    injection = _consider_fault(name)
    p3 = ledger and _perf_ns()                     # fault
    if ctx is None:
        # untraced dispatch records no event, so there is nothing to
        # attribute either
        out = compute(*arrays)
        out_arr = np.asarray(out)
        _, poison, _ = _apply_injection(injection, 0.0)
        if poison is not None:
            out_arr = _poison_array(out_arr, poison)
        return Tensor(out_arr)

    t_start = _now()
    out = compute(*arrays)
    elapsed = _now() - t_start
    out_arr = np.asarray(out)
    p4 = ledger and _perf_ns()                     # kernel
    elapsed, poison, extra_live = _apply_injection(injection, elapsed)
    if poison is not None:
        out_arr = _poison_array(out_arr, poison)
    if flops is None:
        flops = flop_factor * out_arr.size
    written = out_arr.nbytes if bytes_written is None else bytes_written
    sparsity = _measure_sparsity(out_arr) if measure_sparsity else 0.0
    if poison is not None:
        flops = poison
        sparsity = poison
    p5 = ledger and _perf_ns()                     # counters
    eid = ctx.next_eid()
    sid = _current_sid()
    p6 = ledger and _perf_ns()                     # span
    result = Tensor(out_arr, producer=eid)
    live_bytes = ctx.live_bytes + extra_live
    event = TraceEvent(
        eid=eid,
        name=name,
        category=category,
        phase=ctx.current_phase,
        stage=ctx.current_stage,
        flops=float(flops),
        bytes_read=bytes_read + extra_bytes_read,
        bytes_written=written,
        input_shapes=shapes,
        output_shape=out_arr.shape,
        output_sparsity=sparsity,
        wall_time=elapsed,
        parents=parents,
        live_bytes=live_bytes,
        t_start=t_start,
        sid=sid,
    )
    ctx.record(event)
    p7 = ledger and _perf_ns()                     # record
    observer = active_op_observer()
    if observer is not None:
        # observers see dtypes and exact input values, which the trace
        # event intentionally omits (repro.fuzz.harvest relies on this)
        observer.observe_op(event, arrays, out_arr)
    p8 = ledger and _perf_ns()                     # observer
    if _metrics.ENABLED:
        _metrics.observe_op(category.value, elapsed, float(flops),
                            bytes_read + extra_bytes_read + written,
                            live_bytes)
    if ledger is not None:
        p9 = _perf_ns()                            # metrics
        ledger.record(category.value, {
            "taxonomy": p1 - p0,
            "inputs": p2 - p1,
            "fault": p3 - p2,
            "kernel": p4 - p3,
            "counters": p5 - p4,
            "span": p6 - p5,
            "record": p7 - p6,
            "observer": p8 - p7,
            "metrics": p9 - p8,
        })
    return result


def record_event(name: str,
                 category: OpCategory,
                 *,
                 flops: float = 0.0,
                 bytes_read: int = 0,
                 bytes_written: int = 0,
                 wall_time: float = 0.0,
                 parents: Tuple[int, ...] = (),
                 input_shapes: Tuple[Tuple[int, ...], ...] = (),
                 output_shape: Tuple[int, ...] = (),
                 output_sparsity: float = 0.0) -> Optional[int]:
    """Record a standalone event (no tensor output); returns its eid."""
    ctx = active_context()
    if ctx is None:
        return None
    injection = _consider_fault(name)
    wall_time, poison, extra_live = _apply_injection(injection, wall_time)
    if poison is not None:
        flops = poison
        output_sparsity = poison
    eid = ctx.next_eid()
    live_bytes = ctx.live_bytes + extra_live
    ctx.record(TraceEvent(
        eid=eid, name=name, category=category,
        phase=ctx.current_phase, stage=ctx.current_stage,
        flops=float(flops), bytes_read=bytes_read,
        bytes_written=bytes_written, wall_time=wall_time,
        parents=parents, input_shapes=input_shapes,
        output_shape=output_shape, output_sparsity=output_sparsity,
        live_bytes=live_bytes,
        t_start=_now() - wall_time,
        sid=_current_sid(),
    ))
    if _metrics.ENABLED:
        _metrics.observe_op(category.value, wall_time, float(flops),
                            bytes_read + bytes_written, live_bytes)
    return eid


@contextmanager
def record_region(name: str,
                  category: OpCategory = OpCategory.OTHER,
                  *,
                  flops: float = 0.0,
                  bytes_read: int = 0,
                  bytes_written: int = 0,
                  parents: Tuple[int, ...] = ()) -> Iterator[None]:
    """Record a Python region (e.g. a logic-rule search loop) as one event.

    The supplied ``flops``/``bytes`` describe the aggregate work done by
    the region; wall time is measured.  Use for symbolic computations
    that execute as host-side control flow rather than tensor kernels.
    """
    ctx = active_context()
    if ctx is None:
        yield
        return
    injection = _consider_fault(name)  # raising faults abort the region
    t_start = _now()
    try:
        yield
    finally:
        elapsed = _now() - t_start
        elapsed, poison, extra_live = _apply_injection(injection, elapsed)
        region_flops = float(flops) if poison is None else poison
        eid = ctx.next_eid()
        live_bytes = ctx.live_bytes + extra_live
        ctx.record(TraceEvent(
            eid=eid, name=name, category=category,
            phase=ctx.current_phase, stage=ctx.current_stage,
            flops=region_flops, bytes_read=bytes_read,
            bytes_written=bytes_written, wall_time=elapsed,
            parents=parents, live_bytes=live_bytes,
            t_start=t_start,
            sid=_current_sid(),
        ))
        if _metrics.ENABLED:
            _metrics.observe_op(category.value, elapsed, region_flops,
                                bytes_read + bytes_written, live_bytes)
