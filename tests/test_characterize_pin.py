"""Characterization pin: every ``characterize_trace`` view, exactly.

``fixtures/characterize_seed0.json`` holds, recorded from the code as
it stood before ``characterize_trace`` moved to one projection and a
networkx-free op-graph sweep:

* ``roster`` — for each of the 11 workloads at seed 0, the latency
  split (phase/stage times, event counts), operator-category times,
  memory profile, boundedness, every :class:`OpGraphReport` field,
  per-stage sparsity statistics and FLOP shares;
* ``edge_cases`` — the same views of small hand-built traces that
  stress the op-graph sweep (a parent listed after its child,
  duplicate and missing parents, an untagged phase, an empty trace,
  equal-latency critical paths, a cycle) and of NaN-poisoned traces,
  each run through :meth:`ResilientRunner._safe_characterize`
  (``validate=False``; a report that dies pins as ``None``).

Floats compare by ``float.hex`` (bit-exact, NaN included) and dicts
as ordered ``[key, value]`` pairs, so key order is pinned too.  The
sparsity statistics depend on which output elements are exactly zero;
like the conv plan digest they may move on another CPU's BLAS kernel.
Regenerate only when the *expected* views change on purpose, with::

    PYTHONPATH=src python -c "from tests.test_characterize_pin import \\
        write_fixture; write_fixture()"
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

import numpy as np
import pytest

from repro.core.analysis import operator_breakdown
from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC, Trace, TraceEvent
from repro.core.suite import WorkloadReport, characterize_trace
from repro.core.taxonomy import OpCategory
from repro.hwsim import RTX_2080TI
from repro.resilience import FaultPlan, ResilientRunner
from repro.workloads import available, create
from tests.conftest import cached_trace

FIXTURE = (Path(__file__).resolve().parent / "fixtures"
           / "characterize_seed0.json")

#: report fields that are views (the trace and workload result are not)
VIEWS = ("workload", "device", "latency", "operators", "memory",
         "boundedness", "opgraph", "sparsity", "flops_shares")


def canonical(value: object) -> object:
    """JSON-ready, exact form of a view: floats as ``float.hex``,
    dicts as ordered ``[key, value]`` pairs, dataclasses by field."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, OpCategory):
        return value.value
    if isinstance(value, (float, np.floating)):
        return float.hex(float(value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    raise TypeError(f"no canonical form for {type(value).__name__}")


def views(report: Optional[WorkloadReport]) -> Optional[dict]:
    if report is None:
        return None
    return {name: canonical(getattr(report, name)) for name in VIEWS}


# -- hand-built traces -------------------------------------------------------

def _event(eid: int, phase: str = PHASE_NEURAL, parents=(), **fields
           ) -> TraceEvent:
    fields.setdefault("name", "add")
    fields.setdefault("category", OpCategory.ELEMENTWISE)
    fields.setdefault("flops", 1e6)
    fields.setdefault("bytes_read", 8192)
    fields.setdefault("bytes_written", 4096)
    fields.setdefault("output_shape", (32, 32))
    return TraceEvent(eid=eid, phase=phase, parents=tuple(parents), **fields)


def edge_traces() -> Dict[str, Trace]:
    """Small traces that stress the op-graph sweep and the folds."""
    nobytes = dict(bytes_read=0, bytes_written=0)
    zero = dict(flops=0.0, **nobytes)
    nan = math.nan
    return {
        # eid 0 names eid 2 as its parent: the edge 2 -> 0 still exists
        "parent_after_child": Trace("parent_after_child", [
            _event(0, parents=(2,), stage="late"),
            _event(1, PHASE_SYMBOLIC, stage="root"),
            _event(2, PHASE_SYMBOLIC, parents=(1,), stage="root"),
        ]),
        # x * x: one edge, not two
        "duplicate_parents": Trace("duplicate_parents", [
            _event(0),
            _event(1, PHASE_SYMBOLIC, parents=(0, 0), name="multiply"),
            _event(2, PHASE_SYMBOLIC, parents=(1, 1, 0)),
        ]),
        # parents outside the trace (e.g. a trimmed sub-trace) are dropped
        "missing_parents": Trace("missing_parents", [
            _event(3, parents=(1, 2)),
            _event(4, PHASE_SYMBOLIC, parents=(3, 99)),
        ]),
        # an untagged phase beside the two tagged ones
        "untagged_phase": Trace("untagged_phase", [
            _event(0, ""),
            _event(1, parents=(0,), stage="conv"),
            _event(2, "", parents=(1,), name="to_host",
                   category=OpCategory.MOVEMENT),
            _event(3, PHASE_SYMBOLIC, parents=(2,), stage="bind"),
        ]),
        "empty_trace": Trace("empty_trace", []),
        # two two-op chains of equal latency; the networkx generation
        # order (0, 1, 3, 2) reaches chain 0 -> 3 first, trace order
        # would reach chain 1 -> 2 first
        "critical_path_tie": Trace("critical_path_tie", [
            _event(0, **zero),
            _event(1, PHASE_SYMBOLIC, **zero),
            _event(2, PHASE_SYMBOLIC, parents=(1,), **zero),
            _event(3, parents=(0,), **zero),
        ]),
        # a self-loop is a cycle: the op graph has no topological order
        "cycle": Trace("cycle", [
            _event(0),
            _event(1, PHASE_SYMBOLIC, parents=(0, 1)),
        ]),
        # fault-style poison: NaN/inf counters, and host transfers whose
        # NaN byte counts make their memory time NaN.  Those two must
        # still count as memory-bound, which makes the neural phase
        # memory-bound (2 of its 3 equal-cost events).
        "poisoned": Trace("poisoned", [
            _event(0, flops=nan, output_sparsity=nan, stage="conv", **nobytes),
            _event(1, parents=(0,), name="to_gpu", flops=0.0,
                   category=OpCategory.MOVEMENT, bytes_read=nan,
                   stage="xfer"),
            _event(2, parents=(1,), name="to_host", flops=0.0,
                   category=OpCategory.MOVEMENT, bytes_written=nan,
                   stage="xfer"),
            _event(3, PHASE_SYMBOLIC, parents=(2,), flops=math.inf,
                   output_sparsity=nan, stage="bind"),
            _event(4, PHASE_SYMBOLIC, parents=(2, 3), flops=nan,
                   stage="bind"),
        ]),
    }


def _nan_overhead_device():
    """A device whose launch overhead is NaN: every event cost is NaN,
    so the critical-path maxima compare NaNs."""
    return dataclasses.replace(RTX_2080TI, name="nan-overhead",
                               kernel_launch_overhead=math.nan)


def observed_edge_cases() -> dict:
    runner = ResilientRunner()
    traces = edge_traces()
    out = {name: views(runner._safe_characterize(trace))
           for name, trace in traces.items()}
    out["nan_overhead_device"] = views(
        ResilientRunner(device=_nan_overhead_device())._safe_characterize(
            traces["critical_path_tie"]))
    out["operators_with_absent_phase"] = canonical(operator_breakdown(
        traces["untagged_phase"], RTX_2080TI,
        phases=(PHASE_NEURAL, "", "absent", PHASE_SYMBOLIC)))
    # a real workload with NaN faults in a fifth of its ops
    plan = FaultPlan.single("nan", seed=3, rate=0.2)
    with plan:
        trace = create("lnn", seed=0).profile()
    out["lnn_nan_faults"] = views(runner._safe_characterize(trace))
    return out


def write_fixture() -> None:
    pins = {"roster": {name: views(characterize_trace(
                           create(name, seed=0).profile()))
                       for name in available()},
            "edge_cases": observed_edge_cases()}
    FIXTURE.write_text(json.dumps(pins, indent=1) + "\n")


PINS = json.loads(FIXTURE.read_text())


def test_fixture_covers_the_roster():
    assert sorted(PINS["roster"]) == sorted(available())


@pytest.mark.parametrize("name", sorted(PINS["roster"]))
def test_seed0_views_exact(name):
    got = views(characterize_trace(cached_trace(name, seed=0)))
    want = PINS["roster"][name]
    for view in VIEWS:
        assert got[view] == want[view], view


@pytest.fixture(scope="module")
def edge_cases() -> dict:
    return json.loads(json.dumps(observed_edge_cases()))


@pytest.mark.parametrize("name", sorted(PINS["edge_cases"]))
def test_edge_case_views_exact(edge_cases, name):
    assert edge_cases[name] == PINS["edge_cases"][name]


def test_edge_case_semantics(edge_cases):
    """The properties the pinned edge cases exist to hold."""
    after = edge_cases["parent_after_child"]["opgraph"]
    assert (after["num_edges"], after["critical_path_length"]) == (2, 3)
    assert edge_cases["duplicate_parents"]["opgraph"]["num_edges"] == 3
    assert edge_cases["missing_parents"]["opgraph"]["num_edges"] == 1
    untagged = edge_cases["untagged_phase"]
    assert [p for p, _ in untagged["boundedness"]] == [
        PHASE_NEURAL, PHASE_SYMBOLIC]
    assert [p for p, _ in untagged["latency"]["phase_times"]] == [
        "", PHASE_NEURAL, PHASE_SYMBOLIC]
    assert edge_cases["empty_trace"]["opgraph"]["max_width"] == 0
    tie = edge_cases["critical_path_tie"]["opgraph"]
    assert [p for p, _ in tie["critical_path_phase_times"]] == [PHASE_NEURAL]
    assert tie["max_width"] == 2
    assert edge_cases["cycle"] is None
    assert dict(edge_cases["poisoned"]["boundedness"])[PHASE_NEURAL] \
        == "memory"
    absent = edge_cases["operators_with_absent_phase"]
    assert absent[2]["total_time"] == 0 and absent[2]["category_times"] == []


def test_characterize_trace_does_not_import_networkx():
    """The characterization path sweeps the op graph itself; networkx
    stays a dependency of the workloads and datasets only."""
    code = (
        "import sys\n"
        "from repro.core.profiler import Trace, TraceEvent\n"
        "from repro.core.suite import characterize_trace\n"
        "from repro.core.taxonomy import OpCategory\n"
        "events = [TraceEvent(eid=i, name='add', phase=phase, flops=1.0,\n"
        "                     category=OpCategory.ELEMENTWISE,\n"
        "                     parents=(i - 1,) if i else ())\n"
        "          for i, phase in enumerate(['neural', 'symbolic'])]\n"
        "characterize_trace(Trace('chain', events))\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
