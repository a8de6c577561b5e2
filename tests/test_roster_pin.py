"""Roster result pin: every workload's seed-0 output under the numeric
contract (DESIGN.md §4h).

``fixtures/roster_seed0.json`` holds, for each of the 11 workloads at
seed 0, the counters digest, an event-stream digest and the result
values, recorded from the
code as it stood before conv2d moved to BLAS GEMM (the einsum
kernel).  A kernel change must keep both digests exact and every float
result within :data:`RESULT_RTOL` / :data:`RESULT_ATOL`; ints,
strings and bools stay exact.  Regenerate only when the *expected*
outputs change on purpose, with::

    PYTHONPATH=src python -c "from tests.test_roster_pin import \\
        write_fixture; write_fixture()"
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.obs.runrec import counters_digest
from repro.workloads import available, create
from tests.conftest import cached_trace

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "roster_seed0.json"

#: float-result tolerance of the contract (``math.isclose``)
RESULT_RTOL = 1e-5
RESULT_ATOL = 1e-9


def canonical(value: object) -> object:
    """JSON-ready form of a workload result (numpy scalars, tuples)."""
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [canonical(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    return repr(value)


def events_digest(trace) -> str:
    """sha256 over the event stream's structure: per event its name,
    category, phase, shapes and parent links, in order."""
    stream = [[e.name, e.category.value, e.phase,
               [list(s) for s in e.input_shapes], list(e.output_shape),
               list(e.parents)] for e in trace.events]
    canonical_json = json.dumps(stream, separators=(",", ":"))
    return hashlib.sha256(canonical_json.encode()).hexdigest()


def observed(trace) -> dict:
    return {"digest": counters_digest(trace),
            "events": events_digest(trace),
            "result": canonical(trace.metadata.get("result", {}))}


def write_fixture() -> None:
    pins = {name: observed(create(name, seed=0).profile())
            for name in available()}
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def mismatches(got: object, want: object, path: str = "result") -> list:
    """Paths where ``got`` breaks the contract against ``want``."""
    if isinstance(want, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        if math.isnan(want):
            return [] if math.isnan(got) else [path]
        close = math.isclose(got, want, rel_tol=RESULT_RTOL,
                             abs_tol=RESULT_ATOL)
        return [] if close else [path]
    if isinstance(want, dict) and isinstance(got, dict) \
            and got.keys() == want.keys():
        return [p for k in want
                for p in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list) \
            and len(got) == len(want):
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [path]


PINS = json.loads(FIXTURE.read_text())


def test_fixture_covers_the_roster():
    assert sorted(PINS) == sorted(available())


@pytest.mark.parametrize("name", sorted(PINS))
def test_seed0_results_within_contract(name):
    got = observed(cached_trace(name, seed=0))
    assert got["digest"] == PINS[name]["digest"]
    assert got["events"] == PINS[name]["events"]
    assert mismatches(got["result"], PINS[name]["result"]) == []


def test_mismatches_applies_the_tolerance():
    want = {"a": 1.0, "b": [2, "x", True], "c": float("nan")}
    assert mismatches({"a": 1.0 + 5e-6, "b": [2, "x", True],
                       "c": float("nan")}, want) == []
    assert mismatches({"a": 1.0 + 5e-5, "b": [3, "x", True],
                       "c": 0.0}, want) == ["result.a", "result.b[0]",
                                            "result.c"]
