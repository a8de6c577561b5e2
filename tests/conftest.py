"""Shared fixtures: cached workload traces (profiling is the expensive
part, so each workload is profiled once per test session)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.profiler import Trace
from repro.workloads import PAPER_ORDER, create

_TRACE_CACHE = {}

#: Numeric contract (DESIGN.md §4h) of the accumulating kernels
#: (conv2d's BLAS GEMM, AvgPool2d's window sum): an output element may
#: differ from the exact value by at most ``rtol`` times the sum of the
#: absolute terms it accumulates; atol is 0.  Keyed by output dtype.
ACCUMULATE_RTOL = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}


def cached_trace(name: str, **params) -> Trace:
    """Profile ``name`` once per unique parameterization."""
    key = (name, tuple(sorted(params.items())))
    if key not in _TRACE_CACHE:
        workload = create(name, **params)
        _TRACE_CACHE[key] = workload.profile()
    return _TRACE_CACHE[key]


@pytest.fixture(scope="session")
def nvsa_trace() -> Trace:
    return cached_trace("nvsa", seed=0)


@pytest.fixture(scope="session")
def prae_trace() -> Trace:
    return cached_trace("prae", seed=0)


@pytest.fixture(scope="session")
def lnn_trace() -> Trace:
    return cached_trace("lnn", seed=0)


@pytest.fixture(scope="session")
def ltn_trace() -> Trace:
    return cached_trace("ltn", seed=0)


@pytest.fixture(scope="session")
def nlm_trace() -> Trace:
    return cached_trace("nlm", seed=0)


@pytest.fixture(scope="session")
def vsait_trace() -> Trace:
    return cached_trace("vsait", seed=0)


@pytest.fixture(scope="session")
def zeroc_trace() -> Trace:
    return cached_trace("zeroc", seed=0)


@pytest.fixture(scope="session")
def all_traces() -> dict:
    return {name: cached_trace(name, seed=0) for name in PAPER_ORDER}
