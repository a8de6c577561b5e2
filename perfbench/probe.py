"""Machine-speed reference probe.

The VM this benchmark targets drifts in speed by 25-30% between
processes, even for a pure-Python loop.  A fixed reference workload,
timed right next to each measured operation in the same process,
measures that drift; scaling an operation's time by
``NOMINAL_PROBE_S / measured`` reports it at the probe's nominal speed.

The probe mixes the two kinds of work the roster spends its time on:

* a pure-Python part (dict/tuple churn, attribute lookups, small
  function calls), like the dispatcher's per-op bookkeeping;
* a numpy part (an im2col ``einsum`` GEMM and a window max), like the
  ``conv2d`` and ``maxpool2d`` kernels.

The probe is fixed: its inputs do not depend on the workload seed and
it touches no code of the program under test, so a change to the
program cannot change the probe.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, List, Tuple

import numpy as np

#: Probe seconds on the reference machine (2-vCPU x86-64 VM,
#: CPython 3.11, numpy with OpenBLAS pinned to one thread).  Scaled
#: metrics read "as if the probe took this long"; the value is a unit,
#: not a measurement the result depends on.
NOMINAL_PROBE_S = 0.002

_RNG = np.random.default_rng(12345)
_W = _RNG.standard_normal((16, 72)).astype(np.float32)
_COLS = _RNG.standard_normal((6, 72, 196)).astype(np.float32)


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: tuple, value: int):
        self.key = key
        self.value = value


def _python_part() -> int:
    table: dict = {}
    acc = 0
    for i in range(3000):
        key = (i & 63, "op", i & 7)
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(key, 0)
        node.value += i
        acc += len(node.key) + (node.value & 3)
    return acc


def _numpy_part() -> float:
    out = np.einsum("ok,nkl->nol", _W, _COLS)          # (6, 16, 196)
    grid = out.reshape(6, 16, 14, 14)
    windows = np.lib.stride_tricks.sliding_window_view(
        grid, (2, 2), axis=(2, 3))[:, :, ::2, ::2]
    return float(windows.max(axis=(-1, -2)).sum())


def assert_single_thread() -> None:
    """Fail the run when any thread but the caller's is alive.

    A change that leaves background threads running would slow the
    probe and so hide its own cost in the scaling; refuse to measure
    instead.
    """
    alive = threading.enumerate()
    if len(alive) != 1:
        names = ", ".join(sorted(t.name for t in alive))
        raise RuntimeError(
            f"probe needs the benchmark's thread alone; alive: {names}")


def probe_s() -> float:
    """Seconds one probe takes now (checks the thread rule first)."""
    assert_single_thread()
    start = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - start


def scaled_steps(steps: Iterable[Callable[[], object]]) -> Tuple[float, float]:
    """Run ``steps`` in turn; (raw seconds, probe-scaled seconds).

    A probe runs before each step, outside its timed region, and each
    step's time is scaled by that probe — the same scheme as the roster
    operations, so a long set-up is scaled by the speed the machine had
    while each part ran.
    """
    raw = scaled = 0.0
    for step in steps:
        probe = probe_s()
        start = time.perf_counter()
        step()
        took = time.perf_counter() - start
        raw += took
        scaled += took * NOMINAL_PROBE_S / probe
    return raw, scaled


def probe_median_s(reps: int = 5) -> float:
    """Median of ``reps`` probes, for spots with no operation beside."""
    samples: List[float] = sorted(probe_s() for _ in range(reps))
    return samples[len(samples) // 2]


def blas_settings() -> dict:
    """BLAS/OpenMP thread settings in effect (environment view)."""
    import os
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {name: os.environ.get(name, "") for name in names}
