"""Dispatch-overhead self-profiling: cost budget and determinism.

Two budgets guard the selfprof layer (ISSUE 9):

* **off path** — with no ledger installed
  (:data:`repro.obs.selfprof.ACTIVE` is ``None``) the one dispatch path
  pays one module-attribute load, nine short-circuited
  ``ledger and perf_ns()`` probes, and one falsy ``ledger is not None``
  branch per op.  Those instructions are micro-timed below and
  reported; at well under a microsecond per op they are unmeasurable
  against any workload wall time, so the off path carries no assertion
  beyond staying under the on-path probe cost and the determinism
  check.
* **on path** — with a scoped ledger active every op pays ten
  ``perf_ns`` probes plus one ``DispatchLedger.record``.  Wall-clock
  A/B deltas of that size are noise-dominated (same argument as
  ``bench_obs_overhead``), so the asserted overhead is de-noised: the
  per-op probe+record cost is micro-timed over 200k iterations,
  multiplied by the workload's op count, and divided by the best-of-N
  plain profiling wall.  Budget: <5%.

Determinism rides along: the deterministic ledger view and the
opportunity-report digest for seeded NVSA must match the committed
``baselines/dispatch_overhead_baseline.json`` bit-for-bit — the same
property ``repro obs history gate`` relies on.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.report import format_time, render_table
from repro.obs import selfprof
from repro.obs.opportune import analyze_trace
from repro.workloads import create

from conftest import emit

WORKLOADS = ("nvsa", "prae")
ROUNDS = 5
MICRO_CALLS = 200_000
OVERHEAD_BUDGET = 0.05

BASELINE = Path(__file__).parent / "baselines" \
    / "dispatch_overhead_baseline.json"


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _probe_cost() -> float:
    """Per-op cost of the live probes, in seconds.

    With a ledger installed one op adds exactly ten ``perf_ns`` reads,
    one parts-dict construction, and one ``DispatchLedger.record``;
    everything else is the same dispatch path with or without it.
    """
    from repro.obs.clock import perf_ns
    ledger = selfprof.DispatchLedger()
    start = time.perf_counter()
    for _ in range(MICRO_CALLS):
        p0 = perf_ns(); p1 = perf_ns(); p2 = perf_ns()  # noqa: E702
        p3 = perf_ns(); p4 = perf_ns(); p5 = perf_ns()  # noqa: E702
        p6 = perf_ns(); p7 = perf_ns(); p8 = perf_ns()  # noqa: E702
        p9 = perf_ns()
        ledger.record("elementwise", {
            "taxonomy": p1 - p0, "inputs": p2 - p1, "fault": p3 - p2,
            "kernel": p4 - p3, "counters": p5 - p4, "span": p6 - p5,
            "record": p7 - p6, "observer": p8 - p7, "metrics": p9 - p8})
    return (time.perf_counter() - start) / MICRO_CALLS


def _guard_cost() -> float:
    """Per-op cost of the probes with no ledger installed, in seconds.

    The exact instructions :func:`repro.tensor.dispatch.run_op` pays
    for self-profiling when it is off: one module-attribute read of
    the ledger, nine short-circuited probes (``p0``..``p8``), and the
    falsy branch that guards ``p9`` and ``DispatchLedger.record``.
    """
    from repro.obs.clock import perf_ns
    if selfprof.ACTIVE is not None:
        raise AssertionError("selfprof unexpectedly enabled")
    start = time.perf_counter()
    for _ in range(MICRO_CALLS):
        ledger = selfprof.ACTIVE
        p0 = ledger and perf_ns(); p1 = ledger and perf_ns()  # noqa: E702
        p2 = ledger and perf_ns(); p3 = ledger and perf_ns()  # noqa: E702
        p4 = ledger and perf_ns(); p5 = ledger and perf_ns()  # noqa: E702
        p6 = ledger and perf_ns(); p7 = ledger and perf_ns()  # noqa: E702
        p8 = ledger and perf_ns()
        if ledger is not None:
            raise AssertionError((p0, p1, p2, p3, p4, p5, p6, p7, p8))
    return (time.perf_counter() - start) / MICRO_CALLS


def measure_dispatch_overhead():
    per_probe = _probe_cost()
    per_guard = _guard_cost()
    rows = []
    on_path_overheads = {}
    ledgers = {}
    for name in WORKLOADS:
        with selfprof.scoped_ledger() as ledger:
            create(name, seed=0).profile()  # also warms caches
        ledgers[name] = ledger

        def plain_run():
            create(name, seed=0).profile()

        def ledgered_run():
            with selfprof.scoped_ledger() as inner:
                create(name, seed=0).profile()
                assert inner.ops > 0

        plain, ledgered = float("inf"), float("inf")
        for _ in range(ROUNDS):
            plain = min(plain, _timed(plain_run))
            ledgered = min(ledgered, _timed(ledgered_run))

        overhead = ledger.ops * per_probe / plain
        on_path_overheads[name] = overhead
        rows.append([name.upper(), ledger.ops, format_time(plain),
                     format_time(ledgered),
                     f"{(ledgered / plain - 1.0) * 100:+.2f}%",
                     f"{overhead * 100:+.2f}%"])
    return (rows, on_path_overheads, ledgers, per_probe, per_guard)


def test_dispatch_overhead(benchmark):
    (rows, on_path_overheads, ledgers, per_probe,
     per_guard) = benchmark.pedantic(measure_dispatch_overhead,
                                     rounds=1, iterations=1)
    emit("dispatch_overhead", render_table(
        ["workload", "ops", "plain profile", "ledgered",
         "wall delta (noisy)", "on-path overhead"], rows,
        title="self-profiling dispatch overhead "
              f"(budget {OVERHEAD_BUDGET:.0%}; probes+record = "
              f"{per_probe * 1e6:.2f} us/op, off-path probes = "
              f"{per_guard * 1e9:.1f} ns/op, best of {ROUNDS})"),
        rows=rows,
        columns=["workload", "ops", "plain", "ledgered", "wall_delta",
                 "on_path_overhead"],
        meta={"budget": OVERHEAD_BUDGET, "rounds": ROUNDS,
              "probe_record_us": per_probe * 1e6,
              "guard_ns": per_guard * 1e9,
              "on_path_overheads": on_path_overheads})
    # off path: a ledger read, nine short-circuited probes and one
    # branch — tens of ns; just confirm it is well under the probes
    assert per_guard < per_probe
    # on path: de-noised per-op probe cost scaled by op count must
    # stay within the budget
    for name, overhead in on_path_overheads.items():
        assert overhead < OVERHEAD_BUDGET, (
            f"{name}: self-profiling overhead {overhead:.1%} exceeds "
            f"{OVERHEAD_BUDGET:.0%} budget "
            f"(probes+record {per_probe * 1e6:.2f} us/op)")


def test_dispatch_determinism_baseline():
    """Deterministic views match the committed baseline bit-for-bit."""
    with selfprof.scoped_ledger() as ledger:
        trace = create("nvsa", seed=0).profile()
    report = analyze_trace(trace)
    current = {
        "ledger_deterministic": ledger.deterministic_dict(),
        "ledger_digest": ledger.digest(),
        "opportunities_digest": report.digest(),
        "opportunities_count": len(report.opportunities),
        "projected_saved_ns": report.total_projected_saved_ns,
    }
    committed = json.loads(BASELINE.read_text())
    assert current == committed, (
        "deterministic dispatch ledger / opportunity report drifted "
        "from baselines/dispatch_overhead_baseline.json — if the "
        "dispatcher or cost model changed intentionally, regenerate "
        "the baseline and record the change in a history entry")
