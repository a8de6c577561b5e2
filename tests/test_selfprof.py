"""Self-profiling ledger, opportunity analyzer, and the RL107 clock
lint: the dispatch-overhead observatory's invariants.

* attribution exactness — the ledgered dispatcher places probes at
  shared segment boundaries, so one op's component deltas telescope:
  they tile the instrumented wall time exactly (asserted with an
  injected deterministic clock);
* exact op count — the ledger records exactly the ops ``run_op``
  reports to op observers, per category, across the roster;
* zero interference — the traced events are bit-identical with and
  without the ledger (counters and event-stream digests), across the
  roster and under a fault plan, and the scoped ledger always
  uninstalls;
* determinism — the deterministic ledger view, its digest, and the
  opportunity report are bit-identical across two seeded runs;
* RL107 — raw ``time.*`` clock reads are banned from the shipped
  tree (zero pragmas) and the seeded mutant fixture keeps tripping.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import warnings
from collections import Counter
from pathlib import Path

import pytest

from repro import tensor as T
from repro.core.taxonomy import OpCategory
from repro.lint.engine import LintConfig, default_scan_root, run_lint
from repro.obs import selfprof
from repro.obs.opportune import analyze_trace
from repro.obs.runrec import counters_digest
from repro.resilience import (FAULT_LATENCY, FAULT_NAN, FAULT_RAISE,
                              FaultPlan, FaultSpec, InjectedFaultError)
from repro.tensor import dispatch
from repro.tensor.context import op_observer
from repro.workloads import available, create
from tests.conftest import cached_trace
from tests.test_roster_pin import events_digest

MUTANTS = Path(__file__).resolve().parent / "fixtures" / "clock_mutants"
ROSTER = sorted(available())


class _CategoryCounter:
    """Op observer counting ``run_op`` dispatches per category."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def observe_op(self, event, inputs, output) -> None:
        self.counts[event.category.value] += 1


def _profile_with_ledger(name="lnn", seed=0):
    with selfprof.scoped_ledger() as ledger:
        trace = create(name, seed=seed).profile()
    return trace, ledger


class TestLedgerAttribution:
    def test_components_tile_op_wall_time_exactly(self, monkeypatch):
        """With a deterministic injected clock, every op's recorded
        components sum to exactly its probe-bracketed wall time."""
        ticker = itertools.count(step=7)
        monkeypatch.setattr(dispatch, "_perf_ns",
                            lambda: next(ticker))
        per_op_sums = []
        original_record = selfprof.DispatchLedger.record

        def capturing_record(self, category, parts):
            per_op_sums.append(sum(parts.values()))
            original_record(self, category, parts)

        monkeypatch.setattr(selfprof.DispatchLedger, "record",
                            capturing_record)
        trace, ledger = _profile_with_ledger()
        assert per_op_sums
        # ten probes, step 7: the telescoped deltas must sum to
        # exactly p9 - p0 = 9 * 7 for every single op
        assert set(per_op_sums) == {9 * 7}
        assert ledger.total_ns == len(per_op_sums) * 9 * 7

    def test_measured_totals_tile_by_construction(self):
        _, ledger = _profile_with_ledger()
        totals = ledger.component_ns()
        assert sum(totals.values()) == ledger.total_ns
        assert ledger.kernel_ns + ledger.overhead_ns == ledger.total_ns
        # per-category buckets partition the totals
        by_category = {
            c: ledger.component_ns(c) for c in ledger.ops_by_category()}
        for component, ns in totals.items():
            assert ns == sum(bucket.get(component, 0)
                             for bucket in by_category.values())

    @pytest.mark.parametrize("name", ROSTER)
    def test_ops_match_dispatched_events(self, name):
        """The ledger counts exactly the ops run_op dispatched under
        the profile context, per category (only run_op notifies op
        observers, and only for traced ops, as it only then records)."""
        counter = _CategoryCounter()
        with selfprof.scoped_ledger() as ledger, op_observer(counter):
            create(name, seed=0).profile()
        assert ledger.ops > 0
        assert ledger.ops_by_category() == dict(counter.counts)

    def test_headroom_bounds(self):
        _, ledger = _profile_with_ledger()
        assert 0.0 < ledger.measured_headroom < 1.0
        assert 0.0 < ledger.modeled_headroom(1e-3) < 1.0
        assert ledger.modeled_headroom(0.0) == 1.0
        assert ledger.modeled_overhead_ns() == \
            ledger.ops * selfprof.MODELED_OVERHEAD_NS_PER_OP


class TestLedgerConcurrency:
    def test_concurrent_records_are_never_lost(self, monkeypatch):
        """More recording threads than cores, with a short switch
        interval and a fold every few records: every record lands in
        the totals exactly once."""
        monkeypatch.setattr(selfprof, "FOLD_EVERY", 3)
        ledger = selfprof.DispatchLedger()
        parts = dict.fromkeys(selfprof.COMPONENTS, 1)
        threads_n, per_thread = 6, 5000

        def feed(category):
            for _ in range(per_thread):
                ledger.record(category, parts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=feed, args=(f"c{i % 2}",))
                       for i in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        total = threads_n * per_thread
        assert ledger.ops == total
        assert ledger.ops_by_category() == {"c0": total // 2,
                                             "c1": total // 2}
        assert ledger.component_ns() == dict.fromkeys(
            selfprof.COMPONENTS, total)


def _faulted_lnn(ledgered: bool):
    """Run seed-0 LNN under one fault plan (poison, latency, and a
    raising spec at op 150); returns the partial trace, the raised
    error and the injection schedule."""
    workload = create("lnn", seed=0)
    workload.build()
    plan = FaultPlan([FaultSpec(kind=FAULT_RAISE, op_index=150),
                      FaultSpec(kind=FAULT_NAN, rate=0.1),
                      FaultSpec(kind=FAULT_LATENCY, rate=0.1)], seed=5)
    scope = (selfprof.scoped_ledger() if ledgered
             else contextlib.nullcontext())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # NaN math
        with scope, plan, T.profile("lnn") as prof:
            with pytest.raises(InjectedFaultError) as excinfo:
                workload.run()
    return prof.trace, excinfo.value, plan.schedule()


class TestZeroInterference:
    @pytest.mark.parametrize("name", ROSTER)
    def test_counters_digest_identical_with_and_without_ledger(self, name):
        plain = cached_trace(name, seed=0)
        ledgered, _ = _profile_with_ledger(name)
        assert counters_digest(plain) == counters_digest(ledgered)
        assert events_digest(plain) == events_digest(ledgered)

    def test_fault_plan_identical_with_and_without_ledger(self):
        plain, plain_error, plain_schedule = _faulted_lnn(False)
        ledgered, error, schedule = _faulted_lnn(True)
        assert {kind for _, _, kind in schedule} \
            == {FAULT_RAISE, FAULT_NAN, FAULT_LATENCY}
        assert schedule == plain_schedule
        assert (error.op_name, error.op_index) \
            == (plain_error.op_name, plain_error.op_index)
        assert error.op_index == 150
        assert counters_digest(ledgered) == counters_digest(plain)
        assert events_digest(ledgered) == events_digest(plain)

    def test_flag_restores_after_scope(self):
        assert selfprof.active_ledger() is None
        with selfprof.scoped_ledger() as ledger:
            assert selfprof.active_ledger() is ledger
        assert selfprof.active_ledger() is None

    def test_flag_restores_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with selfprof.scoped_ledger():
                raise RuntimeError("boom")
        assert selfprof.active_ledger() is None

    def test_scopes_do_not_nest(self):
        with selfprof.scoped_ledger():
            with pytest.raises(RuntimeError, match="nest"):
                with selfprof.scoped_ledger():
                    pass
        assert selfprof.active_ledger() is None

    def test_enabled_outside_profile_context(self):
        """Dispatch outside any profile context still computes, and
        the ledger skips it (nothing is traced either)."""
        from repro import tensor as T
        with selfprof.scoped_ledger() as ledger:
            result = T.add(T.tensor([1.0, 2.0]), T.tensor([3.0, 4.0]))
        assert result.numpy().tolist() == [4.0, 6.0]
        assert ledger.ops == 0


class TestDeterminism:
    def test_deterministic_view_bit_identical_across_runs(self):
        _, first = _profile_with_ledger("nvsa")
        _, second = _profile_with_ledger("nvsa")
        assert first.deterministic_dict() == second.deterministic_dict()
        assert first.digest() == second.digest()

    def test_opportunity_report_bit_identical_across_runs(self):
        first = analyze_trace(create("nvsa", seed=0).profile())
        second = analyze_trace(create("nvsa", seed=0).profile())
        assert first.to_dict(deterministic_only=True) \
            == second.to_dict(deterministic_only=True)
        assert first.digest() == second.digest()

    def test_opportunities_ranked_and_typed(self):
        report = analyze_trace(create("nvsa", seed=0).profile())
        assert report.opportunities
        kinds = {o.kind for o in report.opportunities}
        assert kinds <= {"fuse_chain", "hoist_invariant", "prealloc"}
        savings = [o.projected_saved_ns for o in report.opportunities]
        assert savings == sorted(savings, reverse=True)
        assert report.total_projected_saved_ns == sum(savings)

    def test_fusible_chains_are_linked_elementwise(self):
        trace = create("nvsa", seed=0).profile()
        report = analyze_trace(trace)
        by_eid = {e.eid: e for e in trace.events}
        chains = [o for o in report.opportunities
                  if o.kind == "fuse_chain"]
        assert chains
        for chain in chains[:10]:
            events = [by_eid[eid] for eid in chain.eids]
            assert all(e.category is OpCategory.ELEMENTWISE
                       for e in events)
            for producer, consumer in zip(events, events[1:]):
                assert producer.eid in consumer.parents

    def test_render_smoke(self):
        trace, ledger = _profile_with_ledger("nvsa")
        assert "dispatch-overhead ledger" in ledger.render()
        assert "opportunities" in analyze_trace(trace).render()


class TestLintRL107:
    def test_mutants_are_flagged(self):
        result = run_lint(LintConfig(root=MUTANTS, select={"RL107"}))
        findings = [f for f in result.findings
                    if f.check_id == "RL107"]
        assert [f.path for f in findings] == ["raw_clock.py"] * 5
        flagged = {f.message.split(";")[0] for f in findings}
        assert any("perf_counter" in m for m in flagged)
        assert any("time.time" in m for m in flagged)
        assert any("monotonic" in m for m in flagged)

    def test_shipped_tree_is_clean_without_pragmas(self):
        result = run_lint(LintConfig(root=default_scan_root(),
                                     select={"RL107"}))
        assert [f for f in result.findings
                if f.check_id == "RL107"] == []
        assert [f for f in result.suppressed
                if f.check_id == "RL107"] == []

    def test_approved_helpers_are_exempt(self):
        clock = default_scan_root() / "obs" / "clock.py"
        assert clock.exists()
        source = clock.read_text()
        assert "perf_counter" in source  # the one place raw clocks live

    def test_sleep_is_not_a_clock_read(self, tmp_path):
        (tmp_path / "sleeper.py").write_text(
            "import time\n\ndef nap():\n    time.sleep(0.1)\n")
        result = run_lint(LintConfig(root=tmp_path, select={"RL107"}))
        assert result.findings == []
