"""Compiled-tier dispatch speedup: >=5x over the eager overhead model.

ISSUE 10's acceptance number: on NVSA and PrAE the compiled executor
must cut modeled per-op dispatch overhead by at least **5x** against
the PR 9 self-profiling cost model (``MODELED_OVERHEAD_NS_PER_OP``).

Wall-clock A/B deltas at this scale are noise-dominated (the kernels
themselves are shared between the tiers by construction), so the
asserted speedup is de-noised the same way ``bench_dispatch_overhead``
de-noises its budget: it is computed from the **frozen cost models**
over the plan's deterministic facts —

    eager    = op_steps * MODELED_OVERHEAD_NS_PER_OP
    compiled = op_steps * COMPILED_STEP_NS + groups * COMPILED_FLUSH_NS

which makes the assertion exact and machine-independent.  Measured
end-to-end walls (best-of-N eager profile vs compiled execute) are
reported as context only.

Determinism rides along: the plan digest, step/group counts, and
modeled reduction for seeded NVSA/PrAE must match the committed
``baselines/compile_speedup_baseline.json`` bit-for-bit, and each
run's ``compile.*`` metrics land in ``benchmarks/history.jsonl`` where
``repro obs history gate`` watches them longitudinally.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.compile import capture_plan, execute
from repro.core.report import format_time, render_table
from repro.workloads import create

from conftest import emit

WORKLOADS = ("nvsa", "prae")
ROUNDS = 3
SPEEDUP_FLOOR = 5.0

BASELINE = Path(__file__).parent / "baselines" \
    / "compile_speedup_baseline.json"


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def plan_facts(plan) -> dict:
    """The deterministic plan surface the baseline pins."""
    return {
        "digest": plan.digest(),
        "counters_digest": plan.counters_digest,
        "steps": len(plan.steps),
        "op_steps": plan.op_steps,
        "region_steps": plan.region_steps,
        "groups": len(plan.groups),
        "fused_groups": plan.fused_groups,
        "hoisted_steps": plan.hoisted_steps,
        "arena_buffers": len(plan.arena),
        "modeled_reduction_x": round(plan.modeled_reduction(), 6),
    }


def measure_compile_speedup():
    rows = []
    reductions = {}
    facts = {}
    for name in WORKLOADS:
        plan = capture_plan(create(name, seed=0))  # also warms caches
        facts[name] = plan_facts(plan)
        reductions[name] = plan.modeled_reduction()

        def eager_run():
            create(name, seed=0).profile()

        def compiled_run():
            execute(create(name, seed=0), plan)

        eager, compiled = float("inf"), float("inf")
        for _ in range(ROUNDS):
            eager = min(eager, _timed(eager_run))
            compiled = min(compiled, _timed(compiled_run))

        rows.append([
            name.upper(), facts[name]["op_steps"],
            facts[name]["fused_groups"], facts[name]["hoisted_steps"],
            f"{reductions[name]:.2f}x",
            format_time(eager), format_time(compiled),
            f"{(1.0 - compiled / eager) * 100:+.1f}%"])
    return rows, reductions, facts


def test_compile_speedup(benchmark):
    rows, reductions, facts = benchmark.pedantic(
        measure_compile_speedup, rounds=1, iterations=1)
    emit("compile_speedup", render_table(
        ["workload", "op steps", "fused", "hoisted",
         "modeled reduction", "eager wall", "compiled wall",
         "wall delta (noisy)"], rows,
        title="compiled-tier dispatch-overhead reduction "
              f"(floor {SPEEDUP_FLOOR:.0f}x vs the eager overhead "
              f"model, best of {ROUNDS})"),
        rows=rows,
        columns=["workload", "op_steps", "fused_groups",
                 "hoisted_steps", "modeled_reduction", "eager_wall",
                 "compiled_wall", "wall_delta"],
        meta={"floor": SPEEDUP_FLOOR, "rounds": ROUNDS,
              "reductions": reductions})
    for name, reduction in reductions.items():
        assert reduction >= SPEEDUP_FLOOR, (
            f"{name}: compiled tier reduces modeled dispatch overhead "
            f"by {reduction:.2f}x, below the {SPEEDUP_FLOOR:.0f}x "
            "acceptance floor — fusion/grouping regressed")


def test_compile_plan_baseline():
    """Seeded plan facts match the committed baseline bit-for-bit."""
    current = {name: plan_facts(capture_plan(create(name, seed=0)))
               for name in WORKLOADS}
    committed = json.loads(BASELINE.read_text())
    assert current == committed, (
        "deterministic compiled-plan facts drifted from "
        "baselines/compile_speedup_baseline.json — if the capture "
        "pipeline or optimization passes changed intentionally, "
        "regenerate the baseline and record the change in a history "
        "entry. If only `digest` differs while counters_digest and the "
        "structural fields match, the cause may be a different BLAS "
        "build or CPU: conv outputs are held to a tolerance, not to "
        "bits (DESIGN.md section 4h)")
