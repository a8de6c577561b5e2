"""``roster-conv`` and ``roster-smallops``: closed-loop roster inference.

One client, closed loop: each operation is one ``repro roster``-style
inference on a fresh instance —
``create(model, seed) -> build -> profile -> characterize_trace`` —
followed by the output check.  The client cycles through the
workload's five models; each model's seeds come from a pool drawn
from ``--seed``.  A fresh instance per operation matters: LNN and ABL
are not re-entrant, so reusing one built instance would report false
failures.

Untraced run (end-to-end metrics): a reference probe
(:mod:`probe`) runs before every operation, outside its timed region,
and each operation's time is scaled by ``NOMINAL_PROBE_S / probe``.

Traced run (per-layer metrics): the same loop with the dispatcher's
self-profiling ledger on around ``profile()`` and benchmark-side
timing around each public call.  Every ``UNTRACED_EVERY``-th operation
runs untraced, as the reference for ``trace.overhead_pct`` and for the
unscaled ``raw.*`` figures.  After the window, each model's compiled
plan (captured once in set-up) is timed against eager ``profile()`` on
fresh instances.
"""

from __future__ import annotations

import functools
import gc
import random
import sys
from typing import Dict, Iterator, List, Tuple

from common import (SEED_SPACE, Spans, check_trace, expectations, mean,
                    median, minor_faults, now, peak_rss_mb, percentile,
                    setup_samples)
from probe import NOMINAL_PROBE_S, probe_s, scaled_steps

WORKLOAD_MODELS: Dict[str, Tuple[str, ...]] = {
    "roster-conv": ("nvsa", "prae", "zeroc", "abl", "nsvqa"),
    "roster-smallops": ("mcts", "lnn", "nlm", "ltn", "gnn"),
}

#: seeds per model in one run's pool
POOL_SIZE = 8

#: in the traced run, every this-many-th operation runs untraced
UNTRACED_EVERY = 4

#: eager/compiled timing repetitions per model (traced run)
COMPILE_REPS = 3

KERNELS = ("conv2d", "maxpool2d", "batchnorm2d")

#: latency limit of one inference at the probe's nominal speed, for
#: ``slo_attainment`` (share of attempted inferences correct within
#: it): 1.25x the workload's p90 measured on the seed code (264 ms and
#: 62 ms), just above its slowest model's latency, so a slowdown of
#: that model by a quarter shows
ROSTER_SLO_S: Dict[str, float] = {
    "roster-conv": 0.330,
    "roster-smallops": 0.077,
}


def bypassed(workload: str) -> Tuple[str, ...]:
    """Metric prefixes of layers this workload does not use (read 0)."""
    others = [name for other, names in WORKLOAD_MODELS.items()
              if other != workload for name in names]
    return ("serve.", "resilience.") + tuple(
        f"compile.{name}." for name in others)


def setup(models: Tuple[str, ...]) -> Tuple[float, float]:
    """Import the entry modules, build each model, one warm-up pass.

    Returns (raw seconds, probe-scaled seconds).
    """
    def imports() -> None:
        import repro.core.suite  # noqa: F401
        import repro.workloads  # noqa: F401

    def build(name: str) -> None:
        from repro.workloads import create
        create(name, seed=0).build()

    def warm(name: str) -> None:
        from repro.core.suite import characterize_trace
        from repro.workloads import create
        characterize_trace(create(name, seed=0).profile())

    return scaled_steps(
        [imports] + [functools.partial(build, name) for name in models]
        + [functools.partial(warm, name) for name in models])


def setup_child(workload: str) -> Tuple[float, float]:
    return setup(WORKLOAD_MODELS[workload])


def schedule(models: Tuple[str, ...], seed: int) -> Iterator[Tuple[str, int]]:
    """Endless (model, seed) stream: models in turn, seeds from a pool."""
    rng = random.Random(seed)
    pools = {name: rng.sample(range(SEED_SPACE), POOL_SIZE)
             for name in models}
    cycle = 0
    while True:
        for name in models:
            yield name, pools[name][cycle % POOL_SIZE]
        cycle += 1


def pool_keys(models: Tuple[str, ...], seed: int) -> List[Tuple[str, int]]:
    stream = schedule(models, seed)
    return [next(stream) for _ in range(len(models) * POOL_SIZE)]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    models = WORKLOAD_MODELS[workload]
    own_setup = setup(models)
    # seed 0 of each model: the compile figures' instances
    expected = expectations(sorted(set(pool_keys(models, seed))
                                   | {(name, 0) for name in models}))
    if trace:
        return _traced(workload, models, seed, seconds, expected,
                       own_setup)
    return _untraced(workload, models, seed, seconds, expected, own_setup)


def _infer(create, characterize_trace, name: str, seed: int):
    """One inference; returns (trace, seconds)."""
    start = now()
    workload = create(name, seed=seed)
    workload.build()
    trace = workload.profile()
    characterize_trace(trace)
    return trace, now() - start


def _untraced(workload, models, seed, seconds, expected, own_setup) -> dict:
    from repro.core.suite import characterize_trace
    from repro.workloads import create
    raw: List[float] = []
    scaled: List[float] = []
    probes: List[float] = []
    failed = 0
    stream = schedule(models, seed)
    gc.collect()
    end = now() + seconds
    while now() < end:
        name, model_seed = next(stream)
        probe = probe_s()
        try:
            trace, took = _infer(create, characterize_trace, name,
                                 model_seed)
            ok = check_trace(trace, expected[(name, model_seed)])
        except Exception:  # noqa: BLE001 - a raising inference is a failed op
            took, ok = 0.0, False
        failed += not ok
        if ok:
            probes.append(probe)
            raw.append(took)
            scaled.append(took * NOMINAL_PROBE_S / probe)
    setup_raw, setup_scaled = setup_samples(workload, own_setup)
    print(f"perfbench: raw latency_p50_ms={median(raw) * 1e3:.2f} "
          f"throughput_per_s={len(raw) / sum(raw) if raw else 0.0:.3f} "
          f"setup_s={median(setup_raw):.3f} "
          f"probe_ms={median(probes) * 1e3:.3f}", file=sys.stderr)
    attempted = len(raw) + failed
    met = sum(took <= ROSTER_SLO_S[workload] for took in scaled)
    metrics = {
        "latency_p50_ms": median(scaled) * 1e3,
        "latency_p90_ms": percentile(scaled, 90) * 1e3,
        "throughput_per_s": len(scaled) / sum(scaled) if scaled else 0.0,
        "slo_attainment": met / attempted if attempted else 0.0,
        "setup_s": median(setup_scaled),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _traced(workload, models, seed, seconds, expected, own_setup) -> dict:
    from repro.compile import capture_plan
    from repro.core.suite import characterize_trace
    from repro.obs import selfprof
    from repro.workloads import create

    plans = {name: capture_plan(create(name, seed=0)) for name in models}
    spans = Spans()
    rows: List[Dict[str, float]] = []   # one per traced operation
    reference: List[float] = []        # untraced operations, scaled
    reference_raw: List[float] = []
    traced_scaled: List[float] = []
    probes: List[float] = []
    failed = 0
    stream = schedule(models, seed)
    gc.collect()
    end = now() + seconds
    op = 0
    while now() < end:
        name, model_seed = next(stream)
        probe = probe_s()
        probes.append(probe)
        untraced = op % UNTRACED_EVERY == UNTRACED_EVERY - 1
        try:
            if untraced:
                trace, took = _infer(create, characterize_trace, name,
                                     model_seed)
                row = None
            else:
                trace, took, row = _infer_traced(
                    create, characterize_trace, selfprof, spans, op, name,
                    model_seed)
            t0 = now()
            ok = check_trace(trace, expected[(name, model_seed)])
            if row is not None:
                spans.add("check", t0, now(), op=op, ok=ok)
        except Exception:  # noqa: BLE001 - a raising inference is a failed op
            took, ok, row = 0.0, False, None
        failed += not ok
        if ok and untraced:
            reference.append(took * NOMINAL_PROBE_S / probe)
            reference_raw.append(took)
        elif ok:
            traced_scaled.append(took * NOMINAL_PROBE_S / probe)
            rows.append(row)
        op += 1

    metrics = {key: mean([row[key] for row in rows]) for key in (
        "tensor.kernel.conv2d_ms", "tensor.kernel.maxpool2d_ms",
        "tensor.kernel.batchnorm2d_ms", "tensor.kernel_ms", "tensor.ops",
        "tensor.dispatch_ms", "tensor.dispatch.record_ms",
        "tensor.dispatch.counters_ms", "tensor.dispatch.inputs_ms",
        "tensor.dispatch.span_ms", "workloads.host_ms",
        "workloads.build_ms", "core.characterize_ms",
        "proc.minor_faults")}
    ops = sum(row["tensor.ops"] for row in rows)
    overhead_ns = sum(row["tensor.dispatch_ms"] for row in rows) * 1e6
    metrics["tensor.dispatch_us_per_op"] = overhead_ns / ops / 1e3 if ops else 0.0
    compiled, checked, mismatched = _compile_figures(
        create, models, plans, expected)
    metrics.update(compiled)
    traced_p50 = median(traced_scaled)
    reference_p50 = median(reference)
    metrics.update({
        "machine.probe_ms": median(probes) * 1e3,
        "raw.latency_p50_ms": median(reference_raw) * 1e3,
        "raw.throughput_per_s": (len(reference_raw) / sum(reference_raw)
                                 if reference_raw else 0.0),
        "raw.setup_s": own_setup[0],
        "trace.latency_p50_ms": traced_p50 * 1e3,
        "trace.samples": len(traced_scaled),
        "trace.reference_samples": len(reference),
        "trace.overhead_pct": (100.0 * (traced_p50 / reference_p50 - 1.0)
                               if reference_p50 else 0.0),
    })
    spans.write(workload, seed)
    return {"attempted": op + checked, "failed": failed + mismatched,
            "metrics": metrics}


def _infer_traced(create, characterize_trace, selfprof, spans: Spans,
                  op: int, name: str, seed: int):
    """One inference with per-layer timing; returns (trace, s, row)."""
    faults0 = minor_faults()
    t0 = now()
    workload = create(name, seed=seed)
    workload.build()
    t1 = now()
    with selfprof.scoped_ledger() as ledger:
        trace = workload.profile()
    t2 = now()
    characterize_trace(trace)
    t3 = now()
    faults = minor_faults() - faults0
    for span_name, start, stop in (("build", t0, t1), ("profile", t1, t2),
                                   ("characterize", t2, t3)):
        spans.add(span_name, start, stop, op=op, model=name, seed=seed)
    spans.add("inference", t0, t3, op=op, model=name, seed=seed)

    kernel_s: Dict[str, float] = {}
    for event in trace.events:
        kernel_s[event.name] = kernel_s.get(event.name, 0.0) + event.wall_time
    components = ledger.component_ns()
    overhead_ns = ledger.overhead_ns
    row = {
        "tensor.kernel_ms": sum(kernel_s.values()) * 1e3,
        "tensor.ops": float(len(trace.events)),
        "tensor.dispatch_ms": overhead_ns / 1e6,
        "workloads.host_ms": (t2 - t1) * 1e3 - ledger.total_ns / 1e6,
        "workloads.build_ms": (t1 - t0) * 1e3,
        "core.characterize_ms": (t3 - t2) * 1e3,
        "proc.minor_faults": float(faults),
    }
    for kernel in KERNELS:
        row[f"tensor.kernel.{kernel}_ms"] = kernel_s.get(kernel, 0.0) * 1e3
    for component in ("record", "counters", "inputs", "span"):
        row[f"tensor.dispatch.{component}_ms"] = (
            components.get(component, 0) / 1e6)
    return trace, t3 - t0, row


def _compile_figures(create, models, plans, expected):
    """Eager ``profile()`` vs the compiled tier per model, fresh instances.

    ``replay_ms`` is the compiled tier's time as the server's compiled
    mode pays it: ``run_compiled``, and when the replay diverges (raises
    ``PlanDivergenceError`` or returns outputs that fail the check) an
    eager ``profile()`` on a fresh instance after it.  A divergence
    counts in ``compile.<model>.divergences``, not as a failed
    operation.  (LNN diverges when replayed on the instance it was
    captured from, since it is not re-entrant; each replay here gets a
    fresh instance.)

    Returns (metrics, eager traces checked, eager traces that failed the
    check): eager outputs are checked like the roster operations'.
    """
    from repro.compile import PlanDivergenceError, run_compiled

    def built(name: str):
        workload = create(name, seed=0)
        workload.build()
        return workload

    out: Dict[str, float] = {}
    checked = mismatched = 0
    for name in models:
        want = expected[(name, 0)]
        eager: List[float] = []
        replay: List[float] = []
        divergences = 0
        for _ in range(COMPILE_REPS):
            workload = built(name)
            t0 = now()
            trace = workload.profile()
            eager.append(now() - t0)
            checked += 1
            mismatched += not check_trace(trace, want)

            workload = built(name)
            t0 = now()
            try:
                trace = run_compiled(workload, plans[name])
            except PlanDivergenceError:
                trace = None
            took = now() - t0
            if trace is None or not check_trace(trace, want):
                divergences += 1
                workload = built(name)
                t0 = now()
                trace = workload.profile()
                took += now() - t0
                checked += 1
                mismatched += not check_trace(trace, want)
            replay.append(took)
        out[f"compile.{name}.eager_ms"] = median(eager) * 1e3
        out[f"compile.{name}.replay_ms"] = median(replay) * 1e3
        out[f"compile.{name}.divergences"] = float(divergences)
    return out, checked, mismatched
