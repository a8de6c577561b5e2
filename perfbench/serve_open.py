"""``serve-open``: open-loop Poisson load on a live ``InferenceServer``.

One generator (the benchmark's main thread) sends requests on a fixed
schedule to a server with the default ``ServeConfig`` (2 workers,
``max_wait`` 50 ms, cache 32), whatever the server's progress: an open
loop.  The schedule comes from ``--seed``; the program receives only
``submit`` calls.

* Arrivals: ``RATE_PER_S`` on average.  ``WARMUP_S`` of warm-up
  traffic (excluded from the metrics; it fills the artifact cache)
  runs first, then the measured window of ``--seconds``.  Each phase
  holds exactly ``round(rate * length)`` requests at uniform random
  times, which is a Poisson process conditioned on its count, so the
  offered load is the same for every seed.
* Keys ``(model, seed)``: the five smallops models x ``SEED_SPACE``
  seeds = 80 keys, more than the cache's 32.  Models take turns in
  shuffled rounds, and each model's seeds follow Zipf popularity over a
  seed-shuffled ranking.  Both are stratified: every seed gives each
  model the same share of traffic and each rank the same number of
  requests, and only which seeds are hot and the order vary.  (The
  latency distribution is multimodal by model and its tail is set by
  cache misses, so i.i.d. draws would move the percentiles with the
  seed.)  Hot keys hit the cache and pay the deepcopy checkout; tail
  keys miss and build.

Latency is timed from when each request was *due* to its completion,
so a stall counts against the requests queued behind it; how late the
generator itself ran is ``serve.generator_lag_ms``.  Latencies stay in
raw wall-clock ms: 50 ms of each one is the batcher's wall-clock
``max_wait``, which a machine-speed scale would distort.

The traced run splits the window: its first ``REFERENCE_SHARE`` runs
untraced as the reference for ``trace.overhead_pct``; for the rest the
self-profiling ledger is on and each worker's ``execute_batch`` is
wrapped to time it and check the batch trace's digest and results.
"""

from __future__ import annotations

import functools
import gc
import random
import sys
import threading
import time
from typing import Dict, List, Tuple

from common import (SEED_SPACE, Spans, check_trace, expectations, mean,
                    median, minor_faults, now, peak_rss_mb, percentile,
                    setup_samples)
from probe import probe_median_s, scaled_steps

MODELS = ("mcts", "lnn", "nlm", "ltn", "gnn")
RATE_PER_S = 10.0
WARMUP_S = 4.0
ZIPF_S = 1.5
SLO_S = 0.300
REFERENCE_SHARE = 1.0 / 3.0

#: seconds to wait for the last responses after the final send
DRAIN_TIMEOUT_S = 60.0


def bypassed(workload: str) -> Tuple[str, ...]:
    """Metric prefixes this workload does not measure (read 0).

    All three workloads run eager, so the compile figures come from the
    roster runs; serve latencies are raw already, so there is no
    separate raw figure.
    """
    return ("compile.", "raw.latency_p50_ms", "raw.throughput_per_s")


def setup() -> Tuple[float, float]:
    """Import the serving stack, build each model's key in a server's
    cache, one warm-up request per model through the live server.

    Returns (raw seconds, probe-scaled seconds).
    """
    servers = []

    def imports() -> None:
        from repro.serve.server import InferenceServer
        servers.append(InferenceServer())

    def build(name: str) -> None:
        from repro.serve.cache import ArtifactKey
        servers[0].cache.checkout(ArtifactKey(workload=name, seed=0))

    def warm() -> None:
        server = servers[0]
        server.start()
        try:
            pendings = [server.submit(name, seed=0) for name in MODELS]
            for pending in pendings:
                pending.result(timeout=DRAIN_TIMEOUT_S)
        finally:
            server.stop()

    return scaled_steps([imports]
                        + [functools.partial(build, name) for name in MODELS]
                        + [warm])


def setup_child(workload: str) -> Tuple[float, float]:
    return setup()


def make_schedule(seed: int, seconds: float) -> List[Tuple[float, str, int, bool]]:
    """(offset_s, model, model_seed, in_window) for every request."""
    rng = random.Random(seed)
    hot = {name: rng.sample(range(SEED_SPACE), SEED_SPACE)
           for name in MODELS}
    out: List[Tuple[float, str, int, bool]] = []
    for start, length, in_window in ((0.0, WARMUP_S, False),
                                     (WARMUP_S, seconds, True)):
        count = round(RATE_PER_S * length)
        offsets = sorted(start + rng.random() * length for _ in range(count))
        models = [MODELS[i % len(MODELS)] for i in range(count)]
        keys = {name: [hot[name][rank] for rank in
                       _zipf_ranks(models.count(name), rng)]
                for name in MODELS}
        for block in range(0, count, len(MODELS)):
            models[block:block + len(MODELS)] = rng.sample(
                models[block:block + len(MODELS)],
                len(models[block:block + len(MODELS)]))
        for offset, name in zip(offsets, models):
            out.append((offset, name, keys[name].pop(), in_window))
    return out


def _zipf_ranks(count: int, rng: random.Random) -> List[int]:
    """``count`` Zipf-distributed ranks, stratified, in random order.

    Rank ``i`` of ``count`` is the Zipf quantile at ``(i + 0.5) / count``,
    so the multiset of ranks (and the number of distinct keys) is the
    same for every seed; only the order is random.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(SEED_SPACE)]
    total = sum(weights)
    ranks: List[int] = []
    cumulative, rank = weights[0] / total, 0
    for i in range(count):
        quantile = (i + 0.5) / count
        while cumulative < quantile:
            rank += 1
            cumulative += weights[rank] / total
        ranks.append(rank)
    rng.shuffle(ranks)
    return ranks


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    own_setup = setup()
    plan = make_schedule(seed, seconds)
    expected = (expectations(sorted({(m, s) for _, m, s, _ in plan}))
                if trace else {})
    from repro.serve.server import InferenceServer
    server = InferenceServer()
    tracer = _Tracer(server, expected) if trace else None
    trace_from = WARMUP_S + REFERENCE_SHARE * seconds
    sent: List[Tuple[float, float, bool, object]] = []
    gc.collect()
    server.start()
    try:
        base = server.clock() + 0.05
        for offset, name, model_seed, in_window in plan:
            due = base + offset
            if tracer is not None and offset >= trace_from:
                tracer.begin()
            _sleep_until(server, due)
            lag = server.clock() - due
            sent.append((due, lag, in_window,
                         server.submit(name, seed=model_seed)))
        if tracer is not None:
            tracer.begin()      # no-op unless the window was too short
        responses = [pending.result(timeout=DRAIN_TIMEOUT_S)
                     for _, _, _, pending in sent]
    finally:
        server.stop()
        if tracer is not None:
            tracer.end()

    counts = {phase: {"sent": 0, "ok": 0, "failed": 0, "rejected": 0}
              for phase in ("warmup", "window")}
    latencies: List[float] = []
    lags: List[float] = []
    met = 0
    first_due = last_done = None
    for (due, lag, in_window, _), response in zip(sent, responses):
        phase = counts["window" if in_window else "warmup"]
        phase["sent"] += 1
        status = response.status
        phase["ok" if status == "ok" else
              "rejected" if status == "rejected" else "failed"] += 1
        if not in_window:
            continue
        lags.append(lag)
        first_due = due if first_due is None else min(first_due, due)
        if status == "ok":
            latency = response.completion - due
            latencies.append(latency)
            met += latency <= SLO_S
            last_done = max(last_done or 0.0, response.completion)
    window = counts["window"]
    ok = window["ok"]
    metrics = {
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "throughput_per_s": (ok / (last_done - first_due)
                             if ok and last_done > first_due else 0.0),
        "slo_attainment": met / window["sent"] if window["sent"] else 0.0,
    }
    if trace:
        metrics.update(tracer.metrics(sent, responses, trace_from + base))
        metrics.update({
            "machine.probe_ms": probe_median_s() * 1e3,
            "raw.setup_s": own_setup[0],
            "serve.generator_lag_ms": mean(lags) * 1e3,
        })
        for phase, phase_counts in counts.items():
            for key, value in phase_counts.items():
                metrics[f"serve.{phase}.{key}"] = float(value)
        tracer.spans.write(workload, seed)
        failed = window["sent"] - ok + tracer.failed_batches
    else:
        setup_raw, setup_scaled = setup_samples(workload, own_setup)
        print(f"perfbench: raw setup_s={median(setup_raw):.3f} "
              f"requests={counts} cache={server.cache.stats()}",
              file=sys.stderr)
        metrics["setup_s"] = median(setup_scaled)
        metrics["peak_rss_mb"] = peak_rss_mb()
        failed = window["sent"] - ok
    return {"attempted": window["sent"], "failed": failed,
            "metrics": metrics}


def _sleep_until(server, due: float) -> None:
    while True:
        left = due - server.clock()
        if left <= 0:
            return
        time.sleep(min(left, 0.05))


class _Tracer:
    """Per-layer timing around the server's public seams.

    Wraps each worker's ``execute_batch`` (batch wall, digest/result
    check, kernel time) and the cache's ``checkout`` and builder (hit
    vs miss checkout time).  Records nothing until :meth:`begin`.
    """

    def __init__(self, server, expected: Dict[Tuple[str, int], dict]):
        self.server = server
        self.expected = expected
        self.spans = Spans()
        self.batches: List[Dict[str, float]] = []
        self.checkouts: Dict[str, List[float]] = {"hit": [], "miss": []}
        self.failed_batches = 0
        self._on = False
        self._ledger_scope = None
        self.ledger = None
        # cache stats and minor faults when tracing began / ended
        self._cache0 = self._cache1 = None
        self._faults0 = self._faults1 = 0
        self._lock = threading.Lock()
        self._local = threading.local()     # per worker thread
        for worker in server.workers:
            worker.execute_batch = self._wrap_execute(worker.execute_batch)
        cache = server.cache
        cache.checkout = self._wrap_checkout(cache.checkout)
        build = cache._builder

        def timed_build(*args, **kwargs):
            # build() is idempotent: building here moves the whole
            # build into the timed region, the cache's own call no-ops
            t0 = now()
            workload = build(*args, **kwargs)
            workload.build()
            self._local.build_s += now() - t0
            return workload
        cache._builder = timed_build

    def begin(self) -> None:
        if self._on:
            return
        from repro.obs import selfprof
        self._ledger_scope = selfprof.scoped_ledger()
        self.ledger = self._ledger_scope.__enter__()
        self._cache0 = self.server.cache.stats()
        self._faults0 = minor_faults()
        self._on = True

    def end(self) -> None:
        if not self._on:
            return
        self._on = False
        self._cache1 = self.server.cache.stats()
        self._faults1 = minor_faults()
        self._ledger_scope.__exit__(None, None, None)

    def _wrap_checkout(self, checkout):
        def timed_checkout(key):
            build_before = self._local.build_s
            t0 = now()
            out = checkout(key)
            t1 = now()
            self._local.checkout_s += t1 - t0
            if self._on:
                kind = "miss" if self._local.build_s > build_before else "hit"
                with self._lock:
                    self.checkouts[kind].append(t1 - t0)
                    self.spans.add(f"checkout_{kind}", t0, t1,
                                   model=key.workload, seed=key.seed)
            return out
        return timed_checkout

    def _wrap_execute(self, execute_batch):
        def timed_execute(batch):
            on = self._on
            self._local.checkout_s = self._local.build_s = 0.0
            t0 = now()
            result = execute_batch(batch)
            t1 = now()
            if not on:
                return result
            row = {"execute_s": t1 - t0, "attempts": float(result.attempts),
                   "checkout_s": self._local.checkout_s,
                   "build_s": self._local.build_s, "run_s": 0.0,
                   "attempt_s": 0.0, "health_s": 0.0, "ops": 0.0,
                   "kernel_s": {}, "ok": True}
            for span in result.spans:
                if span.name.startswith("run:"):
                    row["run_s"] += span.duration
                elif span.name.startswith("attempt#"):
                    row["attempt_s"] += span.duration
                elif span.name == "health_check":
                    row["health_s"] += span.duration
            trace = result.trace
            if result.status == "ok" and trace is not None:
                for event in trace.events:
                    row["kernel_s"][event.name] = (
                        row["kernel_s"].get(event.name, 0.0)
                        + event.wall_time)
                row["ops"] = float(len(trace.events))
                row["ok"] = check_trace(
                    trace, self.expected[(batch.workload, batch.seed)])
            with self._lock:
                self.batches.append(row)
                # non-ok batches already fail through their responses
                self.failed_batches += result.status == "ok" and not row["ok"]
                self.spans.add("execute_batch", t0, t1, bid=batch.bid,
                               model=batch.workload, seed=batch.seed,
                               size=batch.size, ok=row["ok"])
            return result
        return timed_execute

    def metrics(self, sent, responses, traced_from: float) -> Dict[str, float]:
        """Per-layer figures of the traced part of the window."""
        traced = [r for (due, _, in_window, _), r in zip(sent, responses)
                  if in_window and due >= traced_from]
        reference = [r.completion - due
                     for (due, _, in_window, _), r in zip(sent, responses)
                     if in_window and due < traced_from and r.status == "ok"]
        traced_lat = [r.completion - due
                      for (due, _, in_window, _), r in zip(sent, responses)
                      if in_window and due >= traced_from and r.status == "ok"]
        ok = [r for r in traced if r.status == "ok"]
        for response in ok:
            self.spans.add("request", response.arrival,
                           response.completion, rid=response.rid,
                           bid=response.bid, model=response.workload)
        batches = self.batches
        n = len(batches) or 1
        executes = [row["execute_s"] for row in batches]
        kernel = lambda name: sum(row["kernel_s"].get(name, 0.0)  # noqa: E731
                                  for row in batches) / n * 1e3
        ledger = self.ledger
        components = ledger.component_ns()
        ops = ledger.ops
        cache0, cache1 = self._cache0, self._cache1
        checkouts = cache1["hits"] - cache0["hits"] + cache1["misses"] - cache0["misses"]
        traced_p50 = median(traced_lat)
        reference_p50 = median(reference)
        return {
            "tensor.kernel.conv2d_ms": kernel("conv2d"),
            "tensor.kernel.maxpool2d_ms": kernel("maxpool2d"),
            "tensor.kernel.batchnorm2d_ms": kernel("batchnorm2d"),
            "tensor.kernel_ms": sum(sum(row["kernel_s"].values())
                                    for row in batches) / n * 1e3,
            "tensor.ops": sum(row.get("ops", 0.0) for row in batches) / n,
            "tensor.dispatch_ms": ledger.overhead_ns / 1e6 / n,
            "tensor.dispatch.record_ms": components.get("record", 0) / 1e6 / n,
            "tensor.dispatch.counters_ms": components.get("counters", 0) / 1e6 / n,
            "tensor.dispatch.inputs_ms": components.get("inputs", 0) / 1e6 / n,
            "tensor.dispatch.span_ms": components.get("span", 0) / 1e6 / n,
            "tensor.dispatch_us_per_op": (ledger.overhead_ns / ops / 1e3
                                          if ops else 0.0),
            # profile wall = attempt span minus the checkout inside it
            "workloads.host_ms": (sum(row["attempt_s"] - row["checkout_s"]
                                      for row in batches) * 1e3
                                  - ledger.total_ns / 1e6) / n,
            "workloads.build_ms": mean([row["build_s"] for row in batches]) * 1e3,
            # characterize_trace runs in the run span after the attempt
            # and the health check
            "core.characterize_ms": mean([
                row["run_s"] - row["attempt_s"] - row["health_s"]
                for row in batches]) * 1e3,
            "proc.minor_faults": (self._faults1 - self._faults0) / n,
            "serve.queue_wait_ms": median([r.queue_wait for r in ok]) * 1e3,
            "serve.assemble_wait_ms": median([r.assemble_wait for r in ok]) * 1e3,
            "serve.dispatch_wait_ms": median([r.dispatch_wait for r in ok]) * 1e3,
            "serve.batch_size_mean": mean([float(r.batch_size) for r in ok]),
            "serve.execute_p50_ms": median(executes) * 1e3,
            "serve.execute_p90_ms": percentile(executes, 90) * 1e3,
            "serve.execute_samples": float(len(executes)),
            "resilience.run_workload_ms": mean([row["run_s"] for row in batches]) * 1e3,
            "resilience.health_check_ms": mean([row["health_s"] for row in batches]) * 1e3,
            "resilience.attempts_per_batch": mean([row["attempts"] for row in batches]),
            "serve.cache_hit_ratio": ((cache1["hits"] - cache0["hits"]) / checkouts
                                      if checkouts else 0.0),
            "serve.cache_builds": float(cache1["misses"] - cache0["misses"]),
            "serve.cache_evictions": float(cache1["evictions"] - cache0["evictions"]),
            "serve.checkout_hit_ms": median(self.checkouts["hit"]) * 1e3,
            "serve.checkout_miss_ms": median(self.checkouts["miss"]) * 1e3,
            "trace.latency_p50_ms": traced_p50 * 1e3,
            "trace.samples": float(len(traced_lat)),
            "trace.reference_samples": float(len(reference)),
            "trace.overhead_pct": (100.0 * (traced_p50 / reference_p50 - 1.0)
                                   if reference_p50 else 0.0),
        }
