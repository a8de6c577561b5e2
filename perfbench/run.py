"""The repository benchmark: roster inference and open-loop serving.

Run from the repository root::

    python3 perfbench/run.py --workload roster-conv --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``roster-conv`` — closed loop over ``nvsa, prae, zeroc, abl, nsvqa``,
  where conv2d + maxpool2d kernels dominate ``profile()``;
* ``roster-smallops`` — closed loop over ``mcts, lnn, nlm, ltn, gnn``,
  no conv: dispatch, host Python and characterization dominate;
* ``serve-open`` — open-loop Poisson arrivals at a live
  ``InferenceServer``: queue, batcher, cache, pool and resilience.

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` runs separately with the layers instrumented and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Per-layer metrics and the end-to-end metric each should move:

=============================  ======================  ===================
metric                         layer                   moves
=============================  ======================  ===================
tensor.kernel.*_ms, kernel_ms  tensor.ops kernels      roster-conv latency
tensor.ops                     tensor (per inference)  (count, exact)
tensor.dispatch*               tensor.dispatch ledger  roster-smallops
workloads.host_ms              workload host Python    roster-smallops
workloads.build_ms             workloads build         setup_s, roster
core.characterize_ms           core.suite / analysis   roster latency
proc.minor_faults              allocation/first touch  roster-conv
serve.*_wait_ms, batch_size    serve queue/batcher     serve-open p50, SLO
serve.execute_*, resilience.*  serve.pool, resilience  serve-open p90
serve.cache_*, checkout_*      serve.cache             serve-open p50/p90
compile.<model>.*              compile (not on path)   none
machine.*, raw.*, trace.*      benchmark context       none
=============================  ======================  ===================

Per inference, build + kernel + dispatch + host + characterize sum to
the traced operation's time (less the output check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# one BLAS thread, whatever the caller's environment says: the box has
# two vCPUs shared with the serving threads, a second BLAS thread makes
# timings depend on contention, and the probe's nominal speed assumes one
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _module(workload: str):
    import roster
    import serve_open
    if workload in roster.WORKLOAD_MODELS:
        return roster
    if workload == "serve-open":
        return serve_open
    raise SystemExit(f"perfbench: unknown workload {workload!r}")


def _shape(workload: str, module, metrics: dict, wanted: list) -> dict:
    """Exactly the ``wanted`` metrics, with units from BENCHMARK.json.

    Layers the workload bypasses (``module.bypassed``) read 0; any
    other missing or extra name is a benchmark bug and fails the run.
    """
    bypassed = module.bypassed(workload)
    out = {}
    for spec in wanted:
        name = spec["name"]
        if name in metrics:
            value = metrics[name]
        elif name.startswith(bypassed):
            value = 0.0
        else:
            raise RuntimeError(f"{workload}: metric {name!r} not measured")
        out[name] = {"value": float(value), "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", metavar="WORKLOAD",
                        help="time one fresh-interpreter set-up, print it")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_child:
        print(json.dumps(_module(args.setup_child).setup_child(
            args.setup_child)))
        return 0
    if not args.workload:
        parser.error("--workload is required")

    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    module = _module(args.workload)
    from probe import blas_settings
    print(f"perfbench: {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"blas={blas_settings()}", file=sys.stderr)
    result = module.run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    metrics = result["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _shape(args.workload, module, metrics, wanted),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
