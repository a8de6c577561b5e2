"""Shared pieces: statistics, output checks, set-up timing, spans.

Nothing here imports the program under test at module scope: set-up
time covers importing it, so those imports happen inside the timed
functions of :mod:`roster` and :mod:`serve_open`.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: model seeds a workload seed draws from; ``expected.json`` holds the
#: expected outputs of every (model, seed) in this range
SEED_SPACE = 16

#: float results must match the expected value within this tolerance
#: (``math.isclose``); digests, ints, strings and bools match exactly
REL_TOL = 1e-6
ABS_TOL = 1e-9

#: fresh-interpreter set-ups per run (the run's own process is one)
SETUP_SAMPLES = 5


# -- statistics ----------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# -- output checks ---------------------------------------------------------------
def canonical(value: object) -> object:
    """JSON-ready form of a workload result (numpy scalars, tuples)."""
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return canonical(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    return repr(value)


def same_result(got: object, want: object) -> bool:
    """Exact match, except floats within ``REL_TOL``/``ABS_TOL``."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or isinstance(want, bool):
            return got == want
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        if math.isnan(want):
            return math.isnan(got)
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same_result(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same_result(g, w) for g, w in zip(got, want)))
    return got == want


def observed(trace) -> Dict[str, object]:
    """What the check compares: counters digest and result values."""
    from repro.obs.runrec import counters_digest
    return {"digest": counters_digest(trace),
            "result": canonical(trace.metadata.get("result", {}))}


def check_trace(trace, expected: Dict[str, object]) -> bool:
    got = observed(trace)
    return (got["digest"] == expected["digest"]
            and same_result(got["result"], expected["result"]))


def expectations(keys: Sequence[Tuple[str, int]]) -> Dict[Tuple[str, int], dict]:
    """Expected outputs for ``keys``, from the committed ``expected.json``.

    ``gen_expected.py`` writes every (model, seed) a run can draw, from
    the seed code; a key missing from the file is a benchmark bug.
    """
    with open(EXPECTED_PATH) as fh:
        committed = json.load(fh)["models"]
    missing = [key for key in keys
               if str(key[1]) not in committed.get(key[0], {})]
    if missing:
        raise RuntimeError(f"expected.json lacks {missing}; "
                           "regenerate it with perfbench/gen_expected.py")
    return {(model, seed): committed[model][str(seed)]
            for model, seed in keys}


# -- set-up time -----------------------------------------------------------------
def setup_samples(workload: str, own: Tuple[float, float]
                  ) -> Tuple[List[float], List[float]]:
    """Raw and probe-scaled set-up seconds over fresh interpreters.

    ``own`` is the run's own (raw, scaled) set-up, the first sample;
    ``SETUP_SAMPLES - 1`` more come from child interpreters that run
    the same set-up and print it (``run.py --setup-child``).  Children
    run one at a time and are waited for.
    """
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--setup-child", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(tuple(json.loads(done.stdout.strip().splitlines()[-1])))
    return [raw for raw, _ in samples], [scaled for _, scaled in samples]


# -- spans -------------------------------------------------------------------------
class Spans:
    """Benchmark-side spans around calls into the program's layers.

    Kept in memory during the run and written as JSONL at the end, one
    object per span: name, start/end seconds (``time.perf_counter``)
    and attributes.  Spans of one operation share its ``op`` (roster)
    or ``rid``/``bid`` (serve) attribute.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []

    def add(self, name: str, start: float, end: float,
            **attrs: object) -> None:
        self.records.append({"name": name, "start": start, "end": end,
                             "attrs": attrs})

    def write(self, workload: str, seed: int) -> str:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{workload}-{seed}.jsonl")
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")
        return path


def now() -> float:
    return time.perf_counter()
