"""Write ``expected.json``: the roster's outputs on the default seeds.

Profiles every (model, seed) the benchmark can draw — the ten roster
models of ``roster-conv``/``roster-smallops`` (``serve-open`` uses the
smallops five) over seeds ``0 .. SEED_SPACE-1`` — each on a fresh
instance, and records its counters digest and result values.  Run it
from the repository root on the code the expectations should pin:

    python3 perfbench/gen_expected.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from common import EXPECTED_PATH, SEED_SPACE, observed  # noqa: E402
from roster import WORKLOAD_MODELS  # noqa: E402


def main() -> int:
    from repro.workloads import create
    models = {}
    for names in WORKLOAD_MODELS.values():
        for name in names:
            models[name] = {
                str(seed): observed(create(name, seed=seed).profile())
                for seed in range(SEED_SPACE)}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump({"models": models}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
