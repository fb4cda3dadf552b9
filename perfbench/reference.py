"""Regenerate ``reference.json``: the mean flooding time of each flood
workload, measured over many queries of the default seed (0).

Usage (from the repository root; takes a few minutes)::

    python3 perfbench/reference.py

A benchmark run passes its law check when its own mean lies within
``REFERENCE_SIGMAS`` combined standard errors of this mean.  Rerun it only
when the process law itself is meant to change.
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench.workloads import REFERENCE, Flood  # noqa: E402

SEED = 0
QUERIES = 600


def main() -> int:
    reference = {}
    for name in ("flood-edge", "flood-geometric"):
        workload = Flood(name, SEED, ROOT)
        for i in range(1, QUERIES + 1):
            ctx = workload.prepare(i)
            workload.account(i, ctx, workload.run(i, ctx))
        times = np.asarray(workload.times, dtype=float)
        reference[name] = {
            "seed": SEED,
            "trials": int(times.size),
            "incomplete": workload.incomplete,
            "mean": float(times.mean()),
            "se": float(times.std(ddof=1) / math.sqrt(times.size)),
        }
        print(name, reference[name])
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
