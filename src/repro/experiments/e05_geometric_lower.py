"""E5 — Theorem 3.5: the distance-certificate lower bound.

The proof of Theorem 3.5 is per-realisation: if at time 0 the farthest
node from the source is at distance ``d0``, the information front grows
by at most ``R + r`` per step while that node can flee at speed ``r``,
so ``T >= d0 / (R + 2r)``.

For every trial we record the realised ``d0`` (giving an exact,
per-trial certificate) and check the measured flooding time satisfies
it; we also check the paper's w.h.p. form ``T >= sqrt(n) / (2 (R + 2r))``
(which additionally asserts ``d0 > sqrt(n)/2`` w.h.p.).
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.records import ExperimentResult
from repro.core.bounds import geometric_lower_bound
from repro.core.flooding import flood
from repro.experiments.common import ExperimentConfig
from repro.geometric.meg import GeometricMEG
from repro.util.rng import derive_seed, spawn

EXPERIMENT_ID = "E5"
TITLE = "Thm 3.5: per-trial distance certificate lower bound"


def _one_trial(meg: GeometricMEG, source: int, seed) -> tuple[int, bool, float]:
    """Returns (T, completed, d0 = farthest initial distance from source)."""
    meg.reset(seed)
    pos0 = meg.snapshot().positions
    delta = pos0 - pos0[source]
    d0 = float(np.sqrt(np.einsum("ij,ij->i", delta, delta)).max())
    res = flood(meg, source, reset=False)
    return res.time, res.completed, d0


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E5; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    ns = config.pick([256], [256, 1024], [1024, 4096])
    trials = config.pick(4, 10, 16)
    move_radii = [0.0, 1.0, 4.0]

    certificate_violations = 0
    whp_violations = 0
    total = 0
    for n in ns:
        radius = 2.0 * math.sqrt(math.log(n))
        for r in move_radii:
            meg = GeometricMEG(n, move_radius=r, radius=radius)
            rngs = spawn(derive_seed(config.seed, 5, n, int(r * 10)), trials)
            times, certs = [], []
            for k, rng in enumerate(rngs):
                source = k % n
                t, completed, d0 = _one_trial(meg, source, rng)
                if not completed:
                    continue
                certificate = d0 / (radius + 2.0 * r)
                total += 1
                if t < math.floor(certificate):
                    certificate_violations += 1
                if t < math.floor(geometric_lower_bound(n, radius, r)):
                    whp_violations += 1
                times.append(t)
                certs.append(certificate)
            if times:
                result.add_row(
                    n=n,
                    R=round(radius, 3),
                    r=r,
                    flood_mean=round(float(np.mean(times)), 3),
                    flood_min=int(np.min(times)),
                    certificate_mean=round(float(np.mean(certs)), 3),
                    paper_lb=round(geometric_lower_bound(n, radius, r), 3),
                )
    result.add_note(
        f"per-trial certificate T >= floor(d0 / (R + 2r)): "
        f"{certificate_violations}/{total} violations (0 expected — it is exact)"
    )
    result.add_note(
        f"w.h.p. bound T >= floor(sqrt(n)/(2(R+2r))): {whp_violations}/{total} violations"
    )
    result.verdict = "consistent" if certificate_violations == 0 else "inconsistent"
    return result
