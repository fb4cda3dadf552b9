"""E13 — Observation 3.3: density scaling.

All Section 3 results are stated at unit density for simplicity;
Observation 3.3 says they hold at any density ``delta(n)`` under
``R >= c sqrt(log n / delta)``.  We fix ``n``, sweep
``delta in {1/4, 1, 4}`` with the correspondingly scaled radius, and
check the flooding times collapse onto the scaled predictor
``sqrt(n/delta) / R`` (constant ratio band across densities).
"""

from __future__ import annotations

import math

from repro.analysis.fitting import constant_ratio_check
from repro.analysis.records import ExperimentResult
from repro.experiments.common import ExperimentConfig
from repro.geometric.meg import GeometricMEG
from repro.util.rng import derive_seed

EXPERIMENT_ID = "E13"
TITLE = "Observation 3.3: density scaling collapse"

MAX_BAND_SPREAD = 2.5


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E13; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    n = config.pick(576, 1024, 4096)
    trials = config.trial_count(config.pick(3, 8, 12))

    measured, predicted = [], []
    for density in (0.25, 1.0, 4.0):
        radius = 2.0 * math.sqrt(math.log(n) / density)
        side = math.sqrt(n / density)
        meg = GeometricMEG(n, move_radius=1.0, radius=radius, density=density)
        runs = config.ensemble(
            meg, trials=trials,
            seed=derive_seed(config.seed, 13, int(density * 100)))
        if not runs.completed.any():
            result.add_note(f"density={density}: all trials truncated")
            continue
        summary = runs.summary()
        predictor = side / radius
        measured.append(summary.mean)
        predicted.append(predictor)
        result.add_row(
            n=n,
            density=density,
            side=round(side, 2),
            R=round(radius, 3),
            predictor=round(predictor, 3),
            flood_mean=round(summary.mean, 3),
            ratio=round(summary.mean / predictor, 4),
        )

    if len(measured) >= 2:
        band = constant_ratio_check(measured, predicted)
        result.add_note(
            f"ratio band across densities: [{band.min_ratio:.3f}, {band.max_ratio:.3f}], "
            f"spread {band.spread:.2f} (criterion <= {MAX_BAND_SPREAD:g})"
        )
        result.verdict = "consistent" if band.within(MAX_BAND_SPREAD) else "inconsistent"
    else:
        result.verdict = "informational"
    return result
