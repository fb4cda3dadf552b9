"""E6 — Corollary 3.6: ``T = Theta(sqrt(n)/R)`` in the tight window.

Inside the window ``c sqrt(log n) <= R <= sqrt(n)/log log n`` with
``r = O(R)``, upper and lower bounds meet: flooding time divided by
``sqrt(n)/R`` must sit in a constant band while ``sqrt(n)/R`` itself
varies across the sweep.  We sweep ``n``, a radius law inside the
window, and ``r in {0, R/4, R}``, and report the ratio band.
"""

from __future__ import annotations

import math

from repro.analysis.fitting import constant_ratio_check
from repro.analysis.records import ExperimentResult
from repro.core.theory import in_geometric_tight_regime
from repro.experiments.common import ExperimentConfig
from repro.geometric.meg import GeometricMEG
from repro.util.rng import derive_seed

EXPERIMENT_ID = "E6"
TITLE = "Cor 3.6: Theta(sqrt(n)/R) ratio band"

#: A Theta relationship should keep the measured/predicted ratio within
#: this multiplicative spread across the sweep.
MAX_BAND_SPREAD = 4.0


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E6; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    ns = config.pick([1024, 4096], [1024, 4096, 9216], [4096, 16384, 36864])
    trials = config.trial_count(config.pick(3, 6, 10))

    ratios_measured, ratios_predicted = [], []
    for n in ns:
        radius = n ** 0.3  # inside the tight window at these scales
        for r_frac, r_label in ((0.0, "0"), (0.25, "R/4"), (1.0, "R")):
            r = r_frac * radius
            meg = GeometricMEG(n, move_radius=r, radius=radius)
            runs = config.ensemble(
                meg, trials=trials,
                seed=derive_seed(config.seed, 6, n, int(r_frac * 100)))
            if not runs.completed.any():
                result.add_note(f"n={n} r={r_label}: all trials truncated")
                continue
            summary = runs.summary()
            predictor = math.sqrt(n) / radius
            ratios_measured.append(summary.mean)
            ratios_predicted.append(predictor)
            result.add_row(
                n=n,
                R=round(radius, 3),
                r=r_label,
                in_window=in_geometric_tight_regime(n, radius, r),
                sqrt_n_over_R=round(predictor, 3),
                flood_mean=round(summary.mean, 3),
                ratio=round(summary.mean / predictor, 4),
                failures=runs.failures,
            )

    if len(ratios_measured) >= 2:
        band = constant_ratio_check(ratios_measured, ratios_predicted)
        result.add_note(
            f"ratio band: [{band.min_ratio:.3f}, {band.max_ratio:.3f}], "
            f"spread {band.spread:.2f} (criterion: <= {MAX_BAND_SPREAD:g})"
        )
        result.verdict = "consistent" if band.within(MAX_BAND_SPREAD) else "inconsistent"
    else:
        result.verdict = "informational"
    return result
