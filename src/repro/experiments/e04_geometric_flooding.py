"""E4 — Theorem 3.4: geometric flooding time scales as ``sqrt(n)/R``.

Sweep ``n`` and several radius laws; measure flooding time over
independent stationary trials; then fit ``T ~ a * (sqrt(n)/R)^b`` on the
sub-sweep where the ``sqrt(n)/R`` term dominates (``sqrt(n)/R >= 4``).
Theorem 3.4 predicts ``b ~ 1`` with the ``log log R`` term only a small
additive correction.

This experiment regenerates the paper's (implicit) headline figure:
flooding time against ``sqrt(n)/R`` across radius regimes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.asciiplot import ascii_plot
from repro.analysis.fitting import fit_power_law
from repro.analysis.records import ExperimentResult
from repro.analysis.stats import summarize
from repro.core.bounds import geometric_upper_bound_closed_form
from repro.core.flooding import flooding_trials
from repro.experiments.common import ExperimentConfig
from repro.geometric.meg import GeometricMEG
from repro.util.rng import derive_seed

EXPERIMENT_ID = "E4"
TITLE = "Thm 3.4: geometric flooding scales as sqrt(n)/R"

#: Revision of E4's results under an unchanged campaign spec version:
#: revision 1 widened the quick sweep (n = 2048 added, 12 trials per
#: cell instead of 3), so its cached quick tables must not be fetched
#: (see ``repro.campaign.plan``).
SPEC_REVISION = 1

#: Fit acceptance window for the sqrt(n)/R exponent.
EXPONENT_WINDOW = (0.7, 1.3)
#: Points with sqrt(n)/R below this are excluded from the fit (the
#: log log R additive term dominates there).
FIT_PREDICTOR_MIN = 4.0


def radius_laws(n: int) -> dict[str, float]:
    """The three radius regimes swept per ``n``."""
    return {
        "c*sqrt(log n)": 2.0 * math.sqrt(math.log(n)),
        "n^0.375": n ** 0.375,
        "sqrt(n)/4": math.sqrt(n) / 4.0,
    }


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E4; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    # Quick scale still fits >= 3 distinct predictors >= 4 (4, 6.08,
    # 8.19) with enough trials that the exponent's run-to-run SD (~0.06)
    # sits well inside EXPONENT_WINDOW on both stream layouts.
    ns = config.pick([256, 1024, 2048], [256, 1024, 4096], [1024, 4096, 16384])
    trials = config.trial_count(config.pick(12, 8, 12))

    predictors, measured = [], []
    for n in ns:
        for law, radius in radius_laws(n).items():
            if radius >= math.sqrt(n):
                continue
            meg = GeometricMEG(n, move_radius=1.0, radius=radius)
            runs = flooding_trials(
                meg, trials=trials,
                seed=derive_seed(config.seed, 4, n, int(radius * 1000)),
                **config.flood_kwargs(),
            )
            times = np.array([r.time for r in runs if r.completed], dtype=float)
            failures = sum(not r.completed for r in runs)
            if times.size == 0:
                result.add_note(f"n={n} {law}: all {trials} trials truncated")
                continue
            summary = summarize(times, failures=failures)
            predictor = math.sqrt(n) / radius
            predictors.append(predictor)
            measured.append(summary.mean)
            result.add_row(
                n=n,
                radius_law=law,
                R=round(radius, 3),
                sqrt_n_over_R=round(predictor, 3),
                paper_bound=round(geometric_upper_bound_closed_form(n, radius), 3),
                flood_mean=round(summary.mean, 3),
                flood_q90=round(summary.q90, 3),
                failures=failures,
            )

    predictors_arr = np.asarray(predictors)
    measured_arr = np.asarray(measured)
    mask = predictors_arr >= FIT_PREDICTOR_MIN
    verdict = "informational"
    if mask.sum() >= 3 and len(np.unique(predictors_arr[mask])) >= 2:
        fit = fit_power_law(predictors_arr[mask], measured_arr[mask])
        lo, hi = EXPONENT_WINDOW
        verdict = "consistent" if lo <= fit.exponent <= hi else "inconsistent"
        result.add_note(
            f"power-law fit on sqrt(n)/R >= {FIT_PREDICTOR_MIN:g}: "
            f"T ~ {fit.amplitude:.3f} * (sqrt(n)/R)^{fit.exponent:.3f} "
            f"(R^2 = {fit.r_squared:.3f}); window {EXPONENT_WINDOW}"
        )
    else:
        result.add_note("not enough sqrt(n)/R-dominated points for a fit at this scale")
    if len(predictors) >= 3:
        result.add_note("figure (flooding time vs sqrt(n)/R, log-log):\n" + ascii_plot(
            {"measured": (predictors, measured),
             "y = x": (predictors, predictors)},
            logx=True, logy=True, width=56, height=14,
        ))
    result.verdict = verdict
    if config.output_dir:
        result.save(config.output_dir)
    return result
