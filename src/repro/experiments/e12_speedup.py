"""E12 — Section 5 discussion: mobility compensates low transmission power.

Below the connectivity threshold (``R`` well under ``c sqrt(log n)``),
the static random geometric graph is disconnected and flooding at
``r = 0`` can never complete.  The follow-up work [11] (ICALP'09, cited
in the paper's conclusions) shows that high mobility makes up for low
transmission power.  We exhibit the phenomenon: at fixed sparse ``R``,
sweep the move radius ``r`` and report completion rate and completion
time within a fixed step budget — completion rate should rise and time
fall as ``r`` grows.

This is an ablation on the paper's own simulator, not a reproduction of
[11]'s analysis (documented non-goal in DESIGN.md).
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.records import ExperimentResult
from repro.core.flooding import flood
from repro.experiments.common import ExperimentConfig
from repro.geometric.connectivity import component_report
from repro.geometric.meg import GeometricMEG
from repro.util.rng import derive_seed, spawn

EXPERIMENT_ID = "E12"
TITLE = "Section 5: mobility speeds up sparse disconnected networks"


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E12; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    n = config.pick(256, 1024, 2048)
    trials = config.pick(3, 6, 10)
    # The RGG connectivity threshold is pi R^2 ~ log n, i.e.
    # R* = sqrt(log n / pi); take R = 0.7 R* so the static snapshot is
    # genuinely disconnected (components_t0 > 1, verified in the table).
    radius = 0.7 * math.sqrt(math.log(n) / math.pi)
    budget = config.pick(2 * n, 4 * n, 4 * n)

    mean_times = {}
    for r in (0.0, radius / 2, radius, 2 * radius, 4 * radius):
        # A finer lattice resolution is needed because the sub-threshold
        # radius can drop below the default eps = 1.
        meg = GeometricMEG(n, move_radius=r, radius=radius, eps=min(0.5, radius / 2))
        rngs = spawn(derive_seed(config.seed, 12, int(r * 100)), trials)
        times, completed, components = [], 0, []
        for rng in rngs:
            meg.reset(rng)
            components.append(
                component_report(meg.snapshot().positions, radius).num_components)
            res = flood(meg, 0, reset=False, max_steps=budget)
            if res.completed:
                completed += 1
                times.append(res.time)
        mean_time = float(np.mean(times)) if times else float("inf")
        mean_times[r] = mean_time
        result.add_row(
            n=n,
            R=round(radius, 3),
            r_over_R=round(r / radius, 2),
            components_t0=round(float(np.mean(components)), 1),
            completion_rate=round(completed / trials, 3),
            flood_mean=(round(mean_time, 2) if times else float("inf")),
            budget=budget,
        )

    static_time = mean_times.get(0.0, float("inf"))
    fastest_mobile = min(v for k, v in mean_times.items() if k > 0)
    speedup = (static_time / fastest_mobile if math.isfinite(fastest_mobile)
               else 0.0)
    result.add_note(
        "R is 0.7x the RGG connectivity threshold sqrt(log n / pi): the "
        "components_t0 column confirms the stationary snapshot is "
        "disconnected, so static (r=0) flooding stalls at the source "
        "component while mobility ferries the message across components"
    )
    result.add_note(
        f"speed-up of the fastest mobile setting over static: "
        f"{'inf' if not math.isfinite(static_time) and math.isfinite(fastest_mobile) else f'{speedup:.2f}'}"
    )
    # Consistent when mobility strictly helps: the static run is slower
    # (typically truncated = inf) than the fastest mobile run.
    result.verdict = ("consistent"
                      if math.isfinite(fastest_mobile) and static_time > fastest_mobile
                      else "inconsistent")
    return result
