"""E11 — Section 3 "further mobility models".

The paper's expansion argument needs only an (almost) uniform stationary
position distribution, so the ``Theta(sqrt(n)/R)`` flooding shape should
transfer to the other standard mobility models.  For each model we
report

* the uniformity diagnostics (max/min cell-frequency ratio, TV distance
  from uniform) — the premise, and
* the flooding-time ratio to ``sqrt(n)/R`` — the conclusion,

alongside the paper's own lattice random-walk model as the reference
row.  Shape criterion: every model's ratio lies within a constant band
of the lattice model's.

All four mobility models run through the engine's batched kernels
(``repro.mobility.kernels``, the provider that ``MobilityMEG``'s
``batched_dynamics()`` returns), so
``--backend batched`` stays bit-identical to serial while ``native``
and ``parallel`` unlock the stacked-population fast paths.
"""

from __future__ import annotations

import math

from repro.analysis.records import ExperimentResult
from repro.experiments.common import ExperimentConfig
from repro.geometric.meg import GeometricMEG
from repro.mobility.base import MobilityMEG
from repro.mobility.direction import RandomDirection
from repro.mobility.torus_walk import TorusGridWalk
from repro.mobility.uniformity import measure_uniformity
from repro.mobility.waypoint import RandomWaypoint, RandomWaypointTorus
from repro.util.rng import derive_seed

EXPERIMENT_ID = "E11"
TITLE = "Section 3: further mobility models (uniformity + flooding shape)"

MAX_RATIO_SPREAD = 3.0


def _models(n: int, side: float, speed: float):
    yield ("random waypoint (square)",
           RandomWaypoint(n, side, speed=speed), False, 3 * int(side / speed))
    yield ("random waypoint (torus)",
           RandomWaypointTorus(n, side, speed=speed), True, 0)
    yield ("random direction (billiard)",
           RandomDirection(n, side, speed=speed, turn_probability=0.1), False, 0)
    yield ("walkers on toroidal grid",
           TorusGridWalk(n, side, grid_size=max(8, int(side)), move_radius=speed), True, 0)


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E11; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    n = config.pick(256, 1024, 2048)
    trials = config.trial_count(config.pick(3, 8, 12))
    side = math.sqrt(n)
    radius = 2.0 * math.sqrt(math.log(n))
    speed = 1.0
    predictor = math.sqrt(n) / radius

    ratios: dict[str, float] = {}

    # Reference: the paper's lattice random walk.
    ref = GeometricMEG(n, move_radius=speed, radius=radius)
    summary = config.ensemble(ref, trials=trials,
                              seed=derive_seed(config.seed, 11, 0)).summary()
    ratios["lattice walk"] = summary.mean / predictor
    result.add_row(model="lattice random walk (paper)", uniformity_ratio=round(
        ref.lattice.uniformity_ratio(), 3), tv_from_uniform=0.0,
        flood_mean=round(summary.mean, 3), ratio=round(summary.mean / predictor, 3),
        exact_start=True)

    for idx, (name, model, torus, warmup) in enumerate(_models(n, side, speed), start=1):
        report = measure_uniformity(
            model, grid=8, steps=config.pick(50, 150, 300),
            seed=derive_seed(config.seed, 11, idx, 1), warmup=warmup,
        )
        meg = MobilityMEG(model, radius, warmup_steps=warmup, torus=torus)
        runs = config.ensemble(meg, trials=trials,
                               seed=derive_seed(config.seed, 11, idx, 2))
        if not runs.completed.any():
            result.add_note(f"{name}: all trials truncated")
            continue
        summary = runs.summary()
        ratios[name] = summary.mean / predictor
        result.add_row(
            model=name,
            uniformity_ratio=round(report.max_min_ratio, 3),
            tv_from_uniform=round(report.tv_distance, 4),
            flood_mean=round(summary.mean, 3),
            ratio=round(summary.mean / predictor, 3),
            exact_start=model.exact_stationary_start,
        )

    values = list(ratios.values())
    spread = max(values) / min(values) if min(values) > 0 else float("inf")
    result.add_note(
        f"flooding/(sqrt(n)/R) ratio spread across models: {spread:.2f} "
        f"(criterion <= {MAX_RATIO_SPREAD:g})"
    )
    result.verdict = "consistent" if spread <= MAX_RATIO_SPREAD else "inconsistent"
    return result
