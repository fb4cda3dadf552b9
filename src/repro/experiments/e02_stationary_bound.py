"""E2 — Theorem 2.5 / Corollary 2.6 on actual stationary MEGs.

For small stationary edge-MEGs and geometric-MEGs we build an
*empirical* expansion ladder from sampled stationary snapshots (the
randomized worst-expansion search of :mod:`repro.core.expansion`, whose
output is an achievable upper bound on the true worst expansion and
hence gives a *conservative* — larger — ladder sum), evaluate the
Corollary 2.6 bound, and compare the flooding-time distribution over
independent stationary trials.

Shape criterion: the empirical ``q90`` flooding time is at most
``C * (1 + bound_sum)`` for a modest shared constant ``C``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.records import ExperimentResult
from repro.core.bounds import unit_ladder_bound
from repro.core.expansion import estimate_worst_expansion
from repro.edgemeg.meg import EdgeMEG
from repro.experiments.common import ExperimentConfig
from repro.geometric.meg import GeometricMEG
from repro.util.rng import spawn

EXPERIMENT_ID = "E2"
TITLE = "Thm 2.5 / Cor 2.6: stationary MEG bound holds w.h.p."

SHAPE_CONSTANT = 6.0


def _empirical_ladder(meg, *, snapshots: int, sizes: np.ndarray, trials: int,
                      seed) -> np.ndarray:
    """Monotone empirical ``k_i`` ladder over sampled stationary snapshots.

    For each probed size, take the min expansion estimate across
    snapshots, then interpolate to all ``i <= n/2`` (piecewise-constant
    on the left — conservative because true ladders are non-increasing)
    and apply the monotone envelope.
    """
    n = meg.num_nodes
    rngs = spawn(seed, snapshots)
    per_size = np.full(sizes.shape, np.inf)
    for rng in rngs:
        meg.reset(rng)
        snap = meg.snapshot()
        for j, size in enumerate(sizes):
            est = estimate_worst_expansion(snap, int(size), trials=trials, seed=rng)
            per_size[j] = min(per_size[j], est.expansion)
    top = max(1, n // 2)
    all_sizes = np.arange(1, top + 1)
    # Left-constant interpolation: k_i = estimate at the smallest probed
    # size >= i (ladders are non-increasing, so this under-estimates k,
    # i.e. over-estimates the bound sum — conservative).
    idx = np.searchsorted(sizes, all_sizes, side="left").clip(0, len(sizes) - 1)
    ks = per_size[idx]
    return np.flip(np.minimum.accumulate(np.flip(ks)))


def _check(meg, name: str, result: ExperimentResult, config: ExperimentConfig,
           seed_offset: int) -> float:
    n = meg.num_nodes
    snapshots = config.pick(3, 5, 8)
    search_trials = config.pick(6, 10, 16)
    flood_trials = config.trial_count(config.pick(10, 30, 60))
    sizes = np.unique(np.geomspace(1, n // 2, num=config.pick(5, 8, 10)).astype(int))
    ks = _empirical_ladder(meg, snapshots=snapshots, sizes=sizes,
                           trials=search_trials, seed=config.seed + seed_offset)
    if (ks <= 0).any():
        result.add_row(model=name, n=n, bound_sum=float("inf"),
                       flood_mean=float("nan"), flood_q90=float("nan"),
                       realized_constant=float("nan"), within_shape=False)
        result.add_note(f"{name}: empirical ladder hit zero expansion "
                        f"(disconnected snapshot sampled)")
        return 0.0
    bound = unit_ladder_bound(n, lambda i, ks=ks: ks[np.clip(i.astype(int) - 1,
                                                             0, len(ks) - 1)])
    runs = config.ensemble(meg, trials=flood_trials,
                           seed=config.seed + seed_offset + 1)
    summary = runs.summary()
    constant = summary.q90 / (1.0 + bound)
    result.add_row(
        model=name,
        n=n,
        bound_sum=round(bound, 3),
        flood_mean=round(summary.mean, 3),
        flood_q90=round(summary.q90, 3),
        realized_constant=round(constant, 4),
        within_shape=constant <= SHAPE_CONSTANT and runs.failures == 0,
    )
    return constant


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E2; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    n_edge = config.pick(64, 128, 256)
    n_geo = config.pick(144, 256, 576)
    worst = 0.0
    # Edge-MEG comfortably above the density threshold.
    p_hat = 4.0 * np.log(n_edge) / n_edge
    q = 0.3
    p = p_hat * q / (1.0 - p_hat)
    worst = max(worst, _check(EdgeMEG(n_edge, p, q), f"edge-MEG(p_hat={p_hat:.3f})",
                              result, config, 1))
    # Geometric-MEG above the connectivity radius.
    radius = 2.0 * float(np.sqrt(np.log(n_geo)))
    worst = max(worst, _check(GeometricMEG(n_geo, move_radius=1.0, radius=radius),
                              f"geometric-MEG(R={radius:.2f})", result, config, 2))
    result.add_note(
        f"criterion: flooding q90 <= {SHAPE_CONSTANT:g} * (1 + empirical Cor2.6 sum); "
        f"ladder from randomized worst-expansion search (conservative)"
    )
    result.add_note(f"worst realised constant: {worst:.3f}")
    result.verdict = ("consistent"
                      if worst <= SHAPE_CONSTANT and all(
                          row.get("within_shape") for row in result.rows)
                      else "inconsistent")
    return result
