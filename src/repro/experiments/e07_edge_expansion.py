"""E7 — Theorem 4.1 / Lemma 4.2: expansion of ``G(n, p_hat)``.

The stationary snapshot of an edge-MEG is ``G(n, p_hat)``; Theorem 4.1
asserts (w.p. ``1 - 1/n^2``) it is an ``(h, n p_hat / c)``-expander for
``h <= 1/p_hat`` and an ``(h, n/(c h))``-expander beyond, for a
sufficiently large constant ``c``.

For each ``(n, p_hat)`` we estimate the worst expansion at probed sizes
(randomized witness search — a certified upper bound on the true worst
case) and report the realised constants::

    c_small = max_{h <= 1/p_hat}  n p_hat / k_hat_h
    c_large = max_{h >= 1/p_hat}  n / (h k_hat_h)

Shape criterion: both stay bounded by a modest constant across the grid
(the proof needs ``c >= 20``; the realised constants are far smaller).
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.records import ExperimentResult
from repro.core.expansion import estimate_worst_expansion
from repro.edgemeg.er import erdos_renyi_snapshot
from repro.experiments.common import ExperimentConfig
from repro.util.rng import derive_seed, spawn

EXPERIMENT_ID = "E7"
TITLE = "Thm 4.1 / Lemma 4.2: G(n, p_hat) expansion constants"

#: Realised-constant ceiling for the shape verdict.
C_CEILING = 20.0


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E7; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    ns = config.pick([128], [128, 256], [256, 512, 1024])
    snapshots = config.pick(2, 3, 4)
    search_trials = config.pick(6, 10, 16)

    ok = True
    for n in ns:
        for factor in (2.0, 8.0):
            p_hat = min(0.9, factor * math.log(n) / n)
            knee = max(1, int(1.0 / p_hat))
            small_sizes = np.unique(np.geomspace(1, knee, num=4).astype(int))
            large_sizes = np.unique(
                np.geomspace(knee, max(knee, n // 2), num=4).astype(int))
            c_small, c_large = 0.0, 0.0
            rngs = spawn(derive_seed(config.seed, 7, n, int(factor)), snapshots)
            for rng in rngs:
                snap = erdos_renyi_snapshot(n, p_hat, seed=rng)
                for h in small_sizes:
                    est = estimate_worst_expansion(snap, int(h),
                                                   trials=search_trials, seed=rng)
                    if est.expansion <= 0:
                        c_small = math.inf
                    else:
                        c_small = max(c_small, n * p_hat / est.expansion)
                for h in large_sizes:
                    if h > n // 2:
                        continue
                    est = estimate_worst_expansion(snap, int(h),
                                                   trials=search_trials, seed=rng)
                    if est.expansion <= 0:
                        c_large = math.inf
                    else:
                        c_large = max(c_large, n / (h * est.expansion))
            row_ok = c_small <= C_CEILING and c_large <= C_CEILING
            ok = ok and row_ok
            result.add_row(
                n=n,
                p_hat=round(p_hat, 4),
                n_p_hat=round(n * p_hat, 2),
                knee=knee,
                c_small=round(c_small, 3),
                c_large=round(c_large, 3),
                within_shape=row_ok,
            )
    result.add_note(
        f"criterion: realised c_small, c_large <= {C_CEILING:g} across the grid "
        f"(Theorem 4.1 needs some constant; the proof uses c >= 20)"
    )
    result.verdict = "consistent" if ok else "inconsistent"
    return result
