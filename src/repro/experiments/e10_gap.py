"""E10 — Section 1: the stationary vs worst-case exponential gap.

In the regime ``p = O(1/n^{1+eps}), q = O(np/log n)`` the stationary
flooding time is polylogarithmic (Theorem 4.3 depends only on
``p_hat``) while the worst-case flooding time of [PODC'08] — realised
by starting from the empty graph — is governed by the birth rate alone,
``~ log n / log(1 + np) ~ n^eps log n``: an exponential gap.  The
second regime (``p = O(log n/n), q = O(p sqrt(n))``) has a milder but
still growing gap (stationary is ``O(1)``, worst-case grows like
``log n / log log n``).

We measure both starts on identical parameters (several paired trials)
and report the gap factor as ``n`` grows.

Verdict criteria (regime-aware):
* polynomial regime — the measured gap at the largest ``n`` exceeds
  ``MIN_POLY_GAP`` *and* grows monotonically in ``n``;
* sqrt regime — the measured gap stays >= 1 and does not shrink as
  ``n`` grows (its asymptotic growth is too slow to show a large factor
  at laptop scales; we verify the direction, not the magnitude).
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.records import ExperimentResult
from repro.core.theory import GapRegime, gap_regime_polynomial, gap_regime_sqrt
from repro.edgemeg.worstcase import measure_gap
from repro.experiments.common import ExperimentConfig
from repro.util.rng import derive_seed, spawn

EXPERIMENT_ID = "E10"
TITLE = "Section 1: stationary vs worst-case exponential gap"

MIN_POLY_GAP = 4.0
#: Tolerated relative shrink between consecutive n (trial noise).
TREND_TOLERANCE = 0.85


def _mean_gap(regime: GapRegime, *, trials: int, budget: int, seed) -> tuple[float, float, float, int]:
    """Paired-trial means: (stationary_T, worstcase_T, gap, truncated_count)."""
    stat_times, worst_times, truncated = [], [], 0
    for rng in spawn(seed, trials):
        obs = measure_gap(regime.n, regime.p, regime.q, seed=rng, max_steps=budget)
        if obs.stationary_completed:
            stat_times.append(obs.stationary_time)
        worst_times.append(obs.worstcase_time)
        if not obs.worstcase_completed:
            truncated += 1
    stat = float(np.mean(stat_times)) if stat_times else float("nan")
    worst = float(np.mean(worst_times))
    gap = worst / stat if stat and not math.isnan(stat) else float("inf")
    return stat, worst, gap, truncated


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E10; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    ns = config.pick([64, 128], [128, 256, 512], [256, 512, 1024])
    trials = config.pick(2, 4, 6)
    budget_factor = config.pick(8, 16, 32)

    gaps: dict[str, list[float]] = {"poly": [], "sqrt": []}
    for key, make in (("poly", lambda n: gap_regime_polynomial(n, eps=0.5)),
                      ("sqrt", gap_regime_sqrt)):
        for n in ns:
            regime = make(n)
            budget = int(budget_factor * max(16, regime.worstcase_order))
            stat, worst, gap, truncated = _mean_gap(
                regime, trials=trials, budget=budget,
                seed=derive_seed(config.seed, 10, n, 1 if key == "poly" else 2),
            )
            gaps[key].append(gap)
            result.add_row(
                regime=regime.label,
                n=n,
                p=f"{regime.p:.3e}",
                q=f"{regime.q:.3e}",
                p_hat=round(regime.p_hat, 4),
                stationary_T=round(stat, 2),
                worstcase_T=round(worst, 2),
                truncated=truncated,
                gap=round(gap, 2) if math.isfinite(gap) else float("inf"),
                predicted_gap_order=round(regime.gap_factor, 1),
            )

    def non_shrinking(series: list[float]) -> bool:
        return all(b >= a * TREND_TOLERANCE for a, b in zip(series, series[1:]))

    poly_ok = gaps["poly"][-1] >= MIN_POLY_GAP and non_shrinking(gaps["poly"])
    sqrt_ok = all(g >= 1.0 for g in gaps["sqrt"]) and non_shrinking(gaps["sqrt"])
    result.add_note(
        "worst-case runs start from the empty graph (the PODC'08 adversarial start); "
        "truncated runs count at the budget value — understating the true gap"
    )
    result.add_note(
        f"polynomial regime: final gap {gaps['poly'][-1]:.2f} "
        f"(criterion >= {MIN_POLY_GAP:g}, growing); "
        f"sqrt regime: gaps {['%.2f' % g for g in gaps['sqrt']]} "
        f"(criterion >= 1, non-shrinking)"
    )
    result.verdict = "consistent" if poly_ok and sqrt_ok else "inconsistent"
    return result
