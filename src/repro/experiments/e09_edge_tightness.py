"""E9 — Theorem 4.4 / Corollary 4.5: the edge-MEG lower bound and
``Theta(log n / log(n p_hat))`` tightness.

Theorem 4.4's argument: w.h.p. every snapshot of the first ``n`` steps
has max degree below ``2 n p_hat``, so the informed set can at most
multiply by ``2 n p_hat + 1`` per step, forcing
``T >= log(n/2) / log(2 n p_hat)``.  We check the measured *minimum*
flooding time against that value per grid point (rare per-trial
violations are possible since the degree event is only w.h.p.; we count
them), and report the Theta ratio band inside the Corollary 4.5 window.
"""

from __future__ import annotations

import math

from repro.analysis.fitting import constant_ratio_check
from repro.analysis.records import ExperimentResult
from repro.core.bounds import edge_lower_bound
from repro.core.theory import in_edge_tight_regime
from repro.edgemeg.meg import EdgeMEG
from repro.experiments.common import ExperimentConfig
from repro.util.rng import derive_seed

EXPERIMENT_ID = "E9"
TITLE = "Thm 4.4 / Cor 4.5: edge lower bound and Theta ratio band"

MAX_BAND_SPREAD = 4.0
#: Allowed fraction of per-trial lower-bound violations (the bound is
#: w.h.p., not per-realisation).
VIOLATION_BUDGET = 0.1


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E9; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    ns = config.pick([256], [256, 512, 1024], [512, 1024, 2048])
    trials = config.trial_count(config.pick(5, 12, 24))

    measured, predicted = [], []
    violations, total = 0, 0
    for n in ns:
        for factor in (2.0, 6.0, 16.0):
            p_hat = min(0.5, factor * math.log(n) / n)
            if 2 * n * p_hat <= 1:
                continue
            q = 0.5
            p = p_hat * q / (1.0 - p_hat)
            meg = EdgeMEG(n, p, q)
            runs = config.ensemble(
                meg, trials=trials,
                seed=derive_seed(config.seed, 9, n, int(factor * 10)))
            times = runs.completed_times()
            if times.size == 0:
                continue
            summary = runs.summary()
            lb = edge_lower_bound(n, p_hat)
            predictor = math.log(n) / math.log(n * p_hat)
            violations += int((times < math.floor(lb)).sum())
            total += times.size
            if in_edge_tight_regime(n, p_hat):
                measured.append(summary.mean)
                predicted.append(predictor)
            result.add_row(
                n=n,
                p_hat=round(p_hat, 5),
                in_window=in_edge_tight_regime(n, p_hat),
                paper_lb=round(lb, 3),
                flood_min=int(times.min()),
                flood_mean=round(summary.mean, 3),
                predictor=round(predictor, 3),
                ratio=round(summary.mean / predictor, 3),
            )

    checks = []
    if total:
        frac = violations / total
        checks.append(frac <= VIOLATION_BUDGET)
        result.add_note(
            f"lower-bound violations: {violations}/{total} trials "
            f"({frac:.1%}; w.h.p. budget {VIOLATION_BUDGET:.0%})"
        )
    if len(measured) >= 2:
        band = constant_ratio_check(measured, predicted)
        checks.append(band.within(MAX_BAND_SPREAD))
        result.add_note(
            f"Theta ratio band in the Cor 4.5 window: "
            f"[{band.min_ratio:.3f}, {band.max_ratio:.3f}], spread {band.spread:.2f} "
            f"(criterion <= {MAX_BAND_SPREAD:g})"
        )
    result.verdict = ("consistent" if checks and all(checks)
                      else "inconsistent" if checks else "informational")
    return result
