"""E8 — Theorem 4.3: edge flooding scales as ``log n / log(n p_hat)``,
a bound that depends on ``(p, q)`` only through ``p_hat``.

Two sub-tables:

1. **Scaling** — sweep ``n`` and ``p_hat`` laws; measured flooding vs
   the ``log n / log(n p_hat)`` predictor (ratio reported per row).
2. **Invariance** — at fixed ``(n, p_hat)``, sweep the mixing speed
   ``q`` (deriving ``p = p_hat q / (1 - p_hat)``).  Theorem 4.3 bounds
   the flooding time from a *stationary* start through ``p_hat`` only,
   so the same bound holds at every ``q``.  It does not claim that the
   law of the flooding time is flat in ``q``, and in general it is not:
   the exact mean of the count chain at ``p_hat = 1.2 ln n / n``,
   ``n = 1024`` is 5.610, 5.156, 5.024 and 4.937 for ``q`` = 0.05,
   0.2, 0.5 and 0.99.  This sub-table runs at ``p_hat = 6 ln n / n``,
   where flooding is nearly deterministic (exact mean 3.00000 for all
   four ``q`` at ``n = 1024``), so its max/min spread criterion is
   easy to meet there.
"""

from __future__ import annotations

import math

from repro.analysis.asciiplot import ascii_plot
from repro.analysis.records import ExperimentResult
from repro.core.bounds import edge_upper_bound_closed_form
from repro.edgemeg.meg import EdgeMEG
from repro.experiments.common import ExperimentConfig
from repro.util.rng import derive_seed

EXPERIMENT_ID = "E8"
TITLE = "Thm 4.3: edge flooding ~ log n / log(n p_hat), (p,q)-invariant at fixed p_hat"

#: Invariance criterion: max/min mean flooding across q values at fixed p_hat.
INVARIANCE_SPREAD = 1.75
#: Scaling criterion: measured/predicted ratio band spread across the sweep.
SCALING_SPREAD = 4.0


def _pq_from_phat(p_hat: float, q: float) -> tuple[float, float]:
    """Solve ``p`` from ``p_hat = p/(p+q)`` at the given ``q``."""
    p = p_hat * q / (1.0 - p_hat)
    return p, q


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E8; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    ns = config.pick([256], [256, 512, 1024], [512, 1024, 2048])
    trials = config.trial_count(config.pick(4, 10, 20))

    # --- scaling sweep -----------------------------------------------------
    ratios = []
    for n in ns:
        for factor, label in ((2.0, "2 log n/n"), (8.0, "8 log n/n"),
                              (None, "n^-1/2")):
            p_hat = (n ** -0.5) if factor is None else min(0.9, factor * math.log(n) / n)
            if n * p_hat <= math.e:
                continue
            p, q = _pq_from_phat(p_hat, 0.5)
            meg = EdgeMEG(n, p, q)
            runs = config.ensemble(
                meg, trials=trials,
                seed=derive_seed(config.seed, 8, n, int(p_hat * 10**6)))
            if not runs.completed.any():
                result.add_note(f"n={n} p_hat={p_hat:.4f}: all trials truncated")
                continue
            summary = runs.summary()
            predictor = math.log(n) / math.log(n * p_hat)
            ratios.append(summary.mean / predictor)
            result.add_row(
                table="scaling",
                n=n,
                p_hat_law=label,
                p_hat=round(p_hat, 5),
                predictor=round(predictor, 3),
                paper_bound=round(edge_upper_bound_closed_form(n, p_hat), 3),
                flood_mean=round(summary.mean, 3),
                flood_q90=round(summary.q90, 3),
                ratio=round(summary.mean / predictor, 3),
                failures=runs.failures,
            )

    # Figure: measured mean vs the predictor across the scaling sweep.
    scaling_rows = [r for r in result.rows if r["table"] == "scaling"]
    if len(scaling_rows) >= 3:
        xs = [r["predictor"] for r in scaling_rows]
        ys = [r["flood_mean"] for r in scaling_rows]
        result.add_note("figure (flooding time vs log n/log(n p_hat)):\n" + ascii_plot(
            {"measured": (xs, ys), "y = x": (xs, xs)},
            width=56, height=14,
        ))

    # --- (p, q)-invariance at fixed p_hat -----------------------------------
    n_inv = ns[-1]
    p_hat = min(0.5, 6.0 * math.log(n_inv) / n_inv)
    means = []
    for q in (0.05, 0.2, 0.5, 1.0 - p_hat):
        p, q = _pq_from_phat(p_hat, q)
        if not (0 < p <= 1):
            continue
        meg = EdgeMEG(n_inv, p, q)
        runs = config.ensemble(
            meg, trials=trials,
            seed=derive_seed(config.seed, 88, int(q * 10**4)))
        if not runs.completed.any():
            continue
        summary = runs.summary()
        means.append(summary.mean)
        result.add_row(
            table="invariance",
            n=n_inv,
            p_hat_law=f"q={q:g}",
            p_hat=round(p_hat, 5),
            predictor=round(math.log(n_inv) / math.log(n_inv * p_hat), 3),
            paper_bound=round(edge_upper_bound_closed_form(n_inv, p_hat), 3),
            flood_mean=round(summary.mean, 3),
            flood_q90=round(summary.q90, 3),
            ratio=float("nan"),
            failures=runs.failures,
        )

    verdicts = []
    if len(ratios) >= 2:
        spread = max(ratios) / min(ratios)
        verdicts.append(spread <= SCALING_SPREAD)
        result.add_note(f"scaling ratio band spread: {spread:.2f} "
                        f"(criterion <= {SCALING_SPREAD:g})")
    if len(means) >= 2:
        spread = max(means) / min(means)
        verdicts.append(spread <= INVARIANCE_SPREAD)
        result.add_note(f"(p,q)-invariance spread at fixed p_hat: {spread:.2f} "
                        f"(criterion <= {INVARIANCE_SPREAD:g})")
    result.verdict = ("consistent" if verdicts and all(verdicts)
                      else "inconsistent" if verdicts else "informational")
    return result
