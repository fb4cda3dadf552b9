"""E16 — the protocol subsystem across the model-family zoo.

Spreading time of every registered protocol — flooding, probabilistic
p-flooding, expiring (SIR-style) flooding, push, pull, and push–pull
gossip — across the four simulator families (dense edge-MEG, sparse
edge-MEG, geometric-MEG, waypoint mobility), all executed through the
engine's protocol registry on the configured backend.

Methodology
-----------
* Per family, every non-flooding protocol derives its per-trial seeds
  from the same battery seed (the
  :func:`repro.protocols.runner.spreading_trials` discipline), so their
  evolving-graph realisations are coupled trial by trial; flooding
  keeps its own frozen legacy layout.
* Flooding's informed set dominates every protocol's in distribution,
  so its mean completion time must be the family minimum up to Monte
  Carlo noise — the experiment's consistency verdict checks exactly
  that (with a half-step tolerance).
* Expiring flooding may *stall* (all transmitters retired before
  completion); stalled runs count against ``completion_rate`` and are
  excluded from the mean, which is how the paper's stationarity
  discussion frames finite-memory spreading.

``--protocol`` narrows the battery to flooding plus the requested
protocol (e.g. ``--protocol p-flood:transmit_probability=0.25``), which
is the cheap way to sweep one protocol's parameters from the CLI.
"""

from __future__ import annotations

import math

from repro.analysis.records import ExperimentResult
from repro.edgemeg.meg import EdgeMEG
from repro.edgemeg.sparse import SparseEdgeMEG
from repro.experiments.common import ExperimentConfig
from repro.geometric.meg import GeometricMEG
from repro.mobility import MobilityMEG, RandomWaypointTorus
from repro.protocols import FLOODING, default_zoo
from repro.util.rng import derive_seed

EXPERIMENT_ID = "E16"
TITLE = "Protocol zoo across model families (registry-dispatched)"

#: This experiment consumes ``config.protocol``; the campaign planner
#: keys its work units on the token (see repro.campaign.plan).
PROTOCOL_AWARE = True

#: Slack (in steps) allowed before a faster-than-flooding mean counts
#: as a dominance violation — covers Monte Carlo noise at small trial
#: counts (flooding and the protocols run uncoupled stream layouts).
MEAN_TOLERANCE = 0.51


def _model_battery(config: ExperimentConfig):
    n = config.pick(48, 128, 256)
    p_hat = min(0.5, 6.0 * math.log(n) / n)
    q = 0.5
    p = p_hat * q / (1.0 - p_hat)
    yield f"edge-MEG(n={n})", EdgeMEG(n, p, q)
    yield f"sparse-edge-MEG(n={n})", SparseEdgeMEG(n, p, q)
    radius = 2.0 * math.sqrt(math.log(n))
    yield f"geometric-MEG(n={n})", GeometricMEG(n, move_radius=1.0,
                                                radius=radius)
    side = math.sqrt(float(n))
    # The dense-connectivity mobility regime, clamped to the torus
    # metric's maximum meaningful radius on small quick-scale squares.
    mob_radius = min(3.0 * math.sqrt(math.log(n)), side / 2.0)
    yield f"waypoint-MEG(n={n})", MobilityMEG(
        RandomWaypointTorus(n, side=side, speed=1.0),
        radius=mob_radius, torus=True)


def _battery(config: ExperimentConfig):
    protocols = list(default_zoo())
    chosen = config.protocol_instance()
    if chosen != FLOODING:
        protocols = [FLOODING, chosen]
    return protocols


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E16; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    trials = config.trial_count(config.pick(3, 8, 16))
    protocols = _battery(config)

    violations = 0
    for model_index, (model_name, meg) in enumerate(_model_battery(config)):
        battery_seed = derive_seed(config.seed, 16, model_index)
        mean_flooding = None
        for protocol in protocols:
            runs = config.ensemble(meg, trials=trials, seed=battery_seed,
                                   protocol=protocol, source=0)
            times = runs.completed_times()
            mean_time = (round(float(times.mean()), 2) if times.size
                         else float("inf"))
            if protocol == FLOODING:
                mean_flooding = mean_time
            elif (runs.failures == 0 and mean_flooding is not None
                  and math.isfinite(mean_flooding)
                  and mean_time + MEAN_TOLERANCE < mean_flooding):
                # Dominance is only checked on unconditional means: a
                # partially-stalling protocol's completed-only mean is
                # survivorship-biased low and would flag spuriously.
                violations += 1
            comparable = (times.size and mean_flooding is not None
                          and math.isfinite(mean_flooding))
            result.add_row(
                model=model_name,
                protocol=protocol.token(),
                completion_rate=round(runs.completion_rate(), 3),
                mean_time=mean_time,
                vs_flooding=(round(mean_time / mean_flooding, 2)
                             if comparable else float("inf")),
            )
    result.add_note(
        "all protocols dispatch through the repro.protocols registry on the "
        f"configured backend ({config.backend}); non-flooding protocols share "
        "coupled per-trial graph seeds"
    )
    result.add_note(
        f"families where a protocol beat flooding's mean by more than "
        f"{MEAN_TOLERANCE} steps: {violations} (0 expected — flooding "
        f"dominates every protocol in distribution)"
    )
    result.verdict = "consistent" if violations == 0 else "inconsistent"
    return result
