"""E14 — flooding as the fastest broadcast baseline.

The paper motivates flooding time as "the natural lower bound for
broadcast protocols in dynamic networks": at every step, flooding's
informed set contains the informed set of *any* protocol run on the
same evolving-graph realisation.  We run the registered protocol zoo
(:mod:`repro.protocols`) — flooding, probabilistic flooding,
parsimonious (expiring) flooding, push, pull and push–pull gossip —
with the graph realisation **coupled per trial**: every protocol gets
the same per-trial seed from :func:`~repro.protocols.spreading_trials`
and splits it as ``rng_graph, rng_protocol = spawn(seed, 2)``, so
dominance is checked per trial, not just in expectation.  The flooding
row is ``ProbabilisticFlooding(1.0)`` — every informed node transmits,
under the same seed split — so it sees the same graph as the others.

The coupling needs the per-trial replay layout, so every backend runs
E14 with ``rng_mode="replay"``: ``--backend native`` prints the same
table as ``serial`` and ``batched``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.records import ExperimentResult
from repro.edgemeg.meg import EdgeMEG
from repro.experiments.common import ExperimentConfig
from repro.geometric.meg import GeometricMEG
from repro.protocols import (
    ExpiringFlooding,
    ProbabilisticFlooding,
    PullGossip,
    PushGossip,
    PushPullGossip,
    spreading_trials,
)
from repro.util.rng import derive_seed

EXPERIMENT_ID = "E14"
TITLE = "Flooding as the fastest broadcast baseline (protocol zoo)"

#: Revision of E14's results under an unchanged campaign spec version:
#: revision 2 moved the push/pull/push-pull rows from per-node Python
#: gossip loops onto the vectorised registry protocols, which draw
#: their neighbour choices differently (see ``repro.campaign.plan``).
SPEC_REVISION = 2

#: (label, protocol) — all engine-executable.
PROTOCOLS = (
    ("flooding", ProbabilisticFlooding(1.0)),
    ("probabilistic f=0.5", ProbabilisticFlooding(0.5)),
    ("parsimonious k=2", ExpiringFlooding(2)),
    ("push", PushGossip()),
    ("pull", PullGossip()),
    ("push-pull", PushPullGossip()),
)


def _model_battery(config: ExperimentConfig):
    n = config.pick(128, 256, 512)
    p_hat = min(0.5, 6.0 * math.log(n) / n)
    q = 0.5
    p = p_hat * q / (1.0 - p_hat)
    yield f"edge-MEG(n={n})", EdgeMEG(n, p, q)
    radius = 2.0 * math.sqrt(math.log(n))
    yield f"geometric-MEG(n={n})", GeometricMEG(n, move_radius=1.0, radius=radius)


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E14; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    trials = config.trial_count(config.pick(3, 8, 12))

    dominance_violations = 0
    comparisons = 0
    for model_index, (model_name, meg) in enumerate(_model_battery(config)):
        # One battery seed per model; spreading_trials derives identical
        # per-trial integer seeds from it for every protocol, so graph
        # realisations stay coupled trial-by-trial across the zoo.
        battery_seed = derive_seed(config.seed, 14, model_index)
        run_kwargs = {**config.flood_kwargs(), "rng_mode": "replay"}
        runs_by_protocol = {
            proto_name: spreading_trials(
                protocol, meg, trials=trials, seed=battery_seed, source=0,
                **run_kwargs)
            for proto_name, protocol in PROTOCOLS
        }
        flood_runs = runs_by_protocol["flooding"]
        for proto_name, runs in runs_by_protocol.items():
            if proto_name != "flooding":
                for flood_res, proto_res in zip(flood_runs, runs):
                    if flood_res.completed and proto_res.completed:
                        comparisons += 1
                        if proto_res.time < flood_res.time:
                            dominance_violations += 1
            proto_times = [r.time for r in runs if r.completed]
            result.add_row(
                model=model_name,
                protocol=proto_name,
                completion_rate=round(
                    sum(r.completed for r in runs) / trials, 3),
                mean_time=(round(float(np.mean(proto_times)), 2)
                           if proto_times else float("inf")),
            )
    result.add_note(
        "graph realisations are coupled per trial (shared graph seed), so "
        "flooding <= protocol holds per trial, not just on average"
    )
    result.add_note(
        f"per-trial dominance violations: {dominance_violations}/{comparisons} "
        f"(0 expected)"
    )
    result.verdict = "consistent" if dominance_violations == 0 else "inconsistent"
    if config.output_dir:
        result.save(config.output_dir)
    return result
