"""E15 — Section 1: diameter bounds imply nothing about flooding time.

The introduction's structural claim: there are dynamic networks whose
*every snapshot* has constant diameter while flooding takes
``Theta(n)`` steps.  We instantiate the moving-hub star adversary
(:mod:`repro.dynamics.adversarial`), measure the exact per-snapshot
diameter, and the exact flooding time from every source.

Checks:

* every snapshot diameter equals 2 (constant, independent of ``n``);
* flooding time from node 0 is exactly ``n - 1`` (linear in ``n``);
* for contrast, the same-diameter *static* star floods in <= 2 steps.
"""

from __future__ import annotations

from repro.analysis.records import ExperimentResult
from repro.core.flooding import flooding_time
from repro.dynamics.adversarial import moving_hub_star, snapshot_diameter
from repro.dynamics.sequence import StaticEvolvingGraph, star_adjacency
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.experiments.common import ExperimentConfig

EXPERIMENT_ID = "E15"
TITLE = "Section 1: constant diameter, Theta(n) flooding (adversary)"


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E15; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    ns = config.pick([8, 16], [8, 16, 32, 64], [16, 64, 256])

    all_ok = True
    for n in ns:
        adversary = moving_hub_star(n)
        # Exact diameter of the first few snapshots (they are all stars,
        # so any two suffice; we check a handful).
        adversary.reset()
        diameters = []
        for _ in range(3):
            diameters.append(snapshot_diameter(adversary.snapshot()))
            adversary.step()
        t_adversary = flooding_time(moving_hub_star(n), 0)
        t_static = flooding_time(
            StaticEvolvingGraph(AdjacencySnapshot(star_adjacency(n, center=n - 1))), 0)
        ok = (max(diameters) == 2 and t_adversary == n - 1 and t_static <= 2)
        all_ok = all_ok and ok
        result.add_row(
            n=n,
            snapshot_diameter=max(diameters),
            adversary_flooding=t_adversary,
            expected=n - 1,
            static_star_flooding=t_static,
            exact_match=ok,
        )
    result.add_note(
        "adversary: star whose hub at time t is node (n-1-t) mod n; the hub "
        "schedule always promotes an uninformed node, so each step informs "
        "exactly one node despite diameter 2"
    )
    result.add_note("static star with the same diameter floods in <= 2 steps")
    result.verdict = "consistent" if all_ok else "inconsistent"
    return result
