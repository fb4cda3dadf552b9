"""E1 — Lemma 2.4: deterministic expansion ladders bound flooding time.

For a battery of small deterministic graphs (static and genuinely
time-varying sequences) we compute the *exact* per-size worst expansion
``k_i = min_{|I| = i} |N(I)| / i`` for ``i <= n/2`` by enumeration,
evaluate the Corollary 2.6 ladder sum, and compare against the measured
flooding time maximised over **all** sources and (for sequences) all
phase shifts.

Shape criterion: ``T_max <= C * (1 + bound_sum)`` for a single modest
constant ``C`` across all instances (the lemma is an O(.) statement;
the experiment traces the realised constant).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.records import ExperimentResult
from repro.core.bounds import unit_ladder_bound
from repro.core.expansion import worst_expansion_ladder_exact
from repro.core.flooding import resolve_max_steps
from repro.dynamics.base import GraphSnapshot
from repro.dynamics.sequence import (
    SequenceEvolvingGraph,
    StaticEvolvingGraph,
    complete_adjacency,
    cycle_adjacency,
    hypercube_adjacency,
    ring_of_cliques_adjacency,
    star_adjacency,
)
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.engine.batch import run_multisource_replay
from repro.experiments.common import ExperimentConfig

EXPERIMENT_ID = "E1"
TITLE = "Lemma 2.4: deterministic expansion ladder bounds flooding"

#: Realised-constant threshold for the shape verdict.
SHAPE_CONSTANT = 6.0


def _exact_unit_ladder(snapshots: Sequence[GraphSnapshot]) -> np.ndarray:
    """Exact ``k_i`` for ``i = 1..n/2``: the min over sizes *and* snapshots.

    The monotone (non-increasing) envelope is applied afterwards so the
    ladder satisfies the lemma's ``k_1 >= ... >= k_s`` hypothesis.
    """
    n = snapshots[0].num_nodes
    top = max(1, n // 2)
    worst = np.minimum.reduce([worst_expansion_ladder_exact(snap, top)
                               for snap in snapshots])
    ks = worst / np.arange(1, top + 1)
    # Monotone envelope (suffix-min keeps validity: replacing k_i by
    # min_{j >= i} k_j only weakens the claimed expansion).
    return np.flip(np.minimum.accumulate(np.flip(ks)))


def _max_flooding_all_sources(snapshots: Sequence[GraphSnapshot]) -> int:
    """``max T(s)`` over every source and every phase shift of the
    cycling sequence: one all-sources pass per rotation."""
    n = snapshots[0].num_nodes
    budget = resolve_max_steps(n)
    return max(
        run_multisource_replay(
            SequenceEvolvingGraph(snapshots[phase:] + snapshots[:phase]),
            range(n), 0, budget)
        for phase in range(len(snapshots))
    )


def _instances(config: ExperimentConfig):
    small = config.pick(8, 12, 14)
    yield "complete", StaticEvolvingGraph(AdjacencySnapshot(complete_adjacency(small)))
    yield "star", StaticEvolvingGraph(AdjacencySnapshot(star_adjacency(small)))
    yield "cycle", StaticEvolvingGraph(AdjacencySnapshot(cycle_adjacency(small)))
    yield "hypercube-3", StaticEvolvingGraph(AdjacencySnapshot(hypercube_adjacency(3)))
    if config.scale != "quick":
        yield ("hypercube-4",
               StaticEvolvingGraph(AdjacencySnapshot(hypercube_adjacency(4))))
        yield ("ring-of-cliques",
               StaticEvolvingGraph(AdjacencySnapshot(ring_of_cliques_adjacency(4, 3))))
    # A genuinely evolving sequence: cycle alternating with a star —
    # the ladder must hold for *every* snapshot, so it is the min.
    n = small
    seq = SequenceEvolvingGraph(
        [AdjacencySnapshot(cycle_adjacency(n)), AdjacencySnapshot(star_adjacency(n))]
    )
    yield "cycle/star alternating", seq


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run E1; see the module docstring."""
    result = ExperimentResult(EXPERIMENT_ID, TITLE)
    worst_constant = 0.0
    for name, graph in _instances(config):
        n = graph.num_nodes
        ks = _exact_unit_ladder(graph.sequence)
        if (ks <= 0).any():
            # Not even a (1, k)-expander for positive k at some size —
            # the lemma does not apply (disconnected); skip.
            result.add_note(f"{name}: ladder has zero entries; lemma vacuous, skipped")
            continue
        bound = unit_ladder_bound(n, lambda i, ks=ks: ks[np.clip(i.astype(int) - 1,
                                                                 0, len(ks) - 1)])
        t_max = _max_flooding_all_sources(graph.sequence)
        constant = t_max / (1.0 + bound)
        worst_constant = max(worst_constant, constant)
        result.add_row(
            graph=name,
            n=n,
            max_flooding=t_max,
            ladder_sum=round(bound, 4),
            realized_constant=round(constant, 4),
            within_shape=constant <= SHAPE_CONSTANT,
        )
    result.add_note(
        f"criterion: T_max <= {SHAPE_CONSTANT:g} * (1 + Cor2.6 ladder sum) "
        f"with the exact per-size expansion ladder"
    )
    result.add_note(f"worst realised constant: {worst_constant:.3f}")
    result.verdict = "consistent" if worst_constant <= SHAPE_CONSTANT else "inconsistent"
    return result
