"""Temporal-distance metrics on evolving graphs.

Flooding time has a clean metric interpretation: the *foremost-arrival
time* from source ``s`` to node ``v`` is the earliest step at which a
journey (a time-respecting path crossing one edge per step) starting at
``s`` at time 0 can reach ``v`` — and the flooding process computes all
foremost-arrival times from ``s`` simultaneously, because the informed
set at time ``t`` is exactly the set of nodes reachable by some journey
of length ``<= t``.  Hence:

* ``T(s)`` (the paper's per-source flooding time) is the *temporal
  eccentricity* of ``s``;
* the paper's flooding time ``max_s T(s)`` is the *temporal diameter*
  of the realisation.

This module exposes those quantities directly, plus the per-node
arrival times that the flooding engine does not record.  They give the
experiments a second, independently-implemented oracle for flooding
times (tested for exact agreement), and make the paper's diameter-vs-
flooding discussion measurable (see E15).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.flooding import resolve_max_steps
from repro.dynamics.base import EvolvingGraph
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import require, require_node

__all__ = ["ArrivalTimes", "foremost_arrival_times", "temporal_eccentricity",
           "temporal_diameter"]


@dataclass(frozen=True)
class ArrivalTimes:
    """Foremost-arrival times from one source.

    Attributes
    ----------
    source:
        The source node.
    arrival:
        ``int64`` array; ``arrival[v]`` is the earliest step at which
        ``v`` can be informed (0 for the source), or ``-1`` if ``v`` was
        not reached within the step budget.
    """

    source: int
    arrival: np.ndarray

    @property
    def reached_all(self) -> bool:
        """Whether every node was reached."""
        return bool((self.arrival >= 0).all())

    @property
    def eccentricity(self) -> int:
        """``max_v arrival[v]`` — equals the flooding time ``T(source)``.

        Raises
        ------
        ValueError
            If some node was never reached.
        """
        require(self.reached_all, "eccentricity undefined: some nodes unreached")
        return int(self.arrival.max())

    def reached_by(self, t: int) -> np.ndarray:
        """Boolean mask of nodes with ``arrival <= t`` — the informed set
        ``I_t`` of the flooding process."""
        return (self.arrival >= 0) & (self.arrival <= t)


def foremost_arrival_times(
    graph: EvolvingGraph,
    source: int,
    *,
    seed: SeedLike = None,
    max_steps: int | None = None,
    reset: bool = True,
) -> ArrivalTimes:
    """Foremost-arrival times from *source* on one realisation of *graph*.

    Runs the same front propagation as the flooding engine but records
    per-node arrival steps.  ``reset=False`` starts at the process's
    current time (matching :func:`repro.core.flooding.flood`).
    """
    n = graph.num_nodes
    source = require_node(source, n, "source")
    budget = resolve_max_steps(n, max_steps)
    if reset:
        graph.reset(seed)

    arrival = np.full(n, -1, dtype=np.int64)
    arrival[source] = 0
    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    t = 0
    while not informed.all() and t < budget:
        fresh = graph.snapshot().neighborhood_mask(informed)
        graph.step()
        t += 1
        if fresh.any():
            informed |= fresh
            arrival[fresh] = t
    return ArrivalTimes(source=source, arrival=arrival)


def temporal_eccentricity(graph: EvolvingGraph, source: int, *,
                          seed: SeedLike = None,
                          max_steps: int | None = None) -> int:
    """``T(source)`` via the arrival-time oracle (exact flooding time)."""
    times = foremost_arrival_times(graph, source, seed=seed, max_steps=max_steps)
    return times.eccentricity


def temporal_diameter(graph: EvolvingGraph, *, seed: SeedLike = None,
                      sources=None, max_steps: int | None = None) -> int:
    """``max_s T(s)`` on a **single** replayed realisation.

    The paper's flooding time of the evolving graph.  As in
    :func:`repro.core.flooding.max_flooding_time_over_sources`, the same
    realisation is replayed per source by fixing one derived seed.
    """
    n = graph.num_nodes
    if sources is None:
        sources = range(n)
    rng = as_generator(seed)
    replay_seed = int(rng.integers(0, 2**63 - 1))
    worst = 0
    for s in sources:
        worst = max(worst, temporal_eccentricity(graph, int(s), seed=replay_seed,
                                                 max_steps=max_steps))
    return worst
