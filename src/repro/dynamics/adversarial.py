"""Adversarial evolving graphs: diameter tells you nothing about flooding.

The paper's introduction makes a pointed structural claim:

    "it is easy to construct an n-node mobile network over a finite
    square that has, at every time, diameter D = 3 while its flooding
    time is Theta(n).  In general, any diameter bound for a given
    dynamic network implies nothing about its flooding time but the
    fact that the latter is finite."

This module provides the construction behind that claim (experiment
E15): :func:`moving_hub_star` — at time ``t`` the graph is a star whose
hub is node ``(n - 1 - t) mod n``.  Every snapshot has diameter 2, yet
flooding from node 0 takes exactly ``n - 1`` steps: the adversary hands
the hub role to a not-yet-informed node at every step, so each step
informs exactly one new node.

In the paper's mobile phrasing, the hub role is realised by one node
sitting at a rendezvous position that every other node's transmission
reaches through relays; only two nodes move per step (the old and the
new hub swap places), so a modest move radius suffices.  The essence —
a per-snapshot diameter bound coexisting with Theta(n) flooding — is
captured exactly by the abstract sequence and verified in E15 with the
exact :func:`snapshot_diameter`.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.base import EvolvingGraph
from repro.dynamics.sequence import GeneratedEvolvingGraph, star_adjacency
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.util.validation import require, require_positive_int

__all__ = ["moving_hub_star", "snapshot_diameter"]


def moving_hub_star(n: int) -> EvolvingGraph:
    """The moving-hub star adversary on ``n >= 3`` nodes.

    Snapshot at time ``t``: a star centered at node ``(n - 1 - t) mod n``.
    Diameter of every snapshot is 2; flooding from node 0 takes exactly
    ``n - 1`` steps.
    """
    n = require_positive_int(n, "n")
    require(n >= 3, "the adversary needs n >= 3")

    def factory(t: int) -> AdjacencySnapshot:
        return AdjacencySnapshot(star_adjacency(n, center=(n - 1 - t) % n),
                                 validate=False)

    return GeneratedEvolvingGraph(n, factory)


def snapshot_diameter(snapshot) -> int:
    """Exact diameter of a snapshot: BFS from every source at once.

    Row ``s`` of an ``(n, n)`` boolean matrix is the ball around source
    ``s``; one batched :meth:`~repro.dynamics.base.GraphSnapshot.neighborhood_masks`
    query per round grows every incomplete ball, and the diameter is the
    round in which the last ball covers the graph.  Returns ``n`` (an
    impossible eccentricity, standing in for infinity) when the
    snapshot is disconnected.
    """
    n = snapshot.num_nodes
    reached = np.eye(n, dtype=bool)
    dist = 0
    while not reached.all():
        open_rows = np.flatnonzero(~reached.all(axis=1))
        fresh = snapshot.neighborhood_masks(reached[open_rows])
        if not fresh.any(axis=1).all():
            return n  # some ball stopped growing short of the graph
        reached[open_rows] |= fresh
        dist += 1
    return dist
