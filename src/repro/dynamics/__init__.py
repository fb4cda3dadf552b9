"""Evolving-graph core: process protocol, snapshots, deterministic sequences."""

from repro.dynamics.adversarial import moving_hub_star, snapshot_diameter
from repro.dynamics.base import EvolvingGraph, GraphSnapshot
from repro.dynamics.batched import (
    BatchedDynamics,
    batched_dynamics_for,
    uses_inherited,
)
from repro.dynamics.sequence import (
    GeneratedEvolvingGraph,
    SequenceEvolvingGraph,
    StaticEvolvingGraph,
    complete_adjacency,
    cycle_adjacency,
    hypercube_adjacency,
    ring_of_cliques_adjacency,
    sequence_from_adjacencies,
    star_adjacency,
    static_from_networkx,
)
from repro.dynamics.snapshots import AdjacencySnapshot, EdgeListSnapshot, snapshot_from_networkx

__all__ = [
    "EvolvingGraph",
    "GraphSnapshot",
    "BatchedDynamics",
    "batched_dynamics_for",
    "uses_inherited",
    "AdjacencySnapshot",
    "EdgeListSnapshot",
    "snapshot_from_networkx",
    "SequenceEvolvingGraph",
    "StaticEvolvingGraph",
    "GeneratedEvolvingGraph",
    "cycle_adjacency",
    "complete_adjacency",
    "star_adjacency",
    "hypercube_adjacency",
    "ring_of_cliques_adjacency",
    "sequence_from_adjacencies",
    "static_from_networkx",
    "moving_hub_star",
    "snapshot_diameter",
]
