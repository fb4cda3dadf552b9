"""Erdős–Rényi substrate: the stationary law of an edge-MEG.

``G(n, p_hat)`` is both the stationary snapshot distribution of
``M(n, p, q)`` and the graph family whose expansion Lemma 4.2 analyses.
This module provides sampling plus the structural statistics the
experiments and tests need (degrees, connectivity, isolated nodes,
connectivity threshold helpers).
"""

from __future__ import annotations

import math

import numpy as np

from repro.dynamics.snapshots import AdjacencySnapshot
from repro.edgemeg.meg import EdgeMEG
from repro.util.rng import SeedLike, as_generator
from repro.util.unionfind import UnionFind
from repro.util.validation import require, require_positive_int, require_probability

__all__ = [
    "ErMEG",
    "erdos_renyi_adjacency",
    "erdos_renyi_snapshot",
    "connected_components",
    "is_connected",
    "num_isolated",
    "connectivity_threshold",
]


class ErMEG(EdgeMEG):
    """Edge-MEG parameterised by its stationary density ``p_hat``.

    ``ErMEG(n, p_hat, q)`` is exactly ``EdgeMEG(n, p, q)`` with the
    birth-rate solved from ``p_hat = p / (p + q)`` — the natural
    constructor when an experiment pins the stationary ``G(n, p_hat)``
    law (the quantity Theorem 4.3's bound depends on) and sweeps the
    persistence ``q``.  Being a plain subclass, it inherits the edge
    family's batched kernels with ``EdgeMEG.batched_dynamics``.
    """

    def __init__(self, n: int, p_hat: float, q: float) -> None:
        p_hat = require_probability(p_hat, "p_hat", open_right=True)
        q = require_probability(q, "q", open_left=True)
        require(p_hat * (1.0 + q) <= 1.0 + 1e-12,
                f"no birth-rate p <= 1 realises stationary density "
                f"p_hat={p_hat:g} at death-rate q={q:g} "
                f"(need p_hat <= 1/(1+q) = {1.0 / (1.0 + q):.4g})")
        super().__init__(n, min(p_hat * q / (1.0 - p_hat), 1.0), q)


def erdos_renyi_adjacency(n: int, p: float, *, seed: SeedLike = None) -> np.ndarray:
    """Sample a ``G(n, p)`` adjacency matrix (symmetric bool, zero diagonal)."""
    n = require_positive_int(n, "n")
    p = require_probability(p, "p")
    rng = as_generator(seed)
    iu = np.triu_indices(n, k=1)
    states = rng.random(iu[0].shape[0]) < p
    adj = np.zeros((n, n), dtype=bool)
    adj[iu] = states
    adj |= adj.T
    return adj


def erdos_renyi_snapshot(n: int, p: float, *, seed: SeedLike = None) -> AdjacencySnapshot:
    """Sample a ``G(n, p)`` snapshot."""
    return AdjacencySnapshot(erdos_renyi_adjacency(n, p, seed=seed), validate=False)


def connected_components(adjacency: np.ndarray) -> np.ndarray:
    """Component label per node (labels are the component roots).

    Union–find on the edge list; ``O(m alpha(n))``.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    n = adjacency.shape[0]
    uf = UnionFind(n)
    us, vs = np.nonzero(np.triu(adjacency, k=1))
    uf.union_edges(np.column_stack([us, vs]))
    return uf.component_labels()


def is_connected(adjacency: np.ndarray) -> bool:
    """Whether the graph is connected (single component)."""
    labels = connected_components(adjacency)
    return bool((labels == labels[0]).all())


def num_isolated(adjacency: np.ndarray) -> int:
    """Number of degree-0 nodes."""
    adjacency = np.asarray(adjacency, dtype=bool)
    return int((~adjacency.any(axis=1)).sum())


def connectivity_threshold(n: int) -> float:
    """The classical ``G(n, p)`` connectivity threshold ``log n / n``.

    ``p_hat`` must sit a constant factor above this for Theorem 4.1's
    hypothesis ``p_hat >= c log n / n``.
    """
    n = require_positive_int(n, "n")
    require(n >= 2, "need n >= 2")
    return math.log(n) / n
