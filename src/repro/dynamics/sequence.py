"""Deterministic evolving graphs: explicit graph sequences.

Lemma 2.4 of the paper is a statement about *deterministic* evolving
graphs — arbitrary sequences ``{G_t}`` with planted expansion
properties.  This module provides the corresponding process so that the
lemma (and the flooding engine) can be exercised independently of any
randomness: a sequence of snapshots replayed in order, optionally
cycling.

It also provides small graph constructors used by the E1 experiment
(hypercube, ring of cliques, complete/star/cycle graphs) without
depending on networkx in the hot path.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.dynamics.base import EvolvingGraph, GraphSnapshot
from repro.dynamics.snapshots import AdjacencySnapshot, EdgeListSnapshot
from repro.util.rng import SeedLike
from repro.util.validation import require, require_positive_int

__all__ = [
    "SequenceEvolvingGraph",
    "StaticEvolvingGraph",
    "GeneratedEvolvingGraph",
    "cycle_adjacency",
    "complete_adjacency",
    "star_adjacency",
    "hypercube_adjacency",
    "ring_of_cliques_adjacency",
]


class SequenceEvolvingGraph(EvolvingGraph):
    """Replay an explicit list of snapshots, optionally cycling.

    Parameters
    ----------
    snapshots:
        Non-empty sequence of snapshots sharing the same node count.
    cycle:
        When true (default) time wraps around the sequence, so the
        process is infinite as Definition 2.1 requires; when false,
        stepping past the end raises :class:`IndexError`.
    """

    def __init__(self, snapshots: Sequence[GraphSnapshot], *, cycle: bool = True) -> None:
        require(len(snapshots) > 0, "snapshots must be non-empty")
        n = snapshots[0].num_nodes
        require(all(s.num_nodes == n for s in snapshots),
                "all snapshots must have the same number of nodes")
        self._snapshots = tuple(snapshots)
        self._cycle = cycle
        self._t = 0

    @property
    def num_nodes(self) -> int:
        return self._snapshots[0].num_nodes

    @property
    def sequence(self) -> tuple[GraphSnapshot, ...]:
        """The snapshots of one period, in replay order (read-only).

        Named apart from :meth:`EvolvingGraph.snapshots`, which steps
        the process while it yields.
        """
        return self._snapshots

    @property
    def period(self) -> int:
        """Length of the underlying snapshot list."""
        return len(self._snapshots)

    def reset(self, seed: SeedLike = None) -> None:  # noqa: ARG002 (deterministic)
        self._t = 0

    def step(self) -> None:
        if not self._cycle and self._t + 1 >= len(self._snapshots):
            raise IndexError("stepped past the end of a non-cycling sequence")
        self._t += 1

    def snapshot(self) -> GraphSnapshot:
        return self._snapshots[self._t % len(self._snapshots)]

    @property
    def time(self) -> int:
        return self._t


class StaticEvolvingGraph(SequenceEvolvingGraph):
    """A static graph viewed as a (constant) evolving graph.

    The baseline the paper compares against implicitly: on a static
    graph, flooding time equals eccentricity of the source, and the max
    over sources equals the diameter.
    """

    def __init__(self, snapshot: GraphSnapshot) -> None:
        super().__init__([snapshot], cycle=True)


class GeneratedEvolvingGraph(EvolvingGraph):
    """Evolving graph produced by a user factory ``t -> snapshot``.

    Useful for adversarial constructions in tests (e.g. the moving-cut
    sequences showing diameter and flooding time can diverge).
    """

    def __init__(self, n: int, factory: Callable[[int], GraphSnapshot]) -> None:
        self._n = require_positive_int(n, "n")
        self._factory = factory
        self._t = 0
        self._current = factory(0)
        require(self._current.num_nodes == self._n, "factory produced wrong node count")

    @property
    def num_nodes(self) -> int:
        return self._n

    def reset(self, seed: SeedLike = None) -> None:  # noqa: ARG002 (deterministic)
        self._t = 0
        self._current = self._factory(0)

    def step(self) -> None:
        self._t += 1
        self._current = self._factory(self._t)
        require(self._current.num_nodes == self._n, "factory produced wrong node count")

    def snapshot(self) -> GraphSnapshot:
        return self._current

    @property
    def time(self) -> int:
        return self._t


# ---------------------------------------------------------------------------
# Small deterministic graph constructors (dense adjacency).
# ---------------------------------------------------------------------------

def cycle_adjacency(n: int) -> np.ndarray:
    """Adjacency matrix of the ``n``-cycle (``n >= 3``)."""
    n = require_positive_int(n, "n")
    require(n >= 3, "a cycle needs n >= 3")
    adj = np.zeros((n, n), dtype=bool)
    idx = np.arange(n)
    adj[idx, (idx + 1) % n] = True
    adj[(idx + 1) % n, idx] = True
    return adj


def complete_adjacency(n: int) -> np.ndarray:
    """Adjacency matrix of the complete graph ``K_n``."""
    n = require_positive_int(n, "n")
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return adj


def star_adjacency(n: int, center: int = 0) -> np.ndarray:
    """Adjacency matrix of the ``n``-node star centered at *center*."""
    n = require_positive_int(n, "n")
    require(0 <= center < n, "center must be a node")
    adj = np.zeros((n, n), dtype=bool)
    adj[center, :] = True
    adj[:, center] = True
    adj[center, center] = False
    return adj


def hypercube_adjacency(dim: int) -> np.ndarray:
    """Adjacency matrix of the ``dim``-dimensional Boolean hypercube.

    The hypercube is the classical example of a graph whose vertex
    expansion degrades gracefully with set size — a natural test bed for
    the ladder bound of Lemma 2.4.
    """
    dim = require_positive_int(dim, "dim")
    n = 1 << dim
    nodes = np.arange(n)
    adj = np.zeros((n, n), dtype=bool)
    for b in range(dim):
        partner = nodes ^ (1 << b)
        adj[nodes, partner] = True
    return adj


def ring_of_cliques_adjacency(num_cliques: int, clique_size: int) -> np.ndarray:
    """Ring of *num_cliques* cliques of size *clique_size*.

    Consecutive cliques are joined by a single bridge edge.  This graph
    has excellent expansion for tiny sets (inside a clique) and poor
    expansion for clique-sized sets — exactly the non-uniform profile
    the parameterised Definition 2.2 is designed to capture.
    """
    num_cliques = require_positive_int(num_cliques, "num_cliques")
    clique_size = require_positive_int(clique_size, "clique_size")
    require(num_cliques >= 3, "need at least 3 cliques to form a ring")
    n = num_cliques * clique_size
    adj = np.zeros((n, n), dtype=bool)
    for c in range(num_cliques):
        lo, hi = c * clique_size, (c + 1) * clique_size
        adj[lo:hi, lo:hi] = True
        # Bridge from the last node of this clique to the first of the next.
        nxt = ((c + 1) % num_cliques) * clique_size
        adj[hi - 1, nxt] = True
        adj[nxt, hi - 1] = True
    np.fill_diagonal(adj, False)
    return adj


def sequence_from_adjacencies(mats: Sequence[np.ndarray], *, cycle: bool = True,
                              ) -> SequenceEvolvingGraph:
    """Build a :class:`SequenceEvolvingGraph` from adjacency matrices."""
    return SequenceEvolvingGraph([AdjacencySnapshot(m) for m in mats], cycle=cycle)


def static_from_networkx(graph) -> StaticEvolvingGraph:
    """Wrap a networkx graph (nodes ``0..n-1``) as a static evolving graph."""
    from repro.dynamics.snapshots import snapshot_from_networkx

    return StaticEvolvingGraph(snapshot_from_networkx(graph))


__all__ += ["sequence_from_adjacencies", "static_from_networkx"]
