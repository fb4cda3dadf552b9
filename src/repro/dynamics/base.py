"""Evolving-graph abstractions (Definitions 2.1 and 3.1 of the paper).

An *evolving graph* is a sequence of graphs ``{G_t}`` over a fixed node
set ``[n]``.  A *Markovian evolving graph* (MEG) is such a sequence that
is a Markov chain (Definition 2.1), or more generally a function of a
hidden Markov chain (Definition 3.1 — needed for geometric-MEG, whose
hidden state is the tuple of walker positions).

The simulation contract is deliberately minimal so that each model can
use the representation that makes its hot path fast:

* :class:`GraphSnapshot` — a read-only view of ``G_t`` answering the
  one query flooding needs (`neighbors of a node set`) plus generic
  inspection helpers used by tests and the expansion analyzer.
* :class:`EvolvingGraph` — the stateful process: ``reset`` samples
  ``G_0`` (from the stationary distribution for stationary MEGs),
  ``step`` advances ``t -> t+1``, ``snapshot`` exposes the current
  graph, and ``batched_dynamics`` names the family's batched kernels
  (:mod:`repro.dynamics.batched`).

All implementations must be deterministic given the generator passed to
``reset`` (which is the basis for reproducible experiments).
"""

from __future__ import annotations

import abc
from typing import Iterator

import numpy as np

from repro.dynamics.batched import BatchedDynamics
from repro.util.rng import SeedLike

__all__ = ["GraphSnapshot", "EvolvingGraph"]


class GraphSnapshot(abc.ABC):
    """Read-only view of a single graph ``G_t`` on node set ``[n]``.

    Nodes are the integers ``0 .. n-1`` (the paper's ``[n] = {1..n}``
    shifted to 0-based indexing).
    """

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""

    @abc.abstractmethod
    def neighborhood_mask(self, members: np.ndarray) -> np.ndarray:
        """Out-neighborhood ``N(I)`` of the node set *members*.

        Parameters
        ----------
        members:
            Boolean mask of length ``n`` selecting the set ``I``.

        Returns
        -------
        numpy.ndarray
            Boolean mask of length ``n`` selecting
            ``N(I) = {v not in I : {u, v} in E for some u in I}``.
            The returned mask is always disjoint from *members*.
        """

    @abc.abstractmethod
    def degrees(self) -> np.ndarray:
        """Degree of every node as an ``int64`` array of length ``n``."""

    @abc.abstractmethod
    def edge_count(self) -> int:
        """Number of (undirected) edges."""

    def neighborhood_masks(self, members: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`neighborhood_mask` for several member sets.

        Parameters
        ----------
        members:
            ``(S, n)`` boolean matrix; each row selects one set ``I``.

        Returns
        -------
        numpy.ndarray
            ``(S, n)`` boolean matrix whose row ``i`` equals
            ``neighborhood_mask(members[i])`` — the batched query the
            engine's multi-source flooding runs against one shared
            snapshot.  The default loops the single-set query; concrete
            snapshots may override with a batched implementation.
        """
        members = np.asarray(members, dtype=bool)
        out = np.zeros_like(members)
        for i in range(members.shape[0]):
            out[i] = self.neighborhood_mask(members[i])
        return out

    def neighbors_of(self, node: int) -> np.ndarray:
        """Sorted array of neighbors of a single *node*.

        Default implementation goes through :meth:`neighborhood_mask`;
        concrete snapshots may override with something faster.
        """
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[node] = True
        return np.flatnonzero(self.neighborhood_mask(mask))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        if u == v:
            return False
        return bool(np.isin(v, self.neighbors_of(u)))

    def to_networkx(self):
        """Materialise the snapshot as a :class:`networkx.Graph` (tests/debug)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_nodes))
        for u in range(self.num_nodes):
            for v in self.neighbors_of(u):
                if v > u:
                    g.add_edge(u, int(v))
        return g


class EvolvingGraph(abc.ABC):
    """A stateful evolving-graph process ``G_0, G_1, G_2, ...``.

    Typical use::

        meg.reset(rng)            # sample G_0 (stationary for MEGs)
        s0 = meg.snapshot()       # view of G_0
        meg.step()                # advance to G_1
        ...

    Stationary Markovian evolving graphs (the paper's setting) must
    implement ``reset`` by sampling from the stationary distribution of
    the underlying chain — *perfect simulation*, no warm-up.
    """

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Number of nodes ``n`` (fixed for the lifetime of the process)."""

    @abc.abstractmethod
    def reset(self, seed: SeedLike = None) -> None:
        """Sample the initial graph ``G_0`` and rewind time to ``t = 0``."""

    @abc.abstractmethod
    def step(self) -> None:
        """Advance the process one time step (``G_t -> G_{t+1}``)."""

    @abc.abstractmethod
    def snapshot(self) -> GraphSnapshot:
        """Read-only view of the current graph ``G_t``.

        The returned snapshot is only guaranteed valid until the next
        call to :meth:`step` or :meth:`reset` (implementations may reuse
        buffers).
        """

    @property
    @abc.abstractmethod
    def time(self) -> int:
        """Current time index ``t`` (0 after ``reset``)."""

    def snapshots(self, count: int) -> Iterator[GraphSnapshot]:
        """Yield *count* consecutive snapshots, stepping in between.

        Yields the current snapshot first; after the iterator is
        exhausted the process has advanced ``count - 1`` steps.
        """
        for i in range(count):
            if i > 0:
                self.step()
            yield self.snapshot()

    def batched_dynamics(self) -> BatchedDynamics:
        """The batched-kernel provider serving this model's family.

        The default is the generic :class:`BatchedDynamics`: exact
        replay through :meth:`snapshot` and no native kernels.  A model
        family overrides this to hand the engine its own kernels, gated
        on the subclass still inheriting the methods those kernels
        re-implement (:func:`~repro.dynamics.batched.uses_inherited`).
        """
        return BatchedDynamics(self)
