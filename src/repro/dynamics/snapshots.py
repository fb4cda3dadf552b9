"""Concrete :class:`~repro.dynamics.base.GraphSnapshot` implementations.

Two general-purpose snapshot types:

* :class:`AdjacencySnapshot` — dense boolean adjacency matrix; the
  workhorse for edge-MEGs and for small deterministic graphs.  The
  ``N(I)`` query is a vectorised any-reduction over the informed
  columns; the batched query ORs packed rows (:mod:`repro.util.bits`).
* :class:`EdgeListSnapshot` — CSR-style adjacency built from an edge
  list; used by the deterministic-sequence evolving graphs and the
  networkx bridge.

Geometric snapshots (radius queries on points) live in
:mod:`repro.geometric.meg` because they exploit spatial structure.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.base import GraphSnapshot
from repro.util import bits
from repro.util.validation import require, require_positive_int

__all__ = ["AdjacencySnapshot", "EdgeListSnapshot", "snapshot_from_networkx"]

#: Byte budget of the packed rows one block of the batched ``N(I)``
#: query gathers: past the cache, the gather costs more than the OR it
#: feeds.  Every member set of an ``n <= 256`` graph fits one block
#: (``n^2`` members of 32-byte rows is 2 MiB).
_GATHER_BYTES = 2 << 20


class AdjacencySnapshot(GraphSnapshot):
    """Snapshot backed by a dense symmetric boolean adjacency matrix.

    Parameters
    ----------
    adjacency:
        ``(n, n)`` boolean array.  Must be symmetric with a zero
        diagonal; validated on construction (pass ``validate=False`` to
        skip for trusted hot-path callers).
    """

    __slots__ = ("_adj",)

    def __init__(self, adjacency: np.ndarray, *, validate: bool = True) -> None:
        adj = np.asarray(adjacency, dtype=bool)
        if validate:
            require(adj.ndim == 2 and adj.shape[0] == adj.shape[1],
                    "adjacency must be a square matrix")
            require(not adj.diagonal().any(), "adjacency must have a zero diagonal")
            require(bool((adj == adj.T).all()), "adjacency must be symmetric")
        self._adj = adj

    @property
    def num_nodes(self) -> int:
        return self._adj.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        """The underlying boolean adjacency matrix (do not mutate)."""
        return self._adj

    def neighborhood_mask(self, members: np.ndarray) -> np.ndarray:
        members = np.asarray(members, dtype=bool)
        require(members.shape == (self.num_nodes,), "members mask has wrong length")
        if not members.any():
            return np.zeros(self.num_nodes, dtype=bool)
        # Any informed neighbor: reduce over the member columns.
        touched = self._adj[:, members].any(axis=1)
        return touched & ~members

    def neighborhood_masks(self, members: np.ndarray) -> np.ndarray:
        members = np.asarray(members, dtype=bool)
        require(members.ndim == 2 and members.shape[1] == self.num_nodes,
                "members must be (S, n)")
        out = np.zeros_like(members)
        # The members' packed rows (row = column by symmetry), OR-reduced
        # over each set's run of np.nonzero's row-major output; past the
        # byte budget, in blocks of whole sets.
        rows = bits.pack(self._adj)
        sets, nodes = np.nonzero(members)
        per_block = max(1, _GATHER_BYTES // rows[0].nbytes)
        blocks = [(sets, nodes)]
        if nodes.size > per_block:
            starts = np.flatnonzero(np.diff(sets, prepend=-1))
            cuts = starts[np.flatnonzero(np.diff(starts // per_block)) + 1]
            blocks = zip(np.split(sets, cuts), np.split(nodes, cuts))
        for block_sets, block_nodes in blocks:
            starts = np.flatnonzero(np.diff(block_sets, prepend=-1))
            unions = np.bitwise_or.reduceat(rows[block_nodes], starts)
            out[block_sets[starts]] = bits.unpack(unions, self.num_nodes)
        out &= ~members
        return out

    def degrees(self) -> np.ndarray:
        return self._adj.sum(axis=1, dtype=np.int64)

    def edge_count(self) -> int:
        return int(self._adj.sum(dtype=np.int64)) // 2

    def neighbors_of(self, node: int) -> np.ndarray:
        return np.flatnonzero(self._adj[node])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u, v])


class EdgeListSnapshot(GraphSnapshot):
    """Snapshot backed by a CSR adjacency structure built from an edge list.

    Memory-proportional to the number of edges; the ``N(I)`` query
    gathers the neighbor lists of the members.  Suitable for sparse
    graphs with up to millions of edges.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        ``(m, 2)`` integer array of undirected edges (self-loops and
        duplicates are rejected when *validate* is true).
    """

    __slots__ = ("_n", "_indptr", "_indices", "_m")

    def __init__(self, n: int, edges: np.ndarray, *, validate: bool = True) -> None:
        self._n = require_positive_int(n, "n")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if validate and edges.size:
            require(bool((edges >= 0).all() and (edges < n).all()),
                    "edge endpoints must be in [0, n)")
            require(bool((edges[:, 0] != edges[:, 1]).all()),
                    "self-loops are not allowed")
            canon = np.sort(edges, axis=1)
            uniq = np.unique(canon, axis=0)
            require(len(uniq) == len(edges), "duplicate edges are not allowed")
        self._m = len(edges)
        # Build CSR for the symmetrised edge set.
        if self._m:
            src = np.concatenate([edges[:, 0], edges[:, 1]])
            dst = np.concatenate([edges[:, 1], edges[:, 0]])
            order = np.argsort(src, kind="stable")
            src, dst = src[order], dst[order]
            self._indptr = np.zeros(self._n + 1, dtype=np.int64)
            np.add.at(self._indptr, src + 1, 1)
            np.cumsum(self._indptr, out=self._indptr)
            self._indices = dst
        else:
            self._indptr = np.zeros(self._n + 1, dtype=np.int64)
            self._indices = np.empty(0, dtype=np.int64)

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The symmetrised adjacency as ``(indptr, indices)`` CSR arrays
        (do not mutate).  Neighbor lists are contiguous per node in a
        deterministic construction order (not sorted); the gossip
        protocols gather uniform neighbor samples straight from it.
        """
        return self._indptr, self._indices

    def neighborhood_mask(self, members: np.ndarray) -> np.ndarray:
        members = np.asarray(members, dtype=bool)
        require(members.shape == (self._n,), "members mask has wrong length")
        out = np.zeros(self._n, dtype=bool)
        nodes = np.flatnonzero(members)
        if nodes.size == 0 or self._m == 0:
            return out
        # Gather all neighbor segments of the member nodes.
        starts = self._indptr[nodes]
        stops = self._indptr[nodes + 1]
        lengths = stops - starts
        total = int(lengths.sum())
        if total:
            # Vectorised multi-segment gather.
            seg_offsets = np.repeat(starts - np.concatenate(([0], np.cumsum(lengths)[:-1])),
                                    lengths)
            flat = np.arange(total) + seg_offsets
            out[self._indices[flat]] = True
        out &= ~members
        return out

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def edge_count(self) -> int:
        return self._m

    def neighbors_of(self, node: int) -> np.ndarray:
        return np.sort(self._indices[self._indptr[node]:self._indptr[node + 1]])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.isin(v, self._indices[self._indptr[u]:self._indptr[u + 1]]))


def snapshot_from_networkx(graph) -> EdgeListSnapshot:
    """Convert a :class:`networkx.Graph` with nodes ``0..n-1`` to a snapshot."""
    n = graph.number_of_nodes()
    require(set(graph.nodes) == set(range(n)),
            "graph nodes must be exactly 0..n-1")
    edges = np.array([(u, v) for u, v in graph.edges if u != v], dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    return EdgeListSnapshot(n, edges)
