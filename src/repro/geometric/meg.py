"""Geometric Markovian evolving graphs ``G(n, r, R, eps)`` (Section 3).

``n`` walkers perform independent random walks on the lattice
``L_{n,eps}`` (move radius ``r``); at every time step two nodes are
adjacent iff their Euclidean distance is at most the transmission
radius ``R``.  The graph process is a function of the hidden product
chain of walker positions — a Markovian evolving graph in the sense of
Definition 3.1, stationary when the walkers start from their exact
stationary distribution.

Density scaling (Observation 3.3): the constructor takes a ``density``
parameter; the region side becomes ``sqrt(n / density)`` and all
theorems apply with ``R >= c sqrt(log n / density)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dynamics.base import EvolvingGraph, GraphSnapshot
from repro.dynamics.batched import BatchedDynamics, uses_inherited
from repro.geometric.cells import CellPartition
from repro.geometric.lattice import Lattice
from repro.geometric.neighbors import (
    radius_degrees,
    radius_edges,
    within_radius_of_members,
)
from repro.geometric.walk import WalkerPopulation
from repro.util.rng import SeedLike
from repro.util.validation import require, require_positive, require_positive_int

__all__ = ["GeometricSnapshot", "GeometricMEG"]


class GeometricSnapshot(GraphSnapshot):
    """Snapshot of a geometric graph: point set + transmission radius.

    The ``N(I)`` query runs a nearest-member k-d tree query instead of
    materialising edges; :meth:`degrees`, :meth:`edge_count` and
    :attr:`csr` build a full tree on demand (gossip and diagnostics,
    not the flooding hot path).
    """

    __slots__ = ("_positions", "_radius", "_boxsize", "_csr")

    def __init__(self, positions: np.ndarray, radius: float, *,
                 boxsize: float | None = None) -> None:
        self._positions = np.ascontiguousarray(positions, dtype=float)
        require(self._positions.ndim == 2 and self._positions.shape[1] == 2,
                "positions must be (n, 2)")
        self._radius = require_positive(radius, "radius")
        if boxsize is not None:
            require(radius <= boxsize / 2 * (1 + 1e-12),
                    "toroidal queries need radius <= boxsize/2")
        self._boxsize = boxsize
        self._csr = None

    @property
    def num_nodes(self) -> int:
        return self._positions.shape[0]

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the radius graph, each node's
        neighbours sorted ascending — the gather layout the gossip
        protocols sample from (:func:`repro.protocols.zoo.sample_neighbors`).
        Built from :meth:`edges` on first use and kept for the snapshot."""
        if self._csr is None:
            edges = self.edges()
            both = np.concatenate([edges, edges[:, ::-1]])
            both = both[np.lexsort((both[:, 1], both[:, 0]))]
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(both[:, 0], minlength=self.num_nodes),
                      out=indptr[1:])
            self._csr = (indptr, both[:, 1])
        return self._csr

    @property
    def positions(self) -> np.ndarray:
        """Node coordinates (do not mutate)."""
        return self._positions

    @property
    def radius(self) -> float:
        """Transmission radius ``R``."""
        return self._radius

    @property
    def boxsize(self) -> float | None:
        """Toroidal period, or ``None`` for the plain Euclidean square."""
        return self._boxsize

    def neighborhood_mask(self, members: np.ndarray) -> np.ndarray:
        return within_radius_of_members(self._positions, members, self._radius,
                                        boxsize=self._boxsize)

    def degrees(self) -> np.ndarray:
        return radius_degrees(self._positions, self._radius, boxsize=self._boxsize)

    def edge_count(self) -> int:
        return self.edges().shape[0]

    def _delta_to(self, node: int) -> np.ndarray:
        delta = self._positions - self._positions[node]
        if self._boxsize is not None:
            delta -= self._boxsize * np.round(delta / self._boxsize)
        return delta

    def neighbors_of(self, node: int) -> np.ndarray:
        delta = self._delta_to(node)
        dist2 = np.einsum("ij,ij->i", delta, delta)
        mask = dist2 <= self._radius * self._radius * (1 + 1e-12)
        mask[node] = False
        return np.flatnonzero(mask)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        delta = self._positions[u] - self._positions[v]
        if self._boxsize is not None:
            delta = delta - self._boxsize * np.round(delta / self._boxsize)
        return bool(delta @ delta <= self._radius * self._radius * (1 + 1e-12))

    def edges(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array with ``u < v``."""
        return radius_edges(self._positions, self._radius, boxsize=self._boxsize)


class GeometricMEG(EvolvingGraph):
    """The geometric-MEG ``G(n, r, R, eps)``.

    Parameters
    ----------
    n:
        Number of nodes (radio stations).
    move_radius:
        ``r`` — maximum distance a node travels per time step
        ("maximum node velocity").  ``r = 0`` gives the static random
        geometric graph.
    radius:
        ``R`` — transmission radius; the paper assumes ``eps < R``.
    eps:
        Lattice resolution (default 1, the coarsest resolution the
        paper's analysis allows; any ``0 < eps <= 1`` works).
    density:
        Node density ``delta``; the region side is ``sqrt(n / density)``
        (Observation 3.3).  Default 1 as in the paper's main setup.

    Examples
    --------
    >>> meg = GeometricMEG(n=64, move_radius=1.0, radius=4.0)
    >>> meg.reset(seed=0)
    >>> snap = meg.snapshot()
    >>> snap.num_nodes
    64
    """

    def __init__(self, n: int, move_radius: float, radius: float, *,
                 eps: float = 1.0, density: float = 1.0) -> None:
        self._n = require_positive_int(n, "n")
        radius = require_positive(radius, "radius")
        eps = require_positive(eps, "eps")
        density = require_positive(density, "density")
        require(eps < radius, "the paper assumes eps < R")
        side = math.sqrt(n / density)
        require(radius <= side * (1 + 1e-12),
                f"radius {radius} exceeds the region side {side:.4g}")
        self.lattice = Lattice(side=side, eps=eps, move_radius=move_radius)
        self.walkers = WalkerPopulation(n, self.lattice)
        self._radius = radius
        self._density = density
        self._t = 0

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def radius(self) -> float:
        """Transmission radius ``R``."""
        return self._radius

    @property
    def move_radius(self) -> float:
        """Move radius ``r``."""
        return self.lattice.move_radius

    @property
    def side(self) -> float:
        """Side length of the square region."""
        return self.lattice.side

    @property
    def density(self) -> float:
        """Node density ``n / side^2``."""
        return self._density

    def reset(self, seed: SeedLike = None) -> None:
        self.walkers.reset(seed)
        self._t = 0

    def reset_at(self, positions: np.ndarray, *, seed: SeedLike = None) -> None:
        """Non-stationary start at explicit Euclidean *positions*.

        Positions are snapped to the nearest lattice point.  Used by
        adversarial experiments (all nodes in a corner, two far groups).
        """
        positions = np.asarray(positions, dtype=float)
        require(positions.shape == (self._n, 2), "positions must be (n, 2)")
        g = self.lattice.grid_size
        ix = np.clip(np.rint(positions[:, 0] / self.lattice.eps), 0, g - 1)
        iy = np.clip(np.rint(positions[:, 1] / self.lattice.eps), 0, g - 1)
        self.walkers.reset_at(ix.astype(np.int64), iy.astype(np.int64), seed=seed)
        self._t = 0

    def step(self) -> None:
        self.walkers.step()
        self._t += 1

    def snapshot(self) -> GeometricSnapshot:
        return GeometricSnapshot(self.walkers.positions(), self._radius)

    def batched_dynamics(self) -> BatchedDynamics:
        from repro.geometric.kernels import GeometricBatchedDynamics

        if not uses_inherited(self, GeometricMEG, "snapshot"):
            return super().batched_dynamics()
        return GeometricBatchedDynamics(
            self, native=uses_inherited(self, GeometricMEG, "reset", "step"))

    @property
    def time(self) -> int:
        return self._t

    def cell_partition(self) -> CellPartition:
        """The Theorem 3.2 proof partition for this instance."""
        return CellPartition(self.side, self._radius)
