"""Random waypoint on the sphere (reference [25] of the paper).

The paper lists "the random waypoint on a sphere" among the mobility
models whose stationary node-position distribution is uniform — by the
symmetry of the sphere, like the torus variants.  Nodes travel along
great-circle arcs toward uniformly drawn destination points at constant
(angular) speed; on arrival they redraw.

Because the sphere is not the square ``[0, side]^2``, this model does
not implement :class:`~repro.mobility.base.MobilityModel`; instead it
pairs with its own snapshot type, :class:`SphereSnapshot`, which
measures adjacency by *chord* distance (equivalently a great-circle
angle threshold) with a 3-D k-d tree — the same ``N(I)`` frontier query
pattern as the planar models.

Scaling convention: the sphere radius is chosen so the surface area is
``n`` (unit density, matching the paper's square of area ``n``), i.e.
``rho = sqrt(n / (4 pi))``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dynamics.base import EvolvingGraph, GraphSnapshot
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import require, require_positive, require_positive_int

__all__ = ["SphereSnapshot", "SphereWaypointMEG", "sphere_radius_for_density"]


def sphere_radius_for_density(n: int, density: float = 1.0) -> float:
    """Sphere radius ``rho`` with surface area ``n / density``."""
    n = require_positive_int(n, "n")
    density = require_positive(density, "density")
    return math.sqrt(n / (4.0 * math.pi * density))


def _uniform_sphere(count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` unit vectors uniform on S^2 (Gaussian normalisation)."""
    raw = rng.normal(size=(count, 3))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _rotate_towards(points: np.ndarray, targets: np.ndarray,
                    angle: np.ndarray) -> np.ndarray:
    """Rotate unit vectors *points* toward *targets* by *angle* radians
    along the connecting great circle (vectorised slerp step)."""
    dots = np.clip(np.einsum("ij,ij->i", points, targets), -1.0, 1.0)
    total = np.arccos(dots)
    # Orthonormal direction of travel in the plane of the great circle.
    ortho = targets - dots[:, None] * points
    norms = np.linalg.norm(ortho, axis=1)
    safe = norms > 1e-12
    direction = np.zeros_like(points)
    direction[safe] = ortho[safe] / norms[safe, None]
    step = np.minimum(angle, total)
    out = np.cos(step)[:, None] * points + np.sin(step)[:, None] * direction
    return out / np.linalg.norm(out, axis=1, keepdims=True)


class SphereSnapshot(GraphSnapshot):
    """Snapshot of points on a sphere; edges by chord distance ``<= R``.

    Chord distance ``c`` and great-circle distance ``g`` on a sphere of
    radius ``rho`` satisfy ``c = 2 rho sin(g / (2 rho))`` — monotone, so
    thresholding the chord is thresholding the geodesic.
    """

    __slots__ = ("_points", "_rho", "_radius")

    def __init__(self, unit_points: np.ndarray, sphere_radius: float,
                 radius: float) -> None:
        self._points = np.ascontiguousarray(unit_points, dtype=float)
        require(self._points.ndim == 2 and self._points.shape[1] == 3,
                "unit_points must be (n, 3)")
        self._rho = require_positive(sphere_radius, "sphere_radius")
        self._radius = require_positive(radius, "radius")
        require(radius <= 2 * self._rho, "chord radius cannot exceed the diameter")

    @property
    def num_nodes(self) -> int:
        return self._points.shape[0]

    @property
    def positions(self) -> np.ndarray:
        """Euclidean (3-D) coordinates on the sphere of radius ``rho``."""
        return self._points * self._rho

    def neighborhood_mask(self, members: np.ndarray) -> np.ndarray:
        members = np.asarray(members, dtype=bool)
        require(members.shape == (self.num_nodes,), "members mask has wrong length")
        out = np.zeros(self.num_nodes, dtype=bool)
        member_idx = np.flatnonzero(members)
        other_idx = np.flatnonzero(~members)
        if member_idx.size == 0 or other_idx.size == 0:
            return out
        from scipy.spatial import cKDTree

        coords = self.positions
        tree = cKDTree(coords[member_idx])
        dist, _ = tree.query(coords[other_idx], k=1,
                             distance_upper_bound=self._radius * (1 + 1e-12))
        out[other_idx[dist <= self._radius * (1 + 1e-12)]] = True
        return out

    def degrees(self) -> np.ndarray:
        from scipy.spatial import cKDTree

        coords = self.positions
        tree = cKDTree(coords)
        counts = tree.query_ball_point(coords, self._radius * (1 + 1e-12),
                                       return_length=True)
        return np.asarray(counts, dtype=np.int64) - 1

    def edge_count(self) -> int:
        from scipy.spatial import cKDTree

        coords = self.positions
        return len(cKDTree(coords).query_pairs(self._radius * (1 + 1e-12)))

    def neighbors_of(self, node: int) -> np.ndarray:
        coords = self.positions
        delta = coords - coords[node]
        dist2 = np.einsum("ij,ij->i", delta, delta)
        mask = dist2 <= self._radius**2 * (1 + 1e-12)
        mask[node] = False
        return np.flatnonzero(mask)


class SphereWaypointMEG(EvolvingGraph):
    """Random-waypoint-on-a-sphere evolving graph.

    Parameters
    ----------
    n:
        Number of nodes.
    radius:
        Transmission radius (chord distance) ``R``.
    speed:
        Surface distance travelled per step (``r``).
    density:
        Node density; the sphere's area is ``n / density``.

    Uniform positions are exactly stationary (rotational symmetry), so
    ``reset`` is a perfect simulation.
    """

    exact_stationary_start = True

    def __init__(self, n: int, *, radius: float, speed: float,
                 density: float = 1.0) -> None:
        self._n = require_positive_int(n, "n")
        self._rho = sphere_radius_for_density(n, density)
        self._radius = require_positive(radius, "radius")
        require(radius <= 2 * self._rho, "radius exceeds the sphere diameter")
        self._speed = require_positive(speed, "speed")
        self._angle = self._speed / self._rho  # angular speed per step
        self._points = np.zeros((self._n, 3))
        self._targets = np.zeros((self._n, 3))
        self._rng = as_generator(None)
        self._t = 0

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def sphere_radius(self) -> float:
        """Sphere radius ``rho``."""
        return self._rho

    @property
    def radius(self) -> float:
        """Transmission (chord) radius ``R``."""
        return self._radius

    def reset(self, seed: SeedLike = None) -> None:
        self._rng = as_generator(seed)
        self._points = _uniform_sphere(self._n, self._rng)
        self._targets = _uniform_sphere(self._n, self._rng)
        self._t = 0

    def step(self) -> None:
        dots = np.clip(np.einsum("ij,ij->i", self._points, self._targets), -1.0, 1.0)
        remaining = np.arccos(dots)
        arriving = remaining <= self._angle
        self._points = _rotate_towards(self._points, self._targets,
                                       np.full(self._n, self._angle))
        count = int(arriving.sum())
        if count:
            self._targets[arriving] = _uniform_sphere(count, self._rng)
        self._t += 1

    def snapshot(self) -> SphereSnapshot:
        return SphereSnapshot(self._points, self._rho, self._radius)

    @property
    def time(self) -> int:
        return self._t
