"""Random-waypoint mobility (square and toroidal variants).

Classic random waypoint (references [23, 6, 25] of the paper): each node
picks a destination uniformly at random in the region and travels toward
it in a straight line at its speed; on arrival it picks a fresh
destination.  We use zero pause time and a fixed common speed (the
variant whose stationary node-position distribution is well behaved —
nonzero minimum speed avoids the classical speed-decay pathology).

* On the **square**, the stationary position density is center-weighted
  (border positions are underrepresented) — *almost* uniform in the
  paper's sense.  Exact stationary sampling requires the
  Le Boudec–Vojnović perfect-simulation construction; we approximate
  with uniform positions plus optional warm-up and mark
  ``exact_stationary_start = False``.
* On the **torus** the model is translation invariant, the uniform
  distribution is exactly stationary, and ``reset`` is a perfect
  simulation.
"""

from __future__ import annotations

import numpy as np

from repro.mobility.base import MobilityModel, trial_rows
from repro.util.validation import require, require_positive

__all__ = ["RandomWaypoint", "RandomWaypointTorus"]


class _Waypoint(MobilityModel):
    """The random-waypoint law, on the square or (``torus = True``) the torus.

    State: positions and destinations as a pair of ``(B, n, 2)`` arrays.
    Arriving nodes land on their waypoint and redraw it; moving nodes
    advance ``speed`` along the (toroidally shortest, on the torus)
    connecting segment.
    """

    torus = False

    def __init__(self, n: int, side: float, *, speed: float) -> None:
        super().__init__(n, side)
        self.speed = require_positive(speed, "speed")
        if self.torus:
            require(self.speed <= side / 2, "speed must be at most side/2 on the torus")
        else:
            require(self.speed <= side, "speed must not exceed the region side")

    def init_state(self, count: int, rng: np.random.Generator):
        pos = rng.uniform(0.0, self.side, size=(count, self.n, 2))
        dest = rng.uniform(0.0, self.side, size=(count, self.n, 2))
        return pos, dest

    def advance(self, state, rng: np.random.Generator, act: np.ndarray) -> None:
        pos, dest = state
        rows = trial_rows(act, pos.shape[0])
        here, there = pos[rows], dest[rows]
        delta = there - here
        if self.torus:
            delta -= self.side * np.round(delta / self.side)
        dist = np.sqrt(np.einsum("bij,bij->bi", delta, delta))
        arriving = dist <= self.speed
        # Arriving nodes land exactly on the waypoint, movers advance
        # `speed` along the segment (the max() only keeps the arriving
        # entries finite; np.where discards them).
        scale = self.speed / np.maximum(dist, self.speed)
        moved = np.where(arriving[..., None], there, here + delta * scale[..., None])
        redraws = int(arriving.sum())
        if redraws:
            there[arriving] = rng.uniform(0.0, self.side, size=(redraws, 2))
        if self.torus:
            np.mod(moved, self.side, out=moved)
        else:
            np.clip(moved, 0.0, self.side, out=moved)
        pos[rows] = moved
        dest[rows] = there

    def state_positions(self, state, act: np.ndarray) -> np.ndarray:
        return state[0][act]


class RandomWaypoint(_Waypoint):
    """Random waypoint on the square ``[0, side]^2`` with zero pause time.

    Parameters
    ----------
    n, side:
        Population size and region side.
    speed:
        Distance travelled per time step (the analogue of the move
        radius ``r``).
    """

    exact_stationary_start = False


class RandomWaypointTorus(_Waypoint):
    """Random waypoint on the torus (reference [19, 20, 25] of the paper).

    Destinations are drawn uniformly; travel follows the shortest
    toroidal displacement.  By translation invariance the uniform
    distribution over positions is exactly stationary, so ``reset`` is a
    perfect simulation.
    """

    exact_stationary_start = True
    torus = True
