"""The walkers model on a toroidal grid (reference [14] of the paper).

Nodes sit on a ``g x g`` integer grid with wrap-around; each step a node
moves to a uniformly random grid point within (toroidal) Euclidean
distance ``r``, exactly like the paper's lattice walk but without
borders.  Translation invariance makes the uniform distribution exactly
stationary (and, unlike the bordered lattice, *exactly* — not just
almost — uniform), so ``reset`` is a perfect simulation.
"""

from __future__ import annotations

import numpy as np

from repro.geometric.lattice import disc_offsets
from repro.mobility.base import MobilityModel, trial_rows
from repro.util.validation import require, require_int, require_nonnegative

__all__ = ["TorusGridWalk"]


class TorusGridWalk(MobilityModel):
    """Uniform random walk on the discrete torus ``(Z_g)^2``.

    State: the walkers' integer grid coordinates, one ``(B, n, 2)`` array.

    Parameters
    ----------
    n:
        Number of walkers.
    side:
        Physical side length of the region; grid spacing is
        ``side / grid_size``.
    grid_size:
        Grid points per axis (``g``).
    move_radius:
        Move radius ``r`` in *physical* units; the per-step offset set is
        all integer offsets within ``r / spacing`` grid units.  The disc
        must fit the torus (``2 * floor(r / spacing) < g``): a wider one
        wraps onto itself, and its offsets would hit some targets twice.
    """

    exact_stationary_start = True

    def __init__(self, n: int, side: float, *, grid_size: int,
                 move_radius: float) -> None:
        super().__init__(n, side)
        self.grid_size = require_int(grid_size, "grid_size")
        require(self.grid_size >= 2, "grid_size must be >= 2")
        self.move_radius = require_nonnegative(move_radius, "move_radius")
        self.spacing = self.side / self.grid_size
        di, dj = disc_offsets(self.move_radius / self.spacing)
        require(2 * int(di.max()) < self.grid_size,
                "move_radius must be under grid_size/2 grid steps "
                "(a wider disc aliases on the torus)")
        self._offsets = np.column_stack((di, dj))

    @property
    def num_moves(self) -> int:
        """Size of the per-step move set (same for every point: no borders)."""
        return self._offsets.shape[0]

    def init_state(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.grid_size, size=(count, self.n, 2))

    def advance(self, state: np.ndarray, rng: np.random.Generator,
                act: np.ndarray) -> None:
        rows = trial_rows(act, state.shape[0])
        picks = rng.integers(0, self.num_moves, size=(act.shape[0], self.n))
        state[rows] = (state[rows] + self._offsets[picks]) % self.grid_size

    def state_positions(self, state: np.ndarray, act: np.ndarray) -> np.ndarray:
        return state[act].astype(float) * self.spacing
