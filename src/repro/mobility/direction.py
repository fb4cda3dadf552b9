"""Random-direction mobility with reflection — the billiard model.

References [3, 25, 28] of the paper.  Each node travels in a straight
line at constant speed; on hitting a border it reflects specularly
(angle of incidence = angle of reflection); independently, with
probability ``turn_probability`` per step it redraws a fresh uniform
direction.  The uniform position distribution (with uniform direction)
is exactly stationary — reflections and direction redraws both preserve
it — so ``reset`` is a perfect simulation.
"""

from __future__ import annotations

import numpy as np

from repro.mobility.base import MobilityModel, trial_rows
from repro.util.validation import require, require_positive, require_probability

__all__ = ["RandomDirection"]


class RandomDirection(MobilityModel):
    """Billiard mobility in ``[0, side]^2``.

    State: positions and velocities as a pair of ``(B, n, 2)`` arrays.

    Parameters
    ----------
    n, side:
        Population size and region side.
    speed:
        Distance per time step.
    turn_probability:
        Per-step probability of redrawing a uniform direction
        (``0`` = pure billiard; ``1`` = fresh direction every step,
        a random-walk-like motion).
    """

    exact_stationary_start = True

    def __init__(self, n: int, side: float, *, speed: float,
                 turn_probability: float = 0.1) -> None:
        super().__init__(n, side)
        self.speed = require_positive(speed, "speed")
        require(self.speed <= side, "speed must not exceed the region side")
        self.turn_probability = require_probability(turn_probability, "turn_probability")

    def _fresh_velocities(self, rng: np.random.Generator, count: int) -> np.ndarray:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
        return np.column_stack([self.speed * np.cos(theta),
                                self.speed * np.sin(theta)])

    def init_state(self, count: int, rng: np.random.Generator):
        pos = rng.uniform(0.0, self.side, size=(count, self.n, 2))
        vel = self._fresh_velocities(rng, count * self.n)
        return pos, vel.reshape(count, self.n, 2)

    def advance(self, state, rng: np.random.Generator, act: np.ndarray) -> None:
        pos, vel = state
        rows = trial_rows(act, pos.shape[0])
        turned = vel[rows]
        if self.turn_probability > 0:
            turn = rng.random(turned.shape[:2]) < self.turn_probability
            redraws = int(turn.sum())
            if redraws:
                turned[turn] = self._fresh_velocities(rng, redraws)
        moved = pos[rows] + turned
        # Specular reflection by folding: reflect coordinates across the
        # borders until inside (speed <= side, so at most one fold per axis
        # per border, but folding handles corners uniformly).
        for axis in range(2):
            over = moved[..., axis] > self.side
            moved[over, axis] = 2.0 * self.side - moved[over, axis]
            turned[over, axis] = -turned[over, axis]
            under = moved[..., axis] < 0.0
            moved[under, axis] = -moved[under, axis]
            turned[under, axis] = -turned[under, axis]
        np.clip(moved, 0.0, self.side, out=moved)
        pos[rows] = moved
        vel[rows] = turned

    def state_positions(self, state, act: np.ndarray) -> np.ndarray:
        return state[0][act]
