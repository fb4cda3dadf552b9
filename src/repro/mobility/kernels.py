"""Batched flooding kernels of the mobility zoo.

This is the first *new* kernel family written against the
:class:`~repro.dynamics.batched.BatchedDynamics` protocol (the edge and
geometric kernels were extracted from the engine): it batches all ``B``
:class:`~repro.mobility.base.MobilityMEG` trial populations as stacked
``(B, n, 2)`` position arrays and answers the ``N(I)`` query with the
shared batched radius query of
:func:`repro.geometric.neighbors.batched_within_radius` — so the
Section 3 "further mobility models" experiments (E11/E12) run on the
engine's ``batched``/``native``/``parallel`` backends instead of the
per-trial snapshot fallback.

* **replay** — exact per-trial radius query off the live model's
  positions, bit-identical to
  ``MobilityMEG.snapshot().neighborhood_mask`` (same
  ``within_radius_of_members`` call, same arguments).
* **native** — the template model's own kinematic law
  (:meth:`~repro.mobility.base.MobilityModel.init_state`,
  ``advance``, ``state_positions``) run over the whole chunk from the
  chunk generator, including ``MobilityMEG``'s warm-up semantics for
  models without an exact stationary start.  The serial model is the
  one-trial case of the same law, so there is nothing to keep in sync.

Adding a mobility model to the native fast path = writing its law as a
:class:`~repro.mobility.base.MobilityModel`; the registry entry for
``MobilityMEG`` already covers it.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.batched import (
    BatchedDynamics,
    register_batched_dynamics,
    uses_inherited,
)
from repro.geometric.neighbors import batched_within_radius, within_radius_of_members
from repro.mobility.base import MobilityMEG, MobilityModel

__all__ = ["MobilityBatchedDynamics"]


class MobilityBatchedDynamics(BatchedDynamics):
    """Kernels for :class:`MobilityMEG` over any supported mobility model."""

    def __init__(self, template: MobilityMEG, native: bool) -> None:
        super().__init__(template)
        self.native_capable = native
        self._law = template.model
        self._radius = template.radius
        self._boxsize = template.boxsize
        self._warmup = template.warmup_steps

    # -- replay -------------------------------------------------------------

    def replay_neighborhood(self, model: MobilityMEG,
                            informed: np.ndarray) -> np.ndarray:
        return within_radius_of_members(model.model.positions(), informed,
                                        model.radius, boxsize=model.boxsize)

    # -- native -------------------------------------------------------------

    def batch_init(self, count: int, rng: np.random.Generator):
        state = self._law.init_state(count, rng)
        everyone = np.arange(count)
        for _ in range(self._warmup):
            self._law.advance(state, rng, everyone)
        return state

    def batch_neighborhood(self, state, informed: np.ndarray,
                           act: np.ndarray) -> np.ndarray:
        return batched_within_radius(self._law.state_positions(state, act),
                                     informed[act], self._radius,
                                     boxsize=self._boxsize)

    def batch_step(self, state, rng: np.random.Generator,
                   active: np.ndarray) -> None:
        self._law.advance(state, rng, np.flatnonzero(active))


def _mobility_factory(template: MobilityMEG) -> MobilityBatchedDynamics | None:
    if not uses_inherited(template, MobilityMEG, "snapshot"):
        return None
    native = (uses_inherited(template, MobilityMEG, "reset", "step")
              and uses_inherited(template.model, MobilityModel,
                                 "reset", "step", "positions"))
    return MobilityBatchedDynamics(template, native)


register_batched_dynamics(MobilityMEG, _mobility_factory)
