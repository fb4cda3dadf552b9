"""Batched flooding kernels of the geometric-MEG family.

Implements the :class:`~repro.dynamics.batched.BatchedDynamics`
protocol for :class:`~repro.geometric.meg.GeometricMEG`:

* **replay** — the exact radius query straight off each model's live
  walker positions (the same
  :func:`~repro.geometric.neighbors.within_radius_of_members` call the
  snapshot would make, minus the snapshot object).
* **native** — the walker populations of all ``B`` trials share one
  ``(B, n)`` lattice-index array: the stationary initialisation and
  every move step are single vectorised lattice calls, and the ``N(I)``
  query runs on the lattice indices themselves — a disc dilation of
  the trials' members packed as bit rows (:mod:`repro.util.bits`) by
  word shifts and ORs
  (:func:`~repro.geometric.neighbors.lattice_within_radius`), with no
  Euclidean coordinates built.  Its output equals the cell-grid query
  on the coordinates, so realisations do not depend on which of the
  two answers.

  The stationary initialisation is the serial walkers' own sampler
  (:meth:`~repro.geometric.lattice.Lattice.sample_stationary_indices`,
  a guide-table inversion of ``pi``'s CDF).  The move step is
  :meth:`~repro.geometric.lattice.Lattice.disc_step_indices`: one draw
  into the move disc per walker, redrawn only off the lattice, which is
  exactly uniform over ``Gamma(x)``.  The serial walkers (and so
  replay) keep the box rejection sampler
  :meth:`~repro.geometric.lattice.Lattice.step_indices`, whose draw
  sequence the replay contract pins; native promises only the same
  process law, so it takes the cheaper draw sequence.

Subclass gating (in ``GeometricMEG.batched_dynamics``) mirrors the
edge family: the provider serves any subclass that inherits
``snapshot`` (positions stay authoritative for the replay query), and
the native kernels require un-overridden ``reset``/``step``.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.batched import BatchedDynamics
from repro.geometric.meg import GeometricMEG
from repro.geometric.neighbors import lattice_within_radius, within_radius_of_members

__all__ = ["GeometricBatchedDynamics"]


class _WalkerState:
    """Lattice indices of all trial populations, shape ``(B, n)`` each."""

    __slots__ = ("ix", "iy")


class GeometricBatchedDynamics(BatchedDynamics):
    """Kernels for :class:`GeometricMEG` (lattice walkers + radius graph)."""

    def __init__(self, template: GeometricMEG, *, native: bool) -> None:
        super().__init__(template)
        self.native_capable = native
        self._lattice = template.lattice
        self._radius = template.radius
        self._n = template.num_nodes

    # -- replay -------------------------------------------------------------

    def replay_neighborhood(self, model: GeometricMEG,
                            informed: np.ndarray) -> np.ndarray:
        return within_radius_of_members(model.walkers.positions(), informed,
                                        model.radius)

    # -- native -------------------------------------------------------------

    def batch_init(self, count: int, rng: np.random.Generator) -> _WalkerState:
        ix, iy = self._lattice.sample_stationary_indices(count * self._n,
                                                         seed=rng)
        state = _WalkerState()
        state.ix = ix.reshape(count, self._n)
        state.iy = iy.reshape(count, self._n)
        return state

    def batch_neighborhood(self, state: _WalkerState, informed: np.ndarray,
                           act: np.ndarray) -> np.ndarray:
        return lattice_within_radius(
            state.ix[act], state.iy[act], informed[act], self._radius,
            eps=self._lattice.eps, grid_size=self._lattice.grid_size)

    def batch_step(self, state: _WalkerState, rng: np.random.Generator,
                   active: np.ndarray) -> None:
        step = self._lattice.disc_step_indices
        if active.all():
            moved_x, moved_y = step(state.ix.ravel(), state.iy.ravel(), rng=rng)
            state.ix = moved_x.reshape(state.ix.shape)
            state.iy = moved_y.reshape(state.iy.shape)
            return
        act = np.flatnonzero(active)
        moved_x, moved_y = step(state.ix[act].ravel(), state.iy[act].ravel(),
                                rng=rng)
        state.ix[act] = moved_x.reshape(act.shape[0], self._n)
        state.iy[act] = moved_y.reshape(act.shape[0], self._n)

