"""Batched flooding kernels of the geometric-MEG family.

Implements the :class:`~repro.dynamics.batched.BatchedDynamics`
protocol for :class:`~repro.geometric.meg.GeometricMEG`:

* **replay** — the exact radius query straight off each model's live
  walker positions (the same
  :func:`~repro.geometric.neighbors.within_radius_of_members` call the
  snapshot would make, minus the snapshot object).
* **native** — the walker populations of all ``B`` trials share one
  ``(B, n)`` array of padded cell ids
  (:class:`~repro.geometric.lattice.CellLayout`: one block per trial,
  whole 64-bit words a row, a ring of the move's reach around the
  lattice).  The stationary initialisation is one vectorised lattice
  call; a move step adds one cell offset per walker
  (:meth:`~repro.geometric.lattice.Lattice.disc_step_cells`) and finds
  the walkers that left the lattice with one gather into the chunk's
  ``inside`` table; the ``N(I)`` query scatters the members' ids into
  the padded bit grid, dilates it by the radius disc with word shifts
  and ORs (:mod:`repro.util.bits`) and reads the answer back at the
  same ids, with no Euclidean coordinates built.  Its output equals the
  cell-grid query on the coordinates, so realisations do not depend on
  which of the two answers.

  The stationary initialisation is the serial walkers' own sampler
  (:meth:`~repro.geometric.lattice.Lattice.sample_stationary_flat`, a
  guide-table inversion of ``pi``'s CDF), its flat indices mapped to
  cell ids by one table gather.  The move step draws one
  index into the move disc per walker, redrawn only off the lattice,
  which is exactly uniform over ``Gamma(x)``; its draws are those of
  :meth:`~repro.geometric.lattice.Lattice.disc_step_indices`, the same
  step on index arrays.  The serial walkers (and so replay) keep the
  box rejection sampler
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
from repro.geometric.neighbors import (_cells_within_radius, _disc_runs,
                                       within_radius_of_members)

__all__ = ["GeometricBatchedDynamics"]


class _WalkerState:
    """Padded cell ids of all trial populations, shape ``(B, n)``, and
    the chunk's ``inside`` table over its ``B`` blocks."""

    __slots__ = ("cells", "inside")


class GeometricBatchedDynamics(BatchedDynamics):
    """Kernels for :class:`GeometricMEG` (lattice walkers + radius graph)."""

    def __init__(self, template: GeometricMEG, *, native: bool) -> None:
        super().__init__(template)
        self.native_capable = native
        self._lattice = template.lattice
        self._layout = template.lattice.cell_layout
        self._radius = template.radius
        self._half = _disc_runs(template.radius, template.lattice.eps,
                                template.lattice.grid_size)
        self._n = template.num_nodes

    # -- replay -------------------------------------------------------------

    def replay_neighborhood(self, model: GeometricMEG,
                            informed: np.ndarray) -> np.ndarray:
        return within_radius_of_members(model.walkers.positions(), informed,
                                        model.radius)

    # -- native -------------------------------------------------------------

    def batch_init(self, count: int, rng: np.random.Generator) -> _WalkerState:
        flat = self._lattice.sample_stationary_flat(count * self._n, seed=rng)
        state = _WalkerState()
        state.cells = self._layout.flat_ids(flat.reshape(count, self._n))
        state.inside = self._layout.inside(count)
        return state

    def batch_neighborhood(self, state: _WalkerState, informed: np.ndarray,
                           act: np.ndarray) -> np.ndarray:
        cells, members = state.cells, informed
        if act.size < cells.shape[0]:
            cells, members = cells[act], informed[act]
        return _cells_within_radius(
            cells, members, self._radius, eps=self._lattice.eps,
            layout=self._layout, blocks=state.cells.shape[0], half=self._half)

    def batch_step(self, state: _WalkerState, rng: np.random.Generator,
                   active: np.ndarray) -> None:
        step = self._lattice.disc_step_cells
        if active.all():
            state.cells = step(state.cells.ravel(), state.inside,
                               rng=rng).reshape(state.cells.shape)
            return
        act = np.flatnonzero(active)
        state.cells[act] = step(state.cells[act].ravel(), state.inside,
                                rng=rng).reshape(act.shape[0], self._n)
