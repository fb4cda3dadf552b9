"""Padded cell ids: the native geometric kernel's move step and ``N(I)``
query against the lattice-index step and the coordinate query.

The native kernel holds each walker as one id of
:class:`~repro.geometric.lattice.CellLayout` (a block per trial, rows of
whole 64-bit words, a ring of the move's reach).  Its step must draw
exactly what :meth:`Lattice.disc_step_indices` draws on index arrays,
and what the two-array step below (index arithmetic per axis, the
reference the cell ids replaced) draws; its query must answer exactly
what :func:`batched_within_radius` answers on the walkers' coordinates.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from repro.geometric import neighbors
from repro.geometric.lattice import CellLayout, Lattice
from repro.geometric.meg import GeometricMEG
from repro.geometric.neighbors import (
    _MAX_CELLS_PER_POINT,
    _cells_within_radius,
    _disc_runs,
    batched_within_radius,
)

#: ``(n, eps)`` of the stepped models: ``g`` = 17, 33, 65 at eps = 1 and
#: 33 at eps = 0.5 (move radius 1, so a ring of 2).
SHAPES = {"g17": (256, 1.0), "g33": (1024, 1.0), "g65": (4096, 1.0),
          "g33-eps0.5": (256, 0.5)}


def _model(shape: str) -> GeometricMEG:
    n, eps = SHAPES[shape]
    return GeometricMEG(n, 1.0, 2 * math.sqrt(math.log(n)), eps=eps)


def _two_array_step(lattice: Lattice, ix, iy, rng):
    """The disc step on two index arrays: one ``rng.integers(0, K)``
    per walker, redrawn while the candidate is off the lattice."""
    di, dj = lattice._disc
    g = lattice.grid_size
    pick = rng.integers(0, di.size, size=ix.shape[0])
    new_ix, new_iy = ix + di[pick], iy + dj[pick]
    pending = np.flatnonzero((new_ix < 0) | (new_ix >= g)
                             | (new_iy < 0) | (new_iy >= g))
    while pending.size:
        pick = rng.integers(0, di.size, size=pending.size)
        cand_i, cand_j = ix[pending] + di[pick], iy[pending] + dj[pick]
        ok = (cand_i >= 0) & (cand_i < g) & (cand_j >= 0) & (cand_j < g)
        new_ix[pending[ok]] = cand_i[ok]
        new_iy[pending[ok]] = cand_j[ok]
        pending = pending[~ok]
    return new_ix, new_iy


def _border_walkers(g: int, trials: int, n: int):
    """``(trials, n)`` index arrays cycling through the four corners and
    points on each of the four edges."""
    pinned = [(0, 0), (0, g - 1), (g - 1, 0), (g - 1, g - 1),
              (0, g // 2), (g - 1, g // 2), (g // 2, 0), (g // 2, g - 1)]
    ix = np.array([pinned[k % len(pinned)][0] for k in range(trials * n)])
    iy = np.array([pinned[k % len(pinned)][1] for k in range(trials * n)])
    return ix.reshape(trials, n), iy.reshape(trials, n)


class TestCellLayout:
    @pytest.mark.parametrize("g, ring, stride", [
        (17, 1, 64), (33, 1, 64), (62, 1, 64), (63, 1, 128), (65, 0, 128),
        (65, 1, 128), (129, 2, 192)])
    def test_stride_is_whole_words_past_the_ring(self, g, ring, stride):
        layout = CellLayout(g, ring)
        assert layout.rows == g + 2 * ring
        assert layout.stride == stride
        assert layout.block == layout.rows * layout.stride

    @pytest.mark.parametrize("ring", [0, 1, 3])
    def test_ids_round_trip_and_carry_the_trial_block(self, ring):
        layout = CellLayout(9, ring)
        rng = np.random.default_rng(0)
        ix = rng.integers(0, 9, size=(4, 30))
        iy = rng.integers(0, 9, size=(4, 30))
        cells = layout.ids(ix, iy)
        back_x, back_y = layout.indices(cells)
        np.testing.assert_array_equal(back_x, ix)
        np.testing.assert_array_equal(back_y, iy)
        np.testing.assert_array_equal(
            cells // layout.block,
            np.broadcast_to(np.arange(4)[:, None], ix.shape))
        assert layout.inside(4)[cells].all()
        np.testing.assert_array_equal(layout.ids(ix[0], iy[0]), cells[0])

    def test_inside_marks_exactly_the_lattice(self):
        layout = CellLayout(5, 2)
        table = layout.inside(3).reshape(3, layout.rows, layout.stride)
        assert table.sum() == 3 * 25
        assert table[:, 2:7, 2:7].all()


class TestStepDrawForDraw:
    """From equal generator states the kernel's cell step equals
    ``Lattice.disc_step_indices`` and the two-array reference."""

    TRIALS = 6

    def _state(self, model, ix, iy, seed=0):
        kernel = model.batched_dynamics()
        state = kernel.batch_init(ix.shape[0], np.random.default_rng(seed))
        state.cells = model.lattice.cell_layout.ids(ix, iy)
        return kernel, state

    def _check(self, model, ix, iy, active, *, steps=8, seed=1):
        lattice = model.lattice
        layout = lattice.cell_layout
        kernel, state = self._state(model, ix, iy)
        ix, iy = ix.copy(), iy.copy()
        rng = np.random.default_rng(seed)
        act = np.flatnonzero(active)
        for _ in range(steps):
            ref_rng = copy.deepcopy(rng)
            two_rng = copy.deepcopy(rng)
            kernel.batch_step(state, rng, active)
            want_x, want_y = lattice.disc_step_indices(
                ix[act].ravel(), iy[act].ravel(), rng=ref_rng)
            two_x, two_y = _two_array_step(lattice, ix[act].ravel(),
                                           iy[act].ravel(), two_rng)
            np.testing.assert_array_equal(want_x, two_x)
            np.testing.assert_array_equal(want_y, two_y)
            ix[act] = want_x.reshape(act.size, -1)
            iy[act] = want_y.reshape(act.size, -1)
            got_x, got_y = layout.indices(state.cells)
            np.testing.assert_array_equal(got_x, ix)
            np.testing.assert_array_equal(got_y, iy)
            # Every draw consumed alike: the generators stay in step.
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            # No walker leaves its trial's block or the lattice.
            np.testing.assert_array_equal(
                state.cells // layout.block,
                np.broadcast_to(np.arange(ix.shape[0])[:, None], ix.shape))
            assert state.inside[state.cells].all()

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_all_trials_active(self, shape):
        model = _model(shape)
        n = model.num_nodes
        ix, iy = model.lattice.sample_stationary_indices(self.TRIALS * n,
                                                         seed=3)
        self._check(model, ix.reshape(-1, n), iy.reshape(-1, n),
                    np.ones(self.TRIALS, dtype=bool))

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_retired_rows_stay_put(self, shape):
        model = _model(shape)
        n = model.num_nodes
        ix, iy = model.lattice.sample_stationary_indices(self.TRIALS * n,
                                                         seed=4)
        active = np.array([True, False, True, True, False, False])
        self._check(model, ix.reshape(-1, n), iy.reshape(-1, n), active)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("retired", [False, True])
    def test_corner_and_edge_walkers(self, shape, retired):
        model = _model(shape)
        ix, iy = _border_walkers(model.lattice.grid_size, self.TRIALS,
                                 model.num_nodes)
        active = np.ones(self.TRIALS, dtype=bool)
        active[1::2] = not retired
        self._check(model, ix, iy, active, steps=3)

    def test_frozen_walkers_draw_nothing(self):
        lattice = Lattice(side=8.0, eps=1.0, move_radius=0.0)
        layout = lattice.cell_layout
        cells = layout.ids(np.arange(5), np.arange(5))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        moved = lattice.disc_step_cells(cells, layout.inside(1), rng=rng)
        np.testing.assert_array_equal(moved, cells)
        assert moved is not cells
        assert rng.bit_generator.state == before


class TestQueryAgainstCoordinates:
    """The cell-id query equals ``batched_within_radius`` on the
    walkers' Euclidean coordinates."""

    @staticmethod
    def _coordinates(ix, iy, eps):
        return np.stack((ix * eps, iy * eps), axis=-1).astype(float)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("act", [[0, 1, 2, 3, 4, 5], [0, 2, 5], [4]])
    def test_kernel_query_with_act_subsets(self, shape, act):
        model = _model(shape)
        kernel = model.batched_dynamics()
        state = kernel.batch_init(6, np.random.default_rng(5))
        ix, iy = model.lattice.cell_layout.indices(state.cells)
        positions = self._coordinates(ix, iy, model.lattice.eps)
        act = np.asarray(act)
        rng = np.random.default_rng(6)
        for rate in (0.0, 0.01, 0.2, 1.0):
            informed = rng.random(ix.shape) < rate
            out = kernel.batch_neighborhood(state, informed, act)
            np.testing.assert_array_equal(
                out, batched_within_radius(positions[act], informed[act],
                                           model.radius),
                err_msg=f"rate {rate}")

    @pytest.mark.parametrize("g, ring, radius, eps", [
        pytest.param(65, 1, 2 * math.sqrt(math.log(529)), 1.0,
                     id="two-words-ring"),
        pytest.param(65, 0, 70.0, 1.0, id="two-words-whole-word-runs"),
        pytest.param(33, 1, 0.5, 1.0, id="half-max-0"),
        pytest.param(33, 2, 0.9, 1.0, id="half-max-0-ring-2"),
        pytest.param(40, 3, 0.6, 0.3, id="radius-two-eps"),
    ])
    def test_core_on_uniform_walkers(self, g, ring, radius, eps):
        n = -(-g * g // _MAX_CELLS_PER_POINT)
        layout = CellLayout(g, ring)
        half = _disc_runs(radius, eps, g)
        if radius < eps:
            assert half.max() == 0
        trials = 4
        rng = np.random.default_rng(g + ring)
        ix = rng.integers(0, g, size=(trials, n))
        iy = rng.integers(0, g, size=(trials, n))
        positions = self._coordinates(ix, iy, eps)
        cells = layout.ids(ix, iy)
        for act in (np.arange(trials), np.array([1, 3])):
            for rate in (0.0, 0.02, 0.3, 1.0):
                members = rng.random((trials, n)) < rate
                out = _cells_within_radius(
                    cells[act], members[act], radius, eps=eps,
                    layout=layout, blocks=trials, half=half)
                np.testing.assert_array_equal(
                    out, batched_within_radius(positions[act], members[act],
                                               radius),
                    err_msg=f"act {act.tolist()}, rate {rate}")

    @pytest.mark.parametrize("act", [[0, 1, 2], [1]])
    def test_fine_lattice_falls_back_to_coordinates(self, monkeypatch, act):
        """``g^2 > 8n`` (eps = 0.1) sends the walkers' coordinates to the
        cell grid, trial blocks dropped."""
        model = GeometricMEG(64, 1.0, 3.0, eps=0.1)
        lattice = model.lattice
        assert lattice.num_points > _MAX_CELLS_PER_POINT * 64
        calls = []
        real = neighbors.batched_within_radius

        def spy(positions, members, radius, **kwargs):
            calls.append(positions)
            return real(positions, members, radius, **kwargs)

        monkeypatch.setattr(neighbors, "batched_within_radius", spy)
        kernel = model.batched_dynamics()
        state = kernel.batch_init(3, np.random.default_rng(7))
        ix, iy = lattice.cell_layout.indices(state.cells)
        positions = self._coordinates(ix, iy, lattice.eps)
        informed = np.random.default_rng(8).random((3, 64)) < 0.3
        act = np.asarray(act)
        out = kernel.batch_neighborhood(state, informed, act)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], positions[act])
        np.testing.assert_array_equal(
            out, real(positions[act], informed[act], model.radius))
