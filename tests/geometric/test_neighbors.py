"""Tests for repro.geometric.neighbors — radius queries vs brute force."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometric import neighbors
from repro.geometric.lattice import Lattice
from repro.geometric.neighbors import (
    _MAX_CELLS_PER_POINT,
    batched_within_radius,
    brute_force_within_radius,
    lattice_within_radius,
    radius_degrees,
    radius_edges,
    within_radius_of_members,
)


class TestWithinRadius:
    def test_empty_members(self, small_positions):
        members = np.zeros(len(small_positions), dtype=bool)
        out = within_radius_of_members(small_positions, members, 3.0)
        assert not out.any()

    def test_all_members(self, small_positions):
        members = np.ones(len(small_positions), dtype=bool)
        out = within_radius_of_members(small_positions, members, 3.0)
        assert not out.any()

    def test_disjoint_from_members(self, small_positions, rng):
        members = rng.random(len(small_positions)) < 0.5
        out = within_radius_of_members(small_positions, members, 3.0)
        assert not (out & members).any()

    def test_inclusive_boundary(self):
        pos = np.array([[0.0, 0.0], [3.0, 0.0], [3.0001, 0.0]])
        members = np.array([True, False, False])
        out = within_radius_of_members(pos, members, 3.0)
        assert out[1] and not out[2]

    def test_coincident_points_connect(self):
        pos = np.array([[1.0, 1.0], [1.0, 1.0]])
        out = within_radius_of_members(pos, np.array([True, False]), 0.5)
        assert out[1]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000), radius=st.floats(0.5, 8.0),
           frac=st.floats(0.05, 0.95))
    def test_property_matches_brute_force(self, seed, radius, frac):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 15, size=(40, 2))
        members = rng.random(40) < frac
        fast = within_radius_of_members(pos, members, radius)
        slow = brute_force_within_radius(pos, members, radius)
        np.testing.assert_array_equal(fast, slow)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), radius=st.floats(0.5, 7.0))
    def test_property_toroidal_matches_brute_force(self, seed, radius):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 15, size=(30, 2))
        members = rng.random(30) < 0.4
        fast = within_radius_of_members(pos, members, radius, boxsize=15.0)
        slow = brute_force_within_radius(pos, members, radius, boxsize=15.0)
        np.testing.assert_array_equal(fast, slow)

    def test_toroidal_wraps_around(self):
        pos = np.array([[0.5, 5.0], [19.5, 5.0]])
        members = np.array([True, False])
        assert not within_radius_of_members(pos, members, 2.0)[1]
        assert within_radius_of_members(pos, members, 2.0, boxsize=20.0)[1]

    def test_wrong_mask_length(self, small_positions):
        with pytest.raises(ValueError):
            within_radius_of_members(small_positions, np.zeros(3, dtype=bool), 1.0)


class TestRadiusEdges:
    def test_simple_chain(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]])
        edges = radius_edges(pos, 1.6)
        np.testing.assert_array_equal(edges, [[0, 1], [1, 2]])

    def test_no_edges(self):
        pos = np.array([[0.0, 0.0], [10.0, 0.0]])
        assert radius_edges(pos, 1.0).shape == (0, 2)

    def test_canonical_order(self, small_positions):
        edges = radius_edges(small_positions, 4.0)
        assert (edges[:, 0] < edges[:, 1]).all()

    def test_edge_count_matches_brute_force(self, small_positions):
        edges = radius_edges(small_positions, 3.0)
        count = 0
        n = len(small_positions)
        for i in range(n):
            for j in range(i + 1, n):
                d = small_positions[i] - small_positions[j]
                if d @ d <= 9.0 * (1 + 1e-12):
                    count += 1
        assert len(edges) == count


class TestRadiusDegrees:
    def test_degrees_match_edges(self, small_positions):
        edges = radius_edges(small_positions, 3.5)
        deg = radius_degrees(small_positions, 3.5)
        expected = np.zeros(len(small_positions), dtype=np.int64)
        for u, v in edges:
            expected[u] += 1
            expected[v] += 1
        np.testing.assert_array_equal(deg, expected)

    def test_isolated_point(self):
        pos = np.array([[0.0, 0.0], [100.0, 100.0]])
        np.testing.assert_array_equal(radius_degrees(pos, 1.0), [0, 0])


class TestBatchedWithinRadius:
    """The shared multi-trial query vs the per-trial reference."""

    def _stack(self, rng, trials, n, side):
        positions = rng.uniform(0.0, side, size=(trials, n, 2))
        members = rng.random((trials, n)) < 0.3
        members[:, 0] = True  # no empty member rows
        return positions, members

    @staticmethod
    def _assert_on_cell_grid_path(n, side, radius):
        """Guard the fixture against silently drifting onto the
        per-trial k-d fallback (the cell-grid join must stay covered)."""
        from repro.geometric.neighbors import (_CELLS_PER_RADIUS,
                                               _MAX_CELLS_PER_POINT)
        grid = math.ceil(side * _CELLS_PER_RADIUS / radius)
        assert grid * grid <= _MAX_CELLS_PER_POINT * n, (
            "fixture exercises the k-d fallback, not the cell grid")

    @pytest.mark.parametrize("boxsize", [None, 20.0])
    def test_matches_per_trial_query(self, rng, boxsize):
        self._assert_on_cell_grid_path(40, 20.0, 4.0)
        positions, members = self._stack(rng, trials=5, n=40, side=20.0)
        batched = batched_within_radius(positions, members, 4.0,
                                        boxsize=boxsize)
        for b in range(positions.shape[0]):
            np.testing.assert_array_equal(
                batched[b],
                within_radius_of_members(positions[b], members[b], 4.0,
                                         boxsize=boxsize),
                err_msg=f"trial {b} diverges from the per-trial query")

    @pytest.mark.parametrize("boxsize", [None, 20.0])
    def test_matches_brute_force(self, rng, boxsize):
        self._assert_on_cell_grid_path(25, 20.0, 5.0)
        positions, members = self._stack(rng, trials=4, n=25, side=20.0)
        batched = batched_within_radius(positions, members, 5.0,
                                        boxsize=boxsize)
        for b in range(positions.shape[0]):
            np.testing.assert_array_equal(
                batched[b],
                brute_force_within_radius(positions[b], members[b], 5.0,
                                          boxsize=boxsize))

    @pytest.mark.parametrize("boxsize", [None, 20.0])
    def test_kd_fallback_matches_brute_force(self, rng, boxsize):
        """Tiny radius vs span: the grid would be degenerate, so the
        per-trial k-d fallback must answer — and agree with brute force."""
        positions, members = self._stack(rng, trials=3, n=30, side=20.0)
        batched = batched_within_radius(positions, members, 0.9,
                                        boxsize=boxsize)
        for b in range(positions.shape[0]):
            np.testing.assert_array_equal(
                batched[b],
                brute_force_within_radius(positions[b], members[b], 0.9,
                                          boxsize=boxsize))

    @pytest.mark.parametrize("boxsize", [None, 20.0])
    @pytest.mark.parametrize("member_rate", [0.03, 0.3, 0.8])
    def test_cell_grid_sweep_matches_brute_force(self, rng, boxsize,
                                                 member_rate):
        """Dense fixture pinned to the cell-grid join across sparse,
        mid, and dense member sets."""
        self._assert_on_cell_grid_path(80, 20.0, 4.0)
        positions = rng.uniform(0.0, 20.0, size=(4, 80, 2))
        members = rng.random((4, 80)) < member_rate
        members[:, 0] = True
        batched = batched_within_radius(positions, members, 4.0,
                                        boxsize=boxsize)
        for b in range(positions.shape[0]):
            np.testing.assert_array_equal(
                batched[b],
                brute_force_within_radius(positions[b], members[b], 4.0,
                                          boxsize=boxsize))

    def test_no_cross_trial_contamination(self):
        """Co-located points in different trials must not connect."""
        positions = np.zeros((2, 2, 2))
        positions[0] = [[0.0, 0.0], [10.0, 10.0]]
        positions[1] = [[0.1, 0.0], [10.0, 10.0]]
        members = np.array([[True, False], [False, False]])
        out = batched_within_radius(positions, members, 1.0)
        assert not out[1].any()  # trial 1's origin point is not informed
        assert not out[0].any()  # trial 0's far point is out of range

    def test_degenerate_member_rows(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0.0, 10.0, size=(3, 8, 2))
        members = np.zeros((3, 8), dtype=bool)
        assert not batched_within_radius(positions, members, 2.0).any()
        members[:] = True
        assert not batched_within_radius(positions, members, 2.0).any()
        # Mixed: one full row, one empty row, one ordinary row.
        members[0] = True
        members[1] = False
        members[2] = rng.random(8) < 0.5
        out = batched_within_radius(positions, members, 2.0)
        assert not out[0].any() and not out[1].any()
        np.testing.assert_array_equal(
            out[2], within_radius_of_members(positions[2], members[2], 2.0))

    def test_single_trial_matches(self, small_positions, rng):
        members = rng.random(len(small_positions)) < 0.4
        members[0] = True
        np.testing.assert_array_equal(
            batched_within_radius(small_positions[None], members[None], 3.0)[0],
            within_radius_of_members(small_positions, members, 3.0))

    def test_tight_cluster_terminates_quickly(self):
        """span << radius collapses the grid to one cell; the offset
        range must clamp to the grid instead of scaling with R/span."""
        positions = np.array([[[0.0, 0.0], [1e-5, 1e-5], [2e-5, 0.0]]])
        members = np.array([[True, False, False]])
        out = batched_within_radius(positions, members, 2.5)
        np.testing.assert_array_equal(out, [[False, True, True]])

    def test_pair_at_radius_across_rounded_cell_boundaries(self):
        """Lattice points exactly R = 3 eps apart: 0.9 / 0.3 rounds below
        3 and 31 * 0.3 rounds into cell 30, so the pair sits four cells
        apart and the offset range must still reach it.  Filler points
        at the origin keep the grid (39 x 39 cells) off the k-d
        fallback."""
        eps = 0.3
        positions = np.zeros((1, 200, 2))
        positions[0, 1] = 39 * eps
        positions[0, 2] = (20 * eps, 31 * eps)
        positions[0, 3] = (20 * eps, 34 * eps)
        members = np.zeros((1, 200), dtype=bool)
        members[0, 3] = True
        out = batched_within_radius(positions, members, 3 * eps)
        np.testing.assert_array_equal(np.flatnonzero(out[0]), [2])
        np.testing.assert_array_equal(
            out[0], brute_force_within_radius(positions[0], members[0],
                                              3 * eps))


#: (density, eps, move radius, R) for 64 walkers; every regime keeps
#: g^2 <= 8n, so the lattice dilation (not the fallback) answers.
_LATTICE_REGIMES = {
    "paper-law": (1.0, 1.0, 1.0, 2 * math.sqrt(math.log(64))),
    "eps-0.5": (1.0, 0.5, 1.0, 3.0),
    "eps-0.3": (2.0, 0.3, 1.0, 2.5),
    "density-0.25": (0.25, 1.0, 1.0, 4.0),
    "R-on-lattice-2": (1.0, 1.0, 1.0, 2.0),
    "R-on-lattice-sqrt5": (1.0, 1.0, 1.0, math.sqrt(5.0)),
    "R-on-lattice-sqrt5-eps-0.5": (1.0, 0.5, 1.0, math.sqrt(5.0)),
    # 0.3 / 0.1 rounds below 3 in floating point.
    "R-on-lattice-eps-0.1": (16.0, 0.1, 0.2, 0.3),
    "R-region-side": (1.0, 1.0, 1.0, 8.0),
    "R-near-region-side": (1.0, 0.5, 1.0, 7.9),
    "static-walkers": (1.0, 1.0, 0.0, 3.0),
}


class TestLatticeWithinRadius:
    """The lattice dilation vs the cell-grid query and brute force, on
    stationary walker stacks."""

    N = 64

    def _lattice(self, density, eps, r):
        return Lattice(side=math.sqrt(self.N / density), eps=eps,
                       move_radius=r)

    @pytest.mark.parametrize("trials", [1, 8])
    @pytest.mark.parametrize("regime", sorted(_LATTICE_REGIMES))
    def test_matches_cell_grid_and_brute_force(self, regime, trials):
        density, eps, r, radius = _LATTICE_REGIMES[regime]
        lat = self._lattice(density, eps, r)
        assert lat.num_points <= _MAX_CELLS_PER_POINT * self.N, (
            "regime exercises the fallback, not the lattice dilation")
        for seed in range(3):
            rng = np.random.default_rng(seed)
            ix, iy = lat.sample_stationary_indices(trials * self.N, seed=rng)
            ix = ix.reshape(trials, self.N)
            iy = iy.reshape(trials, self.N)
            positions = lat.to_coordinates(ix.ravel(), iy.ravel()).reshape(
                trials, self.N, 2)
            for rate in (0.0, 0.05, 0.3, 0.8, 1.0):
                members = rng.random((trials, self.N)) < rate
                out = lattice_within_radius(ix, iy, members, radius,
                                            eps=eps, grid_size=lat.grid_size)
                np.testing.assert_array_equal(
                    out, batched_within_radius(positions, members, radius))
                for b in range(trials):
                    np.testing.assert_array_equal(
                        out[b], brute_force_within_radius(
                            positions[b], members[b], radius),
                        err_msg=f"seed {seed}, rate {rate}, trial {b}")

    def test_no_cross_trial_contamination(self):
        """Co-located walkers in different trials must not connect."""
        ix = np.array([[0, 5], [0, 5]])
        iy = np.array([[0, 5], [0, 5]])
        members = np.array([[True, False], [False, False]])
        out = lattice_within_radius(ix, iy, members, 1.0, eps=1.0,
                                    grid_size=6)
        assert not out.any()

    @pytest.mark.parametrize("eps,uses_cell_grid", [(0.1, True), (1.0, False)])
    def test_fine_lattice_falls_back_to_cell_grid(self, monkeypatch, eps,
                                                  uses_cell_grid):
        """g^2 > 8n (eps = 0.1 here) goes through batched_within_radius on
        the Euclidean coordinates; a coarse lattice never does."""
        lat = self._lattice(1.0, eps, 1.0)
        assert (lat.num_points > _MAX_CELLS_PER_POINT * self.N) == uses_cell_grid
        calls = []
        real = neighbors.batched_within_radius

        def spy(positions, members, radius, **kwargs):
            calls.append(positions)
            return real(positions, members, radius, **kwargs)

        monkeypatch.setattr(neighbors, "batched_within_radius", spy)
        ix, iy = lat.sample_stationary_indices(2 * self.N, seed=3)
        ix, iy = ix.reshape(2, self.N), iy.reshape(2, self.N)
        members = np.random.default_rng(4).random((2, self.N)) < 0.3
        out = lattice_within_radius(ix, iy, members, 3.0, eps=eps,
                                    grid_size=lat.grid_size)
        assert bool(calls) == uses_cell_grid
        positions = lat.to_coordinates(ix.ravel(), iy.ravel()).reshape(
            2, self.N, 2)
        if calls:
            np.testing.assert_array_equal(calls[0], positions)
        np.testing.assert_array_equal(out, real(positions, members, 3.0))

    # -- bit rows: W = ceil(g / 64) words per lattice row -----------------

    @staticmethod
    def _check_uniform_walkers(g, eps, radius, trials, rates, *,
                               seed=0, brute_force=True):
        """Walkers uniform over a ``g x g`` lattice, ``n`` just large
        enough that ``g^2 <= 8n`` keeps the bit-row path; the query must
        equal the cell grid and (optionally) brute force at every rate."""
        n = -(-g * g // _MAX_CELLS_PER_POINT)
        assert g * g <= _MAX_CELLS_PER_POINT * n
        rng = np.random.default_rng(seed)
        ix = rng.integers(0, g, size=(trials, n))
        iy = rng.integers(0, g, size=(trials, n))
        positions = np.stack((ix * eps, iy * eps), axis=-1).astype(float)
        for rate in rates:
            members = rng.random((trials, n)) < rate
            out = lattice_within_radius(ix, iy, members, radius, eps=eps,
                                        grid_size=g)
            np.testing.assert_array_equal(
                out, batched_within_radius(positions, members, radius),
                err_msg=f"g {g}, eps {eps}, R {radius}, rate {rate}")
            if not brute_force:
                continue
            for b in range(trials):
                np.testing.assert_array_equal(
                    out[b], brute_force_within_radius(
                        positions[b], members[b], radius),
                    err_msg=f"g {g}, R {radius}, rate {rate}, trial {b}")

    @pytest.mark.parametrize("g", [63, 64, 65, 129])
    def test_word_boundaries(self, g):
        """Rows of one word with a free tail bit, exactly one full word,
        one bit into a second word, and three words: every carry between
        neighbouring words and the last word's tail mask."""
        self._check_uniform_walkers(g, 1.0, 2 * math.sqrt(math.log(64)), 2,
                                    (0.0, 0.02, 0.3, 1.0))

    @pytest.mark.parametrize("radius", [64.0, 70.5, 130.0])
    def test_reach_of_whole_words(self, radius):
        """Runs 64 or more columns wide move whole words (R = 64 is a
        whole-word shift with no carry); R >= g reaches every column."""
        self._check_uniform_walkers(129, 1.0, radius, 2, (0.0, 0.001, 0.05))

    @pytest.mark.parametrize("eps", [0.1, 0.3])
    @pytest.mark.parametrize("multiple", [1, 2, 3, 5, 7])
    def test_radius_a_multiple_of_eps(self, eps, multiple):
        """R = k eps puts lattice points exactly on the circle, and the
        quotient R / eps can round just below k (0.3 / 0.1 < 3)."""
        self._check_uniform_walkers(40, eps, multiple * eps, 2,
                                    (0.05, 0.4), seed=multiple)

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    @pytest.mark.parametrize("g", [33, 65])
    def test_single_trial_empty_and_full_member_sets(self, g, rate):
        """B = 1; no members, or every walker a member: nothing to add."""
        n = -(-g * g // _MAX_CELLS_PER_POINT)
        rng = np.random.default_rng(g)
        ix = rng.integers(0, g, size=(1, n))
        iy = rng.integers(0, g, size=(1, n))
        members = np.full((1, n), rate == 1.0)
        out = lattice_within_radius(ix, iy, members, 5.0, eps=1.0,
                                    grid_size=g)
        assert out.shape == (1, n) and not out.any()
        self._check_uniform_walkers(g, 1.0, 5.0, 1, (rate,), seed=g)

    @settings(max_examples=60, deadline=None)
    @given(trials=st.integers(1, 4), g=st.integers(1, 140),
           eps=st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0]),
           reach=st.one_of(st.integers(1, 150).map(float),
                           st.integers(1, 400).map(math.sqrt),
                           st.floats(0.05, 150.0)),
           rate=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 16))
    def test_matches_cell_grid_property(self, trials, g, eps, reach, rate,
                                        seed):
        """Any stack shape, lattice size, resolution, radius (R / eps an
        integer, the root of one, or neither) and member rate: bit rows
        equal the cell grid."""
        self._check_uniform_walkers(g, eps, reach * eps, trials, (rate,),
                                    seed=seed, brute_force=False)
