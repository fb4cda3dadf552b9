"""Tests for repro.geometric.lattice — L_{n,eps} and the move graph."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometric.lattice import Lattice, disc_offsets
from repro.geometric.meg import GeometricMEG


class TestDiscOffsets:
    def test_zero_radius_only_origin(self):
        di, dj = disc_offsets(0.0)
        assert len(di) == 1 and di[0] == 0 and dj[0] == 0

    def test_radius_one_plus_shape(self):
        di, dj = disc_offsets(1.0)
        assert len(di) == 5  # origin + 4 axis neighbors

    def test_radius_sqrt2_includes_diagonals(self):
        di, dj = disc_offsets(np.sqrt(2.0))
        assert len(di) == 9

    @settings(max_examples=20, deadline=None)
    @given(r=st.floats(0.0, 6.0))
    def test_property_all_within_radius(self, r):
        di, dj = disc_offsets(r)
        assert ((di**2 + dj**2) <= r * r + 1e-6).all()
        # Symmetric under negation.
        pairs = {(int(a), int(b)) for a, b in zip(di, dj)}
        assert all((-a, -b) in pairs for a, b in pairs)


class TestLatticeGeometry:
    def test_grid_size(self):
        lat = Lattice(side=10.0, eps=1.0, move_radius=1.0)
        assert lat.grid_size == 11
        assert lat.num_points == 121

    def test_fractional_eps(self):
        lat = Lattice(side=10.0, eps=0.5, move_radius=1.0)
        assert lat.grid_size == 21

    def test_dmax(self):
        assert Lattice(side=10, eps=1.0, move_radius=2.5).dmax == 2
        assert Lattice(side=10, eps=0.5, move_radius=2.5).dmax == 5

    def test_eps_larger_than_side_rejected(self):
        with pytest.raises(ValueError):
            Lattice(side=1.0, eps=2.0, move_radius=1.0)

    def test_to_coordinates(self):
        lat = Lattice(side=4.0, eps=0.5, move_radius=1.0)
        coords = lat.to_coordinates(np.array([0, 2]), np.array([1, 3]))
        np.testing.assert_allclose(coords, [[0.0, 0.5], [1.0, 1.5]])


class TestDegreeTable:
    @pytest.mark.parametrize("side,eps,r", [
        (6.0, 1.0, 1.0),
        (6.0, 1.0, 2.3),
        (5.0, 0.5, 1.2),
        (8.0, 1.0, 0.0),
    ])
    def test_matches_reference_everywhere(self, side, eps, r):
        lat = Lattice(side=side, eps=eps, move_radius=r)
        table = lat.degree_table()
        g = lat.grid_size
        for i in range(g):
            for j in range(g):
                assert table[i, j] == lat.gamma_size(i, j), (i, j)

    def test_interior_degree_is_full_disc(self):
        lat = Lattice(side=20.0, eps=1.0, move_radius=2.0)
        di, _ = disc_offsets(2.0)
        center = lat.grid_size // 2
        assert lat.degree_table()[center, center] == len(di)

    def test_corner_degree_is_quarter(self):
        lat = Lattice(side=20.0, eps=1.0, move_radius=1.0)
        # Corner of an axis-cross: origin + right + up = 3.
        assert lat.degree_table()[0, 0] == 3

    def test_zero_move_radius_degree_one(self):
        lat = Lattice(side=5.0, eps=1.0, move_radius=0.0)
        assert (lat.degree_table() == 1).all()

    def test_symmetry(self):
        lat = Lattice(side=7.0, eps=1.0, move_radius=2.0)
        table = lat.degree_table()
        np.testing.assert_array_equal(table, table.T)
        np.testing.assert_array_equal(table, table[::-1, :])


class TestStationaryDistribution:
    def test_normalised(self):
        lat = Lattice(side=8.0, eps=1.0, move_radius=2.0)
        pi = lat.stationary_position_distribution()
        assert pi.sum() == pytest.approx(1.0)
        assert (pi > 0).all()

    def test_uniform_when_static(self):
        lat = Lattice(side=8.0, eps=1.0, move_radius=0.0)
        assert lat.uniformity_ratio() == 1.0

    def test_uniformity_ratio_bounded_constant(self):
        # Interior/corner ratio is at most ~4x for any r (paper's gamma).
        for r in (1.0, 2.0, 4.0):
            lat = Lattice(side=30.0, eps=1.0, move_radius=r)
            assert 1.0 < lat.uniformity_ratio() < 5.0

    def test_stationary_sampling_frequencies(self):
        """Sampled cell frequencies match pi (chi-square-ish tolerance)."""
        lat = Lattice(side=3.0, eps=1.0, move_radius=1.0)
        pi = lat.stationary_position_distribution()
        ix, iy = lat.sample_stationary_indices(30_000, seed=0)
        flat = ix * lat.grid_size + iy
        freq = np.bincount(flat, minlength=lat.num_points) / len(flat)
        np.testing.assert_allclose(freq, pi, atol=0.01)

    @pytest.mark.parametrize("side,eps,r", [
        (8.0, 1.0, 2.5),   # border-clipped: pi is not uniform
        (8.0, 1.0, 0.0),   # static walkers: pi uniform
        (6.0, 0.5, 1.2),   # fractional resolution
    ])
    def test_sampling_matches_generator_choice(self, side, eps, r):
        """The cached inverse-CDF sampler is draw-for-draw
        ``rng.choice(num_points, p=pi)`` — the draw sequence behind
        replay bit-identity."""
        lat = Lattice(side=side, eps=eps, move_radius=r)
        pi = lat.stationary_position_distribution()
        for seed in range(5):
            ix, iy = lat.sample_stationary_indices(3000, seed=seed)
            flat = np.random.default_rng(seed).choice(lat.num_points,
                                                      size=3000, p=pi)
            np.testing.assert_array_equal(ix * lat.grid_size + iy, flat)
        assert lat._stationary_cdf is lat._stationary_cdf  # built once

    def test_model_copies_share_the_lattice(self):
        """Replay deep-copies the model once per trial; the copies share
        the immutable lattice, so the stationary CDF is built once."""
        meg = GeometricMEG(64, move_radius=1.0, radius=2.0, eps=0.5)
        twin = copy.deepcopy(meg)
        assert twin.lattice is meg.lattice
        meg.reset(3)
        twin.reset(3)
        assert "_stationary_cdf" in twin.lattice.__dict__
        np.testing.assert_array_equal(twin.walkers.positions(),
                                      meg.walkers.positions())


class TestStepping:
    def test_step_stays_on_lattice_and_within_radius(self):
        lat = Lattice(side=10.0, eps=1.0, move_radius=2.0)
        rng = np.random.default_rng(0)
        ix, iy = lat.sample_stationary_indices(200, seed=1)
        nx_, ny_ = lat.step_indices(ix, iy, rng=rng)
        g = lat.grid_size
        assert ((nx_ >= 0) & (nx_ < g) & (ny_ >= 0) & (ny_ < g)).all()
        dist2 = ((nx_ - ix) ** 2 + (ny_ - iy) ** 2) * lat.eps**2
        assert (dist2 <= lat.move_radius**2 + 1e-9).all()

    def test_zero_radius_never_moves(self):
        lat = Lattice(side=5.0, eps=1.0, move_radius=0.0)
        rng = np.random.default_rng(0)
        ix, iy = lat.sample_stationary_indices(50, seed=1)
        nx_, ny_ = lat.step_indices(ix, iy, rng=rng)
        np.testing.assert_array_equal(nx_, ix)
        np.testing.assert_array_equal(ny_, iy)

    def test_step_uniform_over_gamma(self):
        """From a fixed interior point, the step distribution is uniform
        over Gamma(x)."""
        lat = Lattice(side=10.0, eps=1.0, move_radius=1.0)
        rng = np.random.default_rng(42)
        trials = 20_000
        ix = np.full(trials, 5, dtype=np.int64)
        iy = np.full(trials, 5, dtype=np.int64)
        nx_, ny_ = lat.step_indices(ix, iy, rng=rng)
        moves = {}
        for a, b in zip(nx_ - 5, ny_ - 5):
            moves[(int(a), int(b))] = moves.get((int(a), int(b)), 0) + 1
        assert set(moves) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
        freqs = np.array(list(moves.values())) / trials
        np.testing.assert_allclose(freqs, 0.2, atol=0.02)

    def test_step_preserves_stationarity(self):
        """Key Markov-chain invariant: stepping a stationary sample keeps
        the border-cell frequencies stationary."""
        lat = Lattice(side=4.0, eps=1.0, move_radius=1.5)
        pi = lat.stationary_position_distribution()
        rng = np.random.default_rng(7)
        ix, iy = lat.sample_stationary_indices(40_000, seed=8)
        for _ in range(2):
            ix, iy = lat.step_indices(ix, iy, rng=rng)
        freq = np.bincount(ix * lat.grid_size + iy, minlength=lat.num_points) / len(ix)
        np.testing.assert_allclose(freq, pi, atol=0.012)
