"""Tests for repro.geometric.lattice — L_{n,eps} and the move graph."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.geometric.lattice import Lattice, disc_offsets
from repro.geometric.meg import GeometricMEG

#: The two move samplers: the serial walkers' box rejection sampler
#: (pinned by replay) and the native kernels' one-draw disc sampler.
SAMPLERS = ("step_indices", "disc_step_indices")

#: ``(side, eps, r)`` lattices for the exact-law tests: the perfbench
#: shape, a fractional resolution, and a move radius beyond the axes.
LAW_LATTICES = [(32.0, 1.0, 1.0), (10.0, 0.5, 1.0), (6.0, 1.0, 2.5)]

#: Per-test significance of the chi-square checks below; their seeds are
#: fixed, so each is a deterministic check of a draw sequence.
ALPHA = 1e-4


def _gamma(lat: Lattice, i: int, j: int) -> set[tuple[int, int]]:
    """``Gamma((i, j))`` enumerated from the offset disc."""
    di, dj = disc_offsets(lat.move_radius / lat.eps)
    g = lat.grid_size
    return {(i + a, j + b) for a, b in zip(di.tolist(), dj.tolist())
            if 0 <= i + a < g and 0 <= j + b < g}


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


class TestStationaryGuideTable:
    """The guide-table inversion equals ``searchsorted(side="right")``
    index for index — the draws behind replay bit-identity."""

    @staticmethod
    def _assert_matches_searchsorted(lat: Lattice, u: np.ndarray) -> None:
        u = np.asarray(u, dtype=float)
        expected = lat._stationary_cdf.searchsorted(u, side="right")
        np.testing.assert_array_equal(lat._invert_stationary_cdf(u),
                                      expected)

    @settings(max_examples=40, deadline=None)
    @given(side=st.floats(1.0, 14.0),
           eps=st.sampled_from([1.0, 0.5, 0.3, 0.25]),
           r=st.floats(0.0, 3.5),
           seed=st.integers(0, 2**32 - 1))
    def test_property_matches_searchsorted(self, side, eps, r, seed):
        lat = Lattice(side=side, eps=min(eps, side), move_radius=r)
        u = np.random.default_rng(seed).random(2000)
        self._assert_matches_searchsorted(lat, u)

    @pytest.mark.parametrize("side,eps,r", [
        (32.0, 1.0, 1.0),
        (8.0, 1.0, 2.5),
        (6.0, 0.5, 1.2),
        (8.0, 1.0, 0.0),   # uniform pi: CDF entries sit on bucket edges
        (1.0, 1.0, 0.0),   # four points
    ])
    def test_adversarial_uniforms(self, side, eps, r):
        lat = Lattice(side=side, eps=eps, move_radius=r)
        cdf = lat._stationary_cdf
        m = cdf.size
        edges = np.arange(m) / m
        points = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            cdf[:-1],                          # exact CDF entries
            np.nextafter(cdf[:-1], 0.0),
            np.nextafter(cdf[:-1], 1.0),
            edges,                             # bucket edges k/m
            np.nextafter(edges[1:], 0.0),
            np.nextafter(edges, 1.0),
        ])
        assert (points >= 0.0).all() and (points < 1.0).all()
        self._assert_matches_searchsorted(lat, points)

    def test_guide_built_once(self):
        lat = Lattice(side=5.0, eps=1.0, move_radius=1.0)
        lat.sample_stationary_indices(10, seed=0)
        assert lat._stationary_guide is lat._stationary_guide
        assert not lat._stationary_guide.flags.writeable


class TestStepping:
    def test_step_stays_on_lattice_and_within_radius(self):
        lat = Lattice(side=10.0, eps=1.0, move_radius=2.0)
        ix, iy = lat.sample_stationary_indices(200, seed=1)
        g = lat.grid_size
        for sampler in SAMPLERS:
            nx_, ny_ = getattr(lat, sampler)(ix, iy,
                                             rng=np.random.default_rng(0))
            assert ((nx_ >= 0) & (nx_ < g) & (ny_ >= 0) & (ny_ < g)).all()
            dist2 = ((nx_ - ix) ** 2 + (ny_ - iy) ** 2) * lat.eps**2
            assert (dist2 <= lat.move_radius**2 + 1e-9).all()

    def test_zero_radius_never_moves(self):
        lat = Lattice(side=5.0, eps=1.0, move_radius=0.0)
        ix, iy = lat.sample_stationary_indices(50, seed=1)
        for sampler in SAMPLERS:
            nx_, ny_ = getattr(lat, sampler)(ix, iy,
                                             rng=np.random.default_rng(0))
            np.testing.assert_array_equal(nx_, ix)
            np.testing.assert_array_equal(ny_, iy)

    def test_inputs_not_modified(self):
        lat = Lattice(side=3.0, eps=1.0, move_radius=1.5)
        ix, iy = lat.sample_stationary_indices(500, seed=2)
        before = ix.copy(), iy.copy()
        for sampler in SAMPLERS:
            getattr(lat, sampler)(ix, iy, rng=np.random.default_rng(3))
            np.testing.assert_array_equal(ix, before[0])
            np.testing.assert_array_equal(iy, before[1])

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("cell", ["interior", "edge", "corner"])
    @pytest.mark.parametrize("side,eps,r", LAW_LATTICES)
    def test_step_uniform_over_gamma(self, side, eps, r, cell, sampler):
        """From a fixed point, one step is uniform over exactly
        ``Gamma(x)``: the observed support is the enumerated
        neighbourhood (of size ``gamma_size``), and a one-sample
        chi-square does not reject uniformity over it."""
        lat = Lattice(side=side, eps=eps, move_radius=r)
        mid = lat.grid_size // 2
        i, j = {"interior": (mid, mid), "edge": (0, mid),
                "corner": (0, 0)}[cell]
        gamma = sorted(_gamma(lat, i, j))
        assert len(gamma) == lat.gamma_size(i, j)
        draws = 400 * len(gamma)
        ix = np.full(draws, i, dtype=np.int64)
        iy = np.full(draws, j, dtype=np.int64)
        rng = np.random.default_rng(1000 * len(gamma) + i + j)
        nx_, ny_ = getattr(lat, sampler)(ix, iy, rng=rng)
        g = lat.grid_size
        cells, counts = np.unique(nx_ * g + ny_, return_counts=True)
        assert [(int(c) // g, int(c) % g) for c in cells] == gamma
        assert stats.chisquare(counts)[1] > ALPHA

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("side,eps,r", LAW_LATTICES)
    def test_step_preserves_stationarity(self, side, eps, r, sampler):
        """Key Markov-chain invariant: a stationary sample stepped twice
        is still distributed as ``pi`` (one-sample chi-square over every
        lattice point)."""
        lat = Lattice(side=side, eps=eps, move_radius=r)
        pi = lat.stationary_position_distribution()
        draws = 100 * lat.num_points
        rng = np.random.default_rng(7)
        ix, iy = lat.sample_stationary_indices(draws, seed=8)
        for _ in range(2):
            ix, iy = getattr(lat, sampler)(ix, iy, rng=rng)
        counts = np.bincount(ix * lat.grid_size + iy,
                             minlength=lat.num_points)
        assert stats.chisquare(counts, draws * pi)[1] > ALPHA
