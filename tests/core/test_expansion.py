"""Tests for repro.core.expansion — (h, k)-expander machinery."""

from __future__ import annotations

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import expansion
from repro.core.expansion import (
    estimate_worst_expansion,
    expansion_of_set,
    expansion_profile,
    is_expander_exact,
    neighborhood_size,
    trajectory_expansion,
    worst_expansion_exact,
    worst_expansion_ladder_exact,
)
from repro.dynamics.sequence import (
    complete_adjacency,
    cycle_adjacency,
    ring_of_cliques_adjacency,
    star_adjacency,
)
from repro.dynamics.snapshots import AdjacencySnapshot, EdgeListSnapshot


def snap(adj) -> AdjacencySnapshot:
    return AdjacencySnapshot(adj)


def mask(nodes, n):
    m = np.zeros(n, dtype=bool)
    m[list(nodes)] = True
    return m


class TestNeighborhood:
    def test_neighborhood_size_on_cycle(self):
        s = snap(cycle_adjacency(8))
        assert neighborhood_size(s, mask([0], 8)) == 2
        assert neighborhood_size(s, mask([0, 1, 2], 8)) == 2

    def test_expansion_of_set(self):
        s = snap(complete_adjacency(6))
        assert expansion_of_set(s, mask([0, 1], 6)) == pytest.approx(2.0)

    def test_expansion_rejects_empty_set(self):
        s = snap(complete_adjacency(4))
        with pytest.raises(ValueError):
            expansion_of_set(s, np.zeros(4, dtype=bool))


class TestExactWorstExpansion:
    def test_complete_graph(self):
        s = snap(complete_adjacency(8))
        for size in (1, 2, 4):
            worst, witness = worst_expansion_exact(s, size)
            assert worst == 8 - size
            assert witness.sum() == size

    def test_cycle_contiguous_arcs_are_worst(self):
        s = snap(cycle_adjacency(10))
        for size in (1, 2, 3, 5):
            worst, _ = worst_expansion_exact(s, size)
            assert worst == 2  # an arc has exactly two boundary nodes

    def test_star_worst_set_avoids_center(self):
        s = snap(star_adjacency(7))
        worst, witness = worst_expansion_exact(s, 3)
        # Three leaves see only the center.
        assert worst == 1
        assert not witness[0]

    def test_budget_guard(self):
        s = snap(complete_adjacency(60))
        with pytest.raises(ValueError, match="budget"):
            worst_expansion_exact(s, 30)
        with pytest.raises(ValueError, match="budget"):
            worst_expansion_ladder_exact(s, 30)
        with pytest.raises(ValueError, match="budget"):
            is_expander_exact(s, 30, 1.0)

    def test_near_budget_call_stays_within_one_chunk(self):
        # C(24, 8) = 735471 subsets: materialising every index row would
        # take ~47 MB; the enumeration holds one chunk's arrays at a time.
        rng = np.random.default_rng(5)
        s = snap(random_adjacency(rng, 24, 0.3))
        size = 8
        chunk_rows = expansion._CHUNK_SUBSETS * size * np.dtype(np.intp).itemsize
        tracemalloc.start()
        try:
            worst, witness = worst_expansion_exact(s, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * chunk_rows
        assert witness.sum() == size
        assert neighborhood_size(s, witness) == worst


def random_adjacency(rng, n, density):
    upper = np.triu(rng.random((n, n)) < density, 1)
    return upper | upper.T


def per_subset_worst(snapshot, size):
    """The reference: one ``N(I)`` query per subset in ``combinations``
    order, keeping the first strict minimum."""
    n = snapshot.num_nodes
    best, best_mask = np.inf, None
    for nodes in combinations(range(n), size):
        value = neighborhood_size(snapshot, mask(nodes, n))
        if value < best:
            best, best_mask = value, mask(nodes, n)
            if best == 0:
                break
    return float(best), best_mask


def as_edge_list(adj):
    return EdgeListSnapshot(len(adj), np.argwhere(np.triu(adj, 1)))


class TestPackedEnumerationMatchesPerSubsetLoop:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000),
           n=st.one_of(st.integers(1, 14), st.integers(65, 75)),
           density=st.sampled_from([0.0, 0.15, 0.3, 0.6, 1.0]),
           edge_list=st.booleans())
    def test_value_witness_ladder_and_verdict(self, seed, n, density, edge_list):
        adj = random_adjacency(np.random.default_rng(seed), n, density)
        s = as_edge_list(adj) if edge_list else snap(adj)
        top = min(n, 5) if n < 64 else 2  # rows past one word: sizes <= 2
        reference = [per_subset_worst(s, size) for size in range(1, top + 1)]
        for size, (value, witness) in enumerate(reference, start=1):
            got_value, got_witness = worst_expansion_exact(s, size)
            assert got_value == value
            np.testing.assert_array_equal(got_witness, witness)
        ladder = worst_expansion_ladder_exact(s, top)
        assert ladder.dtype == np.int64
        assert ladder.tolist() == [value for value, _ in reference]
        for k in (0.5, 1.0, 2.0):
            expected = all(value >= k * size
                           for size, (value, _) in enumerate(reference, start=1))
            assert is_expander_exact(s, top, k) is expected

    @pytest.mark.parametrize("edge_list", [False, True])
    def test_many_chunks(self, monkeypatch, edge_list):
        # C(12, 5) = 792 subsets in chunks of 7: the minimum and the
        # first minimiser must survive the chunk boundaries.
        monkeypatch.setattr(expansion, "_CHUNK_SUBSETS", 7)
        rng = np.random.default_rng(11)
        adj = random_adjacency(rng, 12, 0.3)
        s = as_edge_list(adj) if edge_list else snap(adj)
        for size in range(1, 7):
            value, witness = worst_expansion_exact(s, size)
            ref_value, ref_witness = per_subset_worst(s, size)
            assert value == ref_value
            np.testing.assert_array_equal(witness, ref_witness)
        assert worst_expansion_ladder_exact(s, 6).tolist() == [
            per_subset_worst(s, size)[0] for size in range(1, 7)]

    def test_zero_in_a_later_chunk_beats_one_in_the_first(self, monkeypatch):
        # A path 0-1-...-8 with nodes 9, 10 isolated: the first chunks
        # reach |N(I)| = 1 at the path's end, and only a later chunk
        # holds the empty neighborhood.
        monkeypatch.setattr(expansion, "_CHUNK_SUBSETS", 3)
        adj = np.zeros((11, 11), dtype=bool)
        for v in range(8):
            adj[v, v + 1] = adj[v + 1, v] = True
        s = snap(adj)
        for size in (1, 2, 3):
            value, witness = worst_expansion_exact(s, size)
            ref_value, ref_witness = per_subset_worst(s, size)
            assert value == ref_value
            np.testing.assert_array_equal(witness, ref_witness)
        assert worst_expansion_ladder_exact(s, 3).tolist() == [0, 0, 1]

    def test_isolated_node_stops_at_zero(self):
        # Node 3 is isolated; {3} is the first empty-neighborhood set.
        adj = complete_adjacency(6)
        adj[3, :] = adj[:, 3] = False
        value, witness = worst_expansion_exact(snap(adj), 1)
        assert value == 0
        assert np.flatnonzero(witness).tolist() == [3]


class TestIsExpanderExact:
    def test_complete_graph_is_good_expander(self):
        # For |I| <= n/2 in K_n: |N(I)| = n - |I| >= |I|.
        assert is_expander_exact(snap(complete_adjacency(10)), 5, 1.0)

    def test_cycle_is_poor_expander(self):
        assert not is_expander_exact(snap(cycle_adjacency(12)), 6, 1.0)

    def test_cycle_weak_parameters_hold(self):
        # |N(I)| >= 2 >= (2/h) * |I| for |I| <= h... at |I| = i, k = 2/i.
        assert is_expander_exact(snap(cycle_adjacency(12)), 4, 0.5)

    def test_definition_monotone_in_k(self):
        s = snap(ring_of_cliques_adjacency(3, 3))
        assert is_expander_exact(s, 3, 0.1)
        # larger k is a strictly stronger property
        if is_expander_exact(s, 3, 1.0):
            assert is_expander_exact(s, 3, 0.1)


class TestEstimator:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500), size=st.integers(1, 5))
    def test_estimate_never_below_exact(self, seed, size):
        """The randomized search reports an achievable value, so it is
        always >= the exact minimum."""
        rng = np.random.default_rng(seed)
        n = 10
        iu = np.triu_indices(n, 1)
        adj = np.zeros((n, n), dtype=bool)
        adj[iu] = rng.random(len(iu[0])) < 0.4
        adj |= adj.T
        s = snap(adj)
        exact, _ = worst_expansion_exact(s, size)
        est = estimate_worst_expansion(s, size, trials=8, seed=seed)
        assert est.neighborhood_size >= exact - 1e-12

    def test_estimator_finds_cycle_arc(self):
        # On a cycle, the BFS-ball candidates are exactly the optimal arcs.
        s = snap(cycle_adjacency(20))
        est = estimate_worst_expansion(s, 5, trials=6, seed=0)
        assert est.neighborhood_size == 2

    def test_witness_consistency(self):
        s = snap(cycle_adjacency(16))
        est = estimate_worst_expansion(s, 4, trials=4, seed=1)
        assert est.witness.sum() == est.size
        assert neighborhood_size(s, est.witness) == est.neighborhood_size

    def test_certifies_not_expander(self):
        s = snap(cycle_adjacency(16))
        est = estimate_worst_expansion(s, 4, trials=4, seed=1)
        # |N| = 2 < 1.0 * 4, so the witness refutes (4, 1)-expansion.
        assert est.certifies_not_expander(4, 1.0)
        assert not est.certifies_not_expander(4, 0.4)
        assert not est.certifies_not_expander(3, 1.0)  # size exceeds h

    def test_profile_sizes(self):
        s = snap(complete_adjacency(12))
        profile = expansion_profile(s, [1, 2, 4], trials=3, seed=2)
        assert [e.size for e in profile] == [1, 2, 4]

    def test_full_set_has_zero_expansion(self):
        s = snap(complete_adjacency(6))
        est = estimate_worst_expansion(s, 6, trials=2, seed=0)
        assert est.neighborhood_size == 0


class TestTrajectoryExpansion:
    def test_matches_history(self):
        ratios = trajectory_expansion(np.array([1, 3, 6, 6]))
        np.testing.assert_allclose(ratios, [2.0, 1.0, 0.0])

    def test_short_history(self):
        assert trajectory_expansion(np.array([1])).size == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            trajectory_expansion(np.ones((2, 2)))
