"""Tests for repro.dynamics.snapshots — adjacency and edge-list snapshots."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import snapshots
from repro.dynamics.sequence import complete_adjacency, cycle_adjacency, star_adjacency
from repro.dynamics.snapshots import AdjacencySnapshot, EdgeListSnapshot, snapshot_from_networkx


def random_adjacency(n: int, p: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, 1)
    adj = np.zeros((n, n), dtype=bool)
    adj[iu] = rng.random(len(iu[0])) < p
    return adj | adj.T


def edges_of(adj: np.ndarray) -> np.ndarray:
    us, vs = np.nonzero(np.triu(adj, 1))
    return np.column_stack([us, vs]).astype(np.int64)


class TestAdjacencySnapshotValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            AdjacencySnapshot(np.zeros((2, 3), dtype=bool))

    def test_rejects_self_loops(self):
        adj = np.eye(3, dtype=bool)
        with pytest.raises(ValueError):
            AdjacencySnapshot(adj)

    def test_rejects_asymmetric(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError):
            AdjacencySnapshot(adj)

    def test_validate_false_skips(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = True
        AdjacencySnapshot(adj, validate=False)  # no raise


class TestAdjacencySnapshotQueries:
    def test_neighborhood_of_center_of_star(self):
        snap = AdjacencySnapshot(star_adjacency(5))
        mask = np.zeros(5, dtype=bool)
        mask[0] = True
        out = snap.neighborhood_mask(mask)
        assert out.sum() == 4 and not out[0]

    def test_neighborhood_excludes_members(self):
        snap = AdjacencySnapshot(complete_adjacency(6))
        mask = np.zeros(6, dtype=bool)
        mask[[0, 1, 2]] = True
        out = snap.neighborhood_mask(mask)
        assert not (out & mask).any()
        assert out.sum() == 3

    def test_empty_set_has_empty_neighborhood(self):
        snap = AdjacencySnapshot(complete_adjacency(4))
        out = snap.neighborhood_mask(np.zeros(4, dtype=bool))
        assert not out.any()

    def test_wrong_mask_length_rejected(self):
        snap = AdjacencySnapshot(complete_adjacency(4))
        with pytest.raises(ValueError):
            snap.neighborhood_mask(np.zeros(5, dtype=bool))

    def test_degrees_and_edge_count(self):
        snap = AdjacencySnapshot(cycle_adjacency(7))
        assert (snap.degrees() == 2).all()
        assert snap.edge_count() == 7

    def test_neighbors_of_and_has_edge(self):
        snap = AdjacencySnapshot(cycle_adjacency(5))
        np.testing.assert_array_equal(snap.neighbors_of(0), [1, 4])
        assert snap.has_edge(0, 1) and not snap.has_edge(0, 2)
        assert not snap.has_edge(2, 2)

    def test_to_networkx_round_trip(self):
        snap = AdjacencySnapshot(cycle_adjacency(6))
        g = snap.to_networkx()
        assert g.number_of_nodes() == 6 and g.number_of_edges() == 6


class TestEdgeListSnapshot:
    def test_empty_graph(self):
        snap = EdgeListSnapshot(4, np.empty((0, 2), dtype=np.int64))
        assert snap.edge_count() == 0
        assert (snap.degrees() == 0).all()
        assert not snap.neighborhood_mask(np.array([True, False, False, False])).any()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            EdgeListSnapshot(3, np.array([[1, 1]]))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            EdgeListSnapshot(3, np.array([[0, 1], [1, 0]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EdgeListSnapshot(3, np.array([[0, 5]]))

    def test_neighbors_sorted(self):
        snap = EdgeListSnapshot(4, np.array([[2, 0], [0, 3], [0, 1]]))
        np.testing.assert_array_equal(snap.neighbors_of(0), [1, 2, 3])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(2, 20), p=st.floats(0.0, 1.0))
    def test_property_matches_adjacency_snapshot(self, seed, n, p):
        """Edge-list and dense snapshots agree on every query."""
        adj = random_adjacency(n, p, seed)
        dense = AdjacencySnapshot(adj)
        sparse = EdgeListSnapshot(n, edges_of(adj))
        assert dense.edge_count() == sparse.edge_count()
        np.testing.assert_array_equal(dense.degrees(), sparse.degrees())
        rng = np.random.default_rng(seed)
        members = rng.random(n) < 0.4
        np.testing.assert_array_equal(
            dense.neighborhood_mask(members), sparse.neighborhood_mask(members)
        )

    def test_from_networkx(self):
        import networkx as nx

        g = nx.path_graph(5)
        snap = snapshot_from_networkx(g)
        assert snap.edge_count() == 4
        np.testing.assert_array_equal(snap.neighbors_of(2), [1, 3])

    def test_from_networkx_rejects_relabeled(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge("a", "b")
        with pytest.raises(ValueError):
            snapshot_from_networkx(g)


class TestNeighborhoodMasks:
    """The batched row-wise query every snapshot answers."""

    @pytest.mark.parametrize("n", [30, 64, 65, 130])
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_adjacency_gather_matches_per_row(self, seed, n):
        adj = random_adjacency(n, 0.15, seed)
        snap = AdjacencySnapshot(adj)
        rng = np.random.default_rng(seed)
        members = rng.random((6, n)) < 0.3
        batched = snap.neighborhood_masks(members)
        for i in range(members.shape[0]):
            np.testing.assert_array_equal(
                batched[i], snap.neighborhood_mask(members[i]),
                err_msg=f"row {i} diverges from the single-set query")

    @pytest.mark.parametrize("n", [65, 130])
    @pytest.mark.parametrize("budget_rows", [1, 5, 40])
    def test_blocked_gather_matches_per_set(self, n, budget_rows,
                                            monkeypatch):
        """Blocks of whole sets, cut by the gather's byte budget (here a
        few packed rows), answer exactly what one set at a time does."""
        row_bytes = 8 * -(-n // 64)
        monkeypatch.setattr(snapshots, "_GATHER_BYTES",
                            budget_rows * row_bytes)
        adj = random_adjacency(n, 0.1, n)
        snap = AdjacencySnapshot(adj)
        rng = np.random.default_rng(budget_rows)
        members = rng.random((40, n)) < rng.random((40, 1)) * 0.5
        members[::7] = False  # empty sets between the blocks
        batched = snap.neighborhood_masks(members)
        for i in range(members.shape[0]):
            np.testing.assert_array_equal(
                batched[i], snap.neighborhood_mask(members[i]),
                err_msg=f"set {i} diverges from the single-set query")

    def test_gather_stays_one_block_up_to_n_256(self, monkeypatch):
        """Every member set of a 256-node graph fits one block."""
        calls = []
        unpack = snapshots.bits.unpack
        monkeypatch.setattr(snapshots.bits, "unpack",
                            lambda *a: calls.append(1) or unpack(*a))
        snap = AdjacencySnapshot(random_adjacency(256, 0.05, 1))
        snap.neighborhood_masks(~np.eye(256, dtype=bool))
        assert len(calls) == 1

    def test_adjacency_handles_empty_and_full_rows(self):
        snap = AdjacencySnapshot(cycle_adjacency(8))
        members = np.zeros((3, 8), dtype=bool)
        members[1] = True       # full set: N(I) empty
        members[2, 0] = True    # singleton
        out = snap.neighborhood_masks(members)
        assert not out[0].any() and not out[1].any()
        np.testing.assert_array_equal(np.flatnonzero(out[2]), [1, 7])

    def test_edge_list_default_matches_per_row(self):
        adj = random_adjacency(25, 0.2, 4)
        snap = EdgeListSnapshot(25, edges_of(adj))
        rng = np.random.default_rng(4)
        members = rng.random((5, 25)) < 0.4
        batched = snap.neighborhood_masks(members)
        for i in range(members.shape[0]):
            np.testing.assert_array_equal(
                batched[i], snap.neighborhood_mask(members[i]))

    def test_masks_disjoint_from_members(self):
        adj = random_adjacency(20, 0.5, 7)
        snap = AdjacencySnapshot(adj)
        members = np.random.default_rng(7).random((4, 20)) < 0.5
        out = snap.neighborhood_masks(members)
        assert not (out & members).any()
