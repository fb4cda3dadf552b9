"""Tests for repro.dynamics.adversarial — the diameter-vs-flooding adversary."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flooding import flood, flooding_time
from repro.dynamics.adversarial import moving_hub_star, snapshot_diameter
from repro.dynamics.sequence import complete_adjacency, cycle_adjacency, star_adjacency
from repro.dynamics.snapshots import AdjacencySnapshot, snapshot_from_networkx


class TestSnapshotDiameter:
    def test_complete_graph(self):
        assert snapshot_diameter(AdjacencySnapshot(complete_adjacency(7))) == 1

    def test_star(self):
        assert snapshot_diameter(AdjacencySnapshot(star_adjacency(9))) == 2

    @pytest.mark.parametrize("n,expected", [(4, 2), (7, 3), (10, 5)])
    def test_cycle(self, n, expected):
        assert snapshot_diameter(AdjacencySnapshot(cycle_adjacency(n))) == expected

    def test_disconnected_returns_n(self):
        adj = np.zeros((5, 5), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        assert snapshot_diameter(AdjacencySnapshot(adj)) == 5

    def test_single_node_has_diameter_zero(self):
        assert snapshot_diameter(AdjacencySnapshot(np.zeros((1, 1), dtype=bool))) == 0

    def test_isolated_node_is_disconnected(self):
        adj = complete_adjacency(4)
        adj[2, :] = adj[:, 2] = False
        assert snapshot_diameter(AdjacencySnapshot(adj)) == 4

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 40),
           p=st.sampled_from([0.05, 0.15, 0.4]), edge_list=st.booleans())
    def test_matches_networkx_on_connected_graphs(self, seed, n, p, edge_list):
        # A random spanning tree plus G(n, p) edges: connected, with
        # diameters from 1 up to long paths.
        rng = np.random.default_rng(seed)
        g = nx.gnp_random_graph(n, p, seed=seed)
        order = rng.permutation(n)
        for i in range(1, n):
            g.add_edge(int(order[i]), int(order[rng.integers(i)]))
        snapshot = (snapshot_from_networkx(g) if edge_list
                    else AdjacencySnapshot(nx.to_numpy_array(g, nodelist=range(n)) > 0))
        assert snapshot_diameter(snapshot) == nx.diameter(g)


class TestMovingHubStar:
    def test_every_snapshot_diameter_two(self):
        adv = moving_hub_star(9)
        adv.reset()
        for _ in range(12):
            assert snapshot_diameter(adv.snapshot()) == 2
            adv.step()

    @pytest.mark.parametrize("n", [3, 5, 8, 20])
    def test_flooding_exactly_n_minus_one(self, n):
        assert flooding_time(moving_hub_star(n), 0) == n - 1

    def test_each_step_informs_exactly_one(self):
        res = flood(moving_hub_star(10), 0)
        np.testing.assert_array_equal(np.diff(res.informed_history), 1)

    def test_source_at_first_hub_is_fast(self):
        # Source n-1 is the hub at time 0: everyone hears it at step 1.
        assert flooding_time(moving_hub_star(10), 9) == 1

    def test_needs_three_nodes(self):
        with pytest.raises(ValueError):
            moving_hub_star(2)
