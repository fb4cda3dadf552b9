"""Tests for repro.dynamics.sequence — deterministic evolving graphs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamics.sequence import (
    GeneratedEvolvingGraph,
    SequenceEvolvingGraph,
    StaticEvolvingGraph,
    complete_adjacency,
    cycle_adjacency,
    hypercube_adjacency,
    ring_of_cliques_adjacency,
    sequence_from_adjacencies,
    star_adjacency,
    static_from_networkx,
)
from repro.dynamics.snapshots import AdjacencySnapshot


class TestConstructors:
    def test_cycle_degrees(self):
        assert (cycle_adjacency(5).sum(axis=1) == 2).all()

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_adjacency(2)

    def test_complete_edge_count(self):
        adj = complete_adjacency(6)
        assert adj.sum() == 6 * 5

    def test_star_degrees(self):
        adj = star_adjacency(6, center=2)
        deg = adj.sum(axis=1)
        assert deg[2] == 5 and (np.delete(deg, 2) == 1).all()

    def test_hypercube_structure(self):
        adj = hypercube_adjacency(3)
        assert adj.shape == (8, 8)
        assert (adj.sum(axis=1) == 3).all()
        assert not adj.diagonal().any()
        assert (adj == adj.T).all()

    def test_ring_of_cliques(self):
        adj = ring_of_cliques_adjacency(3, 4)
        assert adj.shape == (12, 12)
        assert not adj.diagonal().any()
        assert (adj == adj.T).all()
        # Interior clique nodes have degree clique_size-1; bridge nodes +1.
        deg = adj.sum(axis=1)
        assert set(deg.tolist()) == {3, 4, 5} or set(deg.tolist()) <= {3, 4, 5}

    def test_ring_needs_three_cliques(self):
        with pytest.raises(ValueError):
            ring_of_cliques_adjacency(2, 3)


class TestSequenceEvolvingGraph:
    def test_cycles_through_snapshots(self):
        seq = sequence_from_adjacencies([cycle_adjacency(4), complete_adjacency(4)])
        seq.reset()
        first = seq.snapshot().edge_count()
        seq.step()
        second = seq.snapshot().edge_count()
        seq.step()
        third = seq.snapshot().edge_count()
        assert first == third == 4 and second == 6

    def test_reset_rewinds(self):
        seq = sequence_from_adjacencies([cycle_adjacency(4), complete_adjacency(4)])
        seq.step()
        seq.reset()
        assert seq.time == 0
        assert seq.snapshot().edge_count() == 4

    def test_non_cycling_raises_past_end(self):
        seq = SequenceEvolvingGraph([AdjacencySnapshot(cycle_adjacency(4))], cycle=False)
        with pytest.raises(IndexError):
            seq.step()

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError):
            sequence_from_adjacencies([cycle_adjacency(4), cycle_adjacency(5)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SequenceEvolvingGraph([])

    def test_sequence_is_one_period_read_only(self):
        snaps = [AdjacencySnapshot(cycle_adjacency(4)),
                 AdjacencySnapshot(complete_adjacency(4))]
        seq = SequenceEvolvingGraph(snaps)
        seq.step()
        assert seq.sequence == tuple(snaps)
        assert seq.time == 1  # reading it does not step
        with pytest.raises(AttributeError):
            seq.sequence = ()
        snaps.append(snaps[0])  # the caller's list is copied
        assert seq.period == 2

    def test_snapshots_iterator(self):
        seq = sequence_from_adjacencies([cycle_adjacency(4), complete_adjacency(4)])
        seq.reset()
        counts = [s.edge_count() for s in seq.snapshots(4)]
        assert counts == [4, 6, 4, 6]
        assert seq.time == 3


class TestStaticEvolvingGraph:
    def test_constant_over_time(self):
        static = StaticEvolvingGraph(AdjacencySnapshot(cycle_adjacency(5)))
        static.reset()
        before = static.snapshot().edge_count()
        static.step()
        assert static.snapshot().edge_count() == before

    def test_from_networkx(self):
        import networkx as nx

        static = static_from_networkx(nx.path_graph(4))
        assert static.num_nodes == 4


class TestGeneratedEvolvingGraph:
    def test_factory_called_per_step(self):
        def factory(t: int):
            return AdjacencySnapshot(cycle_adjacency(4) if t % 2 == 0
                                     else complete_adjacency(4))

        gen = GeneratedEvolvingGraph(4, factory)
        assert gen.snapshot().edge_count() == 4
        gen.step()
        assert gen.snapshot().edge_count() == 6
        gen.reset()
        assert gen.time == 0 and gen.snapshot().edge_count() == 4

    def test_rejects_wrong_size_factory(self):
        with pytest.raises(ValueError):
            GeneratedEvolvingGraph(5, lambda t: AdjacencySnapshot(cycle_adjacency(4)))
