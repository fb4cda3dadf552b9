"""Tests for repro.core.flooding — the flooding engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.flooding import (
    flood,
    flooding_time,
    flooding_trials,
    max_flooding_time_over_sources,
    resolve_max_steps,
)
from repro.dynamics.sequence import (
    GeneratedEvolvingGraph,
    StaticEvolvingGraph,
    complete_adjacency,
    cycle_adjacency,
    sequence_from_adjacencies,
    star_adjacency,
)
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.edgemeg.meg import EdgeMEG


def static(adj) -> StaticEvolvingGraph:
    return StaticEvolvingGraph(AdjacencySnapshot(adj))


class TestFloodOnStaticGraphs:
    def test_complete_graph_one_step(self):
        assert flooding_time(static(complete_adjacency(10)), 0) == 1

    def test_star_from_center(self):
        assert flooding_time(static(star_adjacency(8)), 0) == 1

    def test_star_from_leaf(self):
        assert flooding_time(static(star_adjacency(8)), 3) == 2

    def test_cycle_flooding_equals_eccentricity(self):
        # On C_n the source's eccentricity is floor(n/2).
        for n in (4, 5, 9, 12):
            assert flooding_time(static(cycle_adjacency(n)), 0) == n // 2

    def test_single_node_completes_immediately(self):
        adj = np.zeros((1, 1), dtype=bool)
        res = flood(static(adj), 0)
        assert res.completed and res.time == 0

    def test_disconnected_graph_truncates(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        res = flood(static(adj), 0, max_steps=10)
        assert not res.completed
        assert res.num_informed == 2

    def test_flooding_time_raises_on_truncation(self):
        adj = np.zeros((3, 3), dtype=bool)
        with pytest.raises(RuntimeError, match="did not complete"):
            flooding_time(static(adj), 0, max_steps=5)


class TestFloodResultStructure:
    def test_history_monotone_and_endpoints(self):
        res = flood(static(cycle_adjacency(9)), 0)
        hist = res.informed_history
        assert hist[0] == 1 and hist[-1] == 9
        assert (np.diff(hist) >= 0).all()
        assert len(hist) == res.time + 1

    def test_growth_factors(self):
        res = flood(static(cycle_adjacency(8)), 0)
        factors = res.growth_factors()
        assert len(factors) == res.time
        assert (factors >= 1.0).all()

    def test_multi_source(self):
        res = flood(static(cycle_adjacency(12)), [0, 6])
        assert res.completed
        assert res.time == 3  # two antipodal sources halve the time
        assert res.informed_history[0] == 2

    def test_duplicate_sources_rejected(self):
        with pytest.raises(ValueError):
            flood(static(cycle_adjacency(6)), [0, 0])

    def test_bad_source_rejected(self):
        with pytest.raises(ValueError):
            flood(static(cycle_adjacency(6)), 17)


class TestFloodOnEvolvingGraphs:
    def test_sequence_uses_graph_at_time_t(self):
        # G_0 is empty, G_1 is complete: nothing spreads at step 1
        # (which uses G_0), everything at step 2 (uses G_1).
        n = 5
        empty = np.zeros((n, n), dtype=bool)
        seq = sequence_from_adjacencies([empty, complete_adjacency(n)])
        res = flood(seq, 0)
        assert res.time == 2
        np.testing.assert_array_equal(res.informed_history, [1, 1, 5])

    def test_diameter_vs_flooding_adversarial(self):
        """An evolving graph with constant diameter 2 but flooding time ~ n.

        At time t the 'hub' is node (t mod n): stars keep the diameter
        at 2 forever, but a moving hub can leak information slowly.
        """
        n = 8

        def factory(t: int):
            return AdjacencySnapshot(star_adjacency(n, center=(n - 1 - t) % n))

        gen = GeneratedEvolvingGraph(n, factory)
        res = flood(gen, 0, max_steps=200)
        assert res.completed
        assert res.time > 2  # far exceeds the diameter

    def test_seed_reproducibility_on_meg(self):
        meg = EdgeMEG(40, 0.2, 0.2)
        t1 = flood(meg, 0, seed=99).time
        t2 = flood(meg, 0, seed=99).time
        assert t1 == t2

    def test_reset_false_continues_from_current_state(self):
        meg = EdgeMEG(30, 0.3, 0.3)
        meg.reset_empty(seed=5)
        res = flood(meg, 0, reset=False)
        # From the empty graph, the first step can inform nobody.
        assert res.informed_history[1] == 1


class TestFloodingTrials:
    def test_count_and_reproducibility(self):
        meg = EdgeMEG(30, 0.3, 0.3)
        a = [r.time for r in flooding_trials(meg, trials=5, seed=1)]
        b = [r.time for r in flooding_trials(meg, trials=5, seed=1)]
        assert a == b and len(a) == 5

    def test_fixed_source(self):
        meg = EdgeMEG(30, 0.3, 0.3)
        results = flooding_trials(meg, trials=3, seed=2, source=7)
        assert all(r.source == (7,) for r in results)

    def test_random_sources_vary(self):
        meg = EdgeMEG(50, 0.3, 0.3)
        results = flooding_trials(meg, trials=10, seed=3)
        assert len({r.source for r in results}) > 1


class TestResolveMaxSteps:
    def test_default_is_linear_with_floor(self):
        assert resolve_max_steps(1) == 68
        assert resolve_max_steps(100) == 464

    def test_explicit_budget_passes_through(self):
        assert resolve_max_steps(100, 7) == 7

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            resolve_max_steps(10, 0)
        with pytest.raises(ValueError):
            resolve_max_steps(0)

    def test_matches_flood_truncation_point(self):
        # A disconnected graph runs out exactly at the resolved budget.
        adj = np.zeros((3, 3), dtype=bool)
        res = flood(static(adj), 0)
        assert res.time == resolve_max_steps(3)


class TestMaxOverSources:
    def test_static_cycle_equals_diameter(self):
        # On a static graph, max_s T(s) is the diameter.
        assert max_flooding_time_over_sources(static(cycle_adjacency(9)), seed=0) == 4

    def test_replay_consistency_on_meg(self):
        meg = EdgeMEG(16, 0.3, 0.3)
        a = max_flooding_time_over_sources(meg, seed=4, sources=range(4))
        b = max_flooding_time_over_sources(meg, seed=4, sources=range(4))
        assert a == b

    def test_max_at_least_single_source(self):
        meg = EdgeMEG(16, 0.3, 0.3)
        worst = max_flooding_time_over_sources(meg, seed=4)
        some = max_flooding_time_over_sources(meg, seed=4, sources=[0])
        assert worst >= some
