"""Engine equivalence: the batched kernels against serial ``flood``.

The replay contract is the engine's strongest invariant — for the same
seed the batched backend must reproduce the serial reference **bit for
bit**: flooding times, informed-count histories, final informed masks,
and sources.  These tests sweep seeds and model families (dense/sparse
edge-MEGs, geometric-MEGs), including truncated and multi-source runs,
plus a hypothesis sweep over edge-MEG parameters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flooding import flooding_trials, max_flooding_time_over_sources
from repro.dynamics.sequence import StaticEvolvingGraph, cycle_adjacency
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.edgemeg.independent import IndependentDynamicGraph
from repro.edgemeg.meg import EdgeMEG
from repro.edgemeg.sparse import SparseEdgeMEG
from repro.engine import SimulationPlan, run_plan
from repro.engine.testing import assert_results_bit_identical as assert_bit_identical
from repro.geometric.meg import GeometricMEG
from repro.mobility import MobilityMEG, RandomWaypoint


MODELS = [
    pytest.param(lambda: EdgeMEG(24, 0.3, 0.3), id="edge-dense"),
    pytest.param(lambda: EdgeMEG(30, 0.08, 0.5), id="edge-sparse"),
    pytest.param(lambda: SparseEdgeMEG(30, 0.05, 0.4), id="sparse-edge"),
    pytest.param(lambda: GeometricMEG(36, move_radius=1.0, radius=3.5),
                 id="geometric"),
    pytest.param(lambda: MobilityMEG(RandomWaypoint(25, side=5.0, speed=1.0),
                                     radius=2.5), id="mobility-waypoint"),
    # No registered kernels: exercises the generic snapshot fallback.
    pytest.param(lambda: IndependentDynamicGraph(20, 0.15),
                 id="generic-fallback"),
]


class TestReplayBitIdentical:
    @pytest.mark.parametrize("factory", MODELS)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_sources(self, factory, seed):
        serial = flooding_trials(factory(), trials=5, seed=seed)
        engine = flooding_trials(factory(), trials=5, seed=seed,
                                 backend="batched")
        assert_bit_identical(serial, engine)

    @pytest.mark.parametrize("factory", MODELS)
    def test_fixed_source(self, factory):
        serial = flooding_trials(factory(), trials=4, seed=3, source=2)
        engine = flooding_trials(factory(), trials=4, seed=3, source=2,
                                 backend="batched")
        assert_bit_identical(serial, engine)

    @pytest.mark.parametrize("factory", MODELS)
    def test_multi_source(self, factory):
        serial = flooding_trials(factory(), trials=4, seed=5, source=(0, 5, 11))
        engine = flooding_trials(factory(), trials=4, seed=5, source=(0, 5, 11),
                                 backend="batched")
        assert_bit_identical(serial, engine)

    @pytest.mark.parametrize("factory", MODELS)
    def test_truncated_runs(self, factory):
        """max_steps=1 forces completed=False paths through the kernel."""
        serial = flooding_trials(factory(), trials=5, seed=2, max_steps=1)
        engine = flooding_trials(factory(), trials=5, seed=2, max_steps=1,
                                 backend="batched")
        assert any(not r.completed for r in serial), "fixture should truncate"
        assert_bit_identical(serial, engine)

    def test_chunking_is_invisible(self):
        """Replay results must not depend on the chunk layout."""
        meg = EdgeMEG(20, 0.2, 0.4)
        reference = run_plan(SimulationPlan(model=meg, trials=9, seed=11),
                             backend="serial")
        for chunk_size in (1, 2, 4, 9, 50):
            plan = SimulationPlan(model=meg, trials=9, seed=11,
                                  chunk_size=chunk_size)
            ensemble = run_plan(plan, backend="batched")
            np.testing.assert_array_equal(reference.times, ensemble.times)
            assert reference.sources == ensemble.sources
            for a, b in zip(reference.histories, ensemble.histories):
                np.testing.assert_array_equal(a, b)

    def test_parallel_equals_serial(self):
        meg = EdgeMEG(20, 0.2, 0.4)
        serial = flooding_trials(meg, trials=8, seed=13)
        parallel = flooding_trials(meg, trials=8, seed=13, backend="parallel",
                                   jobs=2)
        assert_bit_identical(serial, parallel)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10**6),
           n=st.integers(8, 28),
           p=st.floats(0.02, 0.9),
           q=st.floats(0.05, 0.9))
    def test_edge_meg_property(self, seed, n, p, q):
        serial = flooding_trials(EdgeMEG(n, p, q), trials=3, seed=seed)
        engine = flooding_trials(EdgeMEG(n, p, q), trials=3, seed=seed,
                                 backend="batched")
        assert_bit_identical(serial, engine)


class TestMaxOverSourcesBatched:
    def test_static_cycle_diameter(self):
        graph = StaticEvolvingGraph(AdjacencySnapshot(cycle_adjacency(9)))
        assert max_flooding_time_over_sources(graph, seed=0,
                                              backend="batched") == 4

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_edge_meg_equals_serial(self, seed):
        meg = EdgeMEG(16, 0.3, 0.3)
        serial = max_flooding_time_over_sources(meg, seed=seed,
                                                backend="serial")
        batched = max_flooding_time_over_sources(meg, seed=seed,
                                                 backend="batched")
        assert serial == batched

    def test_geometric_subset_equals_serial(self):
        meg = GeometricMEG(25, move_radius=1.0, radius=3.0)
        serial = max_flooding_time_over_sources(meg, seed=3, sources=range(8),
                                                backend="serial")
        batched = max_flooding_time_over_sources(meg, seed=3, sources=range(8),
                                                 backend="batched")
        assert serial == batched

    def test_truncation_raises_like_serial(self):
        disconnected = StaticEvolvingGraph(
            AdjacencySnapshot(np.zeros((4, 4), dtype=bool)))
        with pytest.raises(RuntimeError, match="did not complete"):
            max_flooding_time_over_sources(disconnected, seed=0, max_steps=5,
                                           backend="batched")


class TestNativeMode:
    """Native results are well formed and deterministic; their law is
    tested by chi-squared conformance in ``test_count_law.py``."""

    def test_deterministic_and_jobs_invariant(self):
        meg = EdgeMEG(32, 0.05, 0.4)
        plan = SimulationPlan(model=meg, trials=10, seed=5, rng_mode="native",
                              chunk_size=4)
        first = run_plan(plan, backend="batched")
        second = run_plan(plan, backend="batched")
        fanned = run_plan(plan, backend="parallel", jobs=2)
        np.testing.assert_array_equal(first.times, second.times)
        np.testing.assert_array_equal(first.times, fanned.times)
        assert first.sources == fanned.sources
        np.testing.assert_array_equal(first.informed, fanned.informed)

    @pytest.mark.parametrize("factory", MODELS)
    def test_native_results_well_formed(self, factory):
        ensemble = run_plan(SimulationPlan(model=factory(), trials=6, seed=9,
                                           rng_mode="native"),
                            backend="batched")
        n = ensemble.num_nodes
        assert ensemble.times.shape == (6,)
        for i, history in enumerate(ensemble.histories):
            assert history.shape == (ensemble.times[i] + 1,)
            assert history[0] == len(ensemble.sources[i])
            assert (np.diff(history) >= 0).all()
            if ensemble.completed[i]:
                assert history[-1] == n
            assert history[-1] == ensemble.informed[i].sum()

    def test_native_dense_fast_path(self):
        """A dense law (p_hat > 0.25) through the count chain; the dense
        (B, P) churn branch is held to the same law in test_count_law.py."""
        meg = EdgeMEG(24, 0.5, 0.2)
        ensemble = run_plan(SimulationPlan(model=meg, trials=8, seed=3,
                                           rng_mode="native"),
                            backend="batched")
        assert ensemble.completed.all()
        assert (ensemble.times >= 1).all()

    def test_native_truncation(self):
        meg = EdgeMEG(40, 0.01, 0.9)  # too sparse to flood in 2 steps
        ensemble = run_plan(SimulationPlan(model=meg, trials=6, seed=1,
                                           max_steps=2, rng_mode="native"),
                            backend="batched")
        assert not ensemble.completed.all()
        truncated = ~ensemble.completed
        assert (ensemble.times[truncated] == 2).all()

    def test_native_multi_source(self):
        meg = GeometricMEG(30, move_radius=1.0, radius=3.0)
        plan = SimulationPlan(model=meg, trials=5, seed=2, source=(0, 7),
                              rng_mode="native")
        ensemble = run_plan(plan, backend="batched")
        assert all(src == (0, 7) for src in ensemble.sources)
        assert all(h[0] == 2 for h in ensemble.histories)
