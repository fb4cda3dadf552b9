"""Tests for repro.edgemeg.meg — the edge-MEG engine."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.flooding import flood, flooding_trials
from repro.edgemeg.meg import EdgeMEG


class TestConstruction:
    def test_basic_properties(self):
        meg = EdgeMEG(10, 0.2, 0.3)
        assert meg.num_nodes == 10
        assert meg.num_pairs == 45
        assert meg.p == 0.2 and meg.q == 0.3
        assert meg.p_hat == pytest.approx(0.4)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            EdgeMEG(1, 0.5, 0.5)

    def test_frozen_chain_rejected(self):
        with pytest.raises(ValueError):
            EdgeMEG(5, 0.0, 0.0)

    def test_requires_reset_before_use(self):
        meg = EdgeMEG(5, 0.5, 0.5)
        with pytest.raises(RuntimeError):
            meg.step()
        with pytest.raises(RuntimeError):
            meg.snapshot()


class TestInitialisation:
    def test_stationary_density(self):
        meg = EdgeMEG(120, 0.3, 0.1)  # p_hat = 0.75
        meg.reset(seed=0)
        assert abs(meg.edge_density() - 0.75) < 0.03

    def test_reset_empty_and_full(self):
        meg = EdgeMEG(20, 0.3, 0.3)
        meg.reset_empty(seed=0)
        assert meg.edge_density() == 0.0
        assert meg.snapshot().edge_count() == 0
        meg.reset_full(seed=0)
        assert meg.edge_density() == 1.0
        assert meg.snapshot().edge_count() == 190

    def test_reset_at_adjacency(self):
        meg = EdgeMEG(4, 0.2, 0.2)
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        meg.reset_at(adj, seed=0)
        snap = meg.snapshot()
        assert snap.edge_count() == 1 and snap.has_edge(0, 1)

    def test_reset_at_validates(self):
        meg = EdgeMEG(4, 0.2, 0.2)
        bad = np.zeros((4, 4), dtype=bool)
        bad[0, 1] = True  # asymmetric
        with pytest.raises(ValueError):
            meg.reset_at(bad)
        loops = np.eye(4, dtype=bool)
        with pytest.raises(ValueError):
            meg.reset_at(loops)

    def test_reset_rewinds_time(self):
        meg = EdgeMEG(10, 0.3, 0.3)
        meg.reset(seed=1)
        meg.step()
        assert meg.time == 1
        meg.reset(seed=1)
        assert meg.time == 0


class TestDynamics:
    def test_step_determinism(self):
        meg = EdgeMEG(30, 0.25, 0.25)
        meg.reset(seed=7)
        meg.step()
        a = meg.edge_states
        meg.reset(seed=7)
        meg.step()
        np.testing.assert_array_equal(a, meg.edge_states)

    def test_snapshot_is_symmetric_no_loops(self):
        meg = EdgeMEG(25, 0.4, 0.2)
        meg.reset(seed=2)
        adj = meg.snapshot().adjacency
        assert (adj == adj.T).all()
        assert not adj.diagonal().any()

    def test_stationarity_preserved_across_steps(self):
        """The chain invariant: stationary density stays p_hat after steps."""
        meg = EdgeMEG(150, 0.1, 0.3)  # p_hat = 0.25
        densities = []
        for seed in range(5):
            meg.reset(seed=seed)
            for _ in range(4):
                meg.step()
            densities.append(meg.edge_density())
        assert abs(np.mean(densities) - 0.25) < 0.02

    def test_deterministic_birth_death(self):
        meg = EdgeMEG(10, 1.0, 1.0)  # edges flip every step
        meg.reset_empty(seed=0)
        meg.step()
        assert meg.edge_density() == 1.0
        meg.step()
        assert meg.edge_density() == 0.0

    def test_q_one_p_zero_dies_out(self):
        meg = EdgeMEG(10, 0.0, 1.0)
        meg.reset_full(seed=0)
        meg.step()
        assert meg.edge_density() == 0.0

    def test_edge_autocorrelation_sign(self):
        """Slow chains (small p+q) keep edges correlated step to step."""
        meg = EdgeMEG(60, 0.02, 0.02)
        meg.reset(seed=3)
        before = meg.edge_states
        meg.step()
        after = meg.edge_states
        agreement = (before == after).mean()
        assert agreement > 0.9  # only ~2% of edges flip per step


class TestFloodingOnEdgeMEG:
    def test_dense_floods_fast(self):
        meg = EdgeMEG(100, 0.5, 0.1)
        res = flood(meg, 0, seed=0)
        assert res.completed and res.time <= 3

    def test_empty_start_slower_than_stationary(self):
        meg = EdgeMEG(100, 0.001, 0.01)  # p_hat ~ 0.09 but slow birth
        stationary = flood(meg, 0, seed=1)
        meg.reset_empty(seed=2)
        worst = flood(meg, 0, reset=False, max_steps=2000)
        assert stationary.completed
        assert worst.time > stationary.time


def _peak_traced_bytes(run) -> int:
    """Peak bytes ``tracemalloc`` sees allocated while *run()* runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLazyPairIndex:
    """The ``n(n-1)/2`` pair index and edge states are built on first
    use: construction and the native count tier never pay for them."""

    BUDGET = 2 << 20  # bytes

    def test_construction_allocates_no_pair_arrays(self):
        assert _peak_traced_bytes(lambda: EdgeMEG(4096, 0.01, 0.5)) \
            < self.BUDGET  # one pair array at n = 4096 is 8.4 MB

    def test_native_flooding_allocates_no_pair_arrays(self):
        n = 1024
        p_hat = 2 * np.log(n) / n

        def run():
            flooding_trials(EdgeMEG(n, p_hat / 2, (1 - p_hat) / 2),
                            trials=32, seed=1, backend="batched",
                            rng_mode="native")

        run()  # warm: imports and first-call caches are not the model's
        assert _peak_traced_bytes(run) < self.BUDGET
