"""Engine equivalence for protocol kernels.

Mirrors ``tests/engine/test_batch_equivalence.py`` for the protocol
subsystem: for every protocol and model family the engine's replay
backends must reproduce the serial :func:`repro.protocols.spread`
reference **bit for bit** — including truncated and multi-source runs
and arbitrary chunkings — while native runs must be deterministic in
``(seed, trials, chunk_size)`` and independent of the worker count.
Assertions reuse :func:`repro.engine.testing.assert_results_bit_identical`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.edgemeg.independent import IndependentDynamicGraph
from repro.edgemeg.meg import EdgeMEG
from repro.edgemeg.sparse import SparseEdgeMEG
from repro.engine import SimulationPlan, run_plan
from repro.engine.testing import assert_results_bit_identical as assert_bit_identical
from repro.geometric.meg import GeometricMEG
from repro.mobility import MobilityMEG, RandomWaypointTorus
from repro.protocols import (
    ExpiringFlooding,
    ProbabilisticFlooding,
    PullGossip,
    PushGossip,
    PushPullGossip,
    spreading_trials,
)

MODELS = [
    pytest.param(lambda: EdgeMEG(24, 0.3, 0.3), id="edge-dense"),
    pytest.param(lambda: SparseEdgeMEG(30, 0.05, 0.4), id="sparse-edge"),
    pytest.param(lambda: GeometricMEG(30, move_radius=1.0, radius=3.0),
                 id="geometric"),
    pytest.param(lambda: MobilityMEG(RandomWaypointTorus(25, side=5.0, speed=1.0),
                                     radius=2.5, torus=True),
                 id="mobility-waypoint"),
    # No registered dynamics kernels: generic snapshot fallback.
    pytest.param(lambda: IndependentDynamicGraph(20, 0.15),
                 id="generic-fallback"),
]

PROTOCOLS = [
    pytest.param(ProbabilisticFlooding(0.5), id="p-flood"),
    pytest.param(ExpiringFlooding(2), id="expiring"),
    pytest.param(PushGossip(), id="push"),
    pytest.param(PullGossip(), id="pull"),
    pytest.param(PushPullGossip(), id="push-pull"),
]


class TestReplayBitIdentical:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("factory", MODELS)
    def test_random_sources(self, factory, protocol):
        serial = spreading_trials(protocol, factory(), trials=4, seed=3)
        engine = spreading_trials(protocol, factory(), trials=4, seed=3,
                                  backend="batched")
        assert_bit_identical(serial, engine)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_multi_source(self, protocol):
        meg = EdgeMEG(24, 0.2, 0.4)
        serial = spreading_trials(protocol, meg, trials=4, seed=5,
                                  source=(0, 5, 11))
        engine = spreading_trials(protocol, meg, trials=4, seed=5,
                                  source=(0, 5, 11), backend="batched")
        assert_bit_identical(serial, engine)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("factory", MODELS[:3])
    def test_truncated_runs(self, factory, protocol):
        """max_steps=1 forces completed=False paths through the kernel."""
        serial = spreading_trials(protocol, factory(), trials=4, seed=2,
                                  max_steps=1)
        engine = spreading_trials(protocol, factory(), trials=4, seed=2,
                                  max_steps=1, backend="batched")
        assert any(not r.completed for r in serial), "fixture should truncate"
        assert_bit_identical(serial, engine)

    def test_stalled_runs_replay_identically(self):
        """Expiring flooding that dies out must retire at the same round
        on every backend."""
        meg = SparseEdgeMEG(40, 0.01, 0.8)  # too sparse for k=1 relaying
        protocol = ExpiringFlooding(1)
        serial = spreading_trials(protocol, meg, trials=6, seed=1)
        engine = spreading_trials(protocol, meg, trials=6, seed=1,
                                  backend="batched")
        assert any(not r.completed for r in serial), "fixture should stall"
        assert_bit_identical(serial, engine)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_chunking_is_invisible(self, protocol):
        meg = EdgeMEG(20, 0.2, 0.4)
        reference = spreading_trials(protocol, meg, trials=9, seed=11)
        for chunk_size in (1, 2, 4, 9, 50):
            engine = spreading_trials(protocol, meg, trials=9, seed=11,
                                      backend="batched",
                                      chunk_size=chunk_size)
            assert_bit_identical(reference, engine)

    @pytest.mark.parametrize("protocol", PROTOCOLS[:2])
    def test_parallel_equals_serial(self, protocol):
        meg = EdgeMEG(20, 0.2, 0.4)
        serial = spreading_trials(protocol, meg, trials=8, seed=13)
        parallel = spreading_trials(protocol, meg, trials=8, seed=13,
                                    backend="parallel", jobs=2,
                                    chunk_size=3)
        assert_bit_identical(serial, parallel)

    def test_seed_couples_realisations_across_protocols(self):
        """Same master seed => same per-trial sources for every
        protocol (the derive-seed coupling discipline)."""
        meg = EdgeMEG(24, 0.2, 0.4)
        a = spreading_trials(PushGossip(), meg, trials=6, seed=21)
        b = spreading_trials(PushPullGossip(), meg, trials=6, seed=21)
        assert [r.source for r in a] == [r.source for r in b]

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_seed_couples_graphs_so_flooding_dominates(self, backend):
        """Same master seed => same per-trial graph realisation, so
        flooding (p-flood with p=1, under the same seed split) finishes
        no later than push trial by trial — the E14 invariant."""
        meg = EdgeMEG(16, 0.3, 0.3)
        floods = spreading_trials(ProbabilisticFlooding(1.0), meg, trials=6,
                                  seed=8, source=0, backend=backend)
        pushes = spreading_trials(PushGossip(), meg, trials=6, seed=8,
                                  source=0, backend=backend)
        for f, g in zip(floods, pushes):
            assert f.completed
            if g.completed:
                assert f.time <= g.time


class TestNativeMode:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("factory", MODELS)
    def test_deterministic_in_seed_trials_chunk(self, factory, protocol):
        kwargs = dict(trials=8, seed=5, backend="batched",
                      rng_mode="native", chunk_size=4)
        first = spreading_trials(protocol, factory(), **kwargs)
        second = spreading_trials(protocol, factory(), **kwargs)
        assert_bit_identical(first, second)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_jobs_invariant(self, protocol):
        meg = EdgeMEG(24, 0.15, 0.4)
        plan_kwargs = dict(trials=8, seed=9, backend="batched",
                           rng_mode="native", chunk_size=4)
        batched = spreading_trials(protocol, meg, **plan_kwargs)
        fanned = spreading_trials(protocol, meg, trials=8, seed=9,
                                  backend="parallel", rng_mode="native",
                                  chunk_size=4, jobs=2)
        assert_bit_identical(batched, fanned)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("factory", MODELS)
    def test_native_results_well_formed(self, factory, protocol):
        results = spreading_trials(protocol, factory(), trials=6, seed=9,
                                   backend="batched", rng_mode="native")
        assert len(results) == 6
        for res in results:
            history = res.informed_history
            assert history.shape == (res.time + 1,)
            assert history[0] == len(res.source)
            assert (np.diff(history) >= 0).all()
            assert history[-1] == res.informed.sum()
            if res.completed:
                assert history[-1] == res.num_nodes

    def test_native_matches_serial_distribution(self):
        """Same process law on the composed mask kernels: mean times
        agree across stream layouts."""
        meg = EdgeMEG(64, 0.05, 0.35)
        protocol = ProbabilisticFlooding(0.5)
        serial = spreading_trials(protocol, meg, trials=48, seed=17)
        native = spreading_trials(protocol, meg, trials=48, seed=17,
                                  backend="batched", rng_mode="native")
        mean_serial = np.mean([r.time for r in serial])
        mean_native = np.mean([r.time for r in native])
        assert 0.7 <= mean_native / mean_serial <= 1.4

    def test_native_expiring_stalls(self):
        meg = SparseEdgeMEG(40, 0.01, 0.8)
        results = spreading_trials(ExpiringFlooding(1), meg, trials=6, seed=1,
                                   backend="batched", rng_mode="native")
        stalled = [r for r in results if not r.completed]
        assert stalled, "fixture should stall"
        budget = 4 * 40 + 64
        assert all(r.time < budget for r in stalled), "stalls retire early"


class TestPlanProtocolField:
    def test_plan_resolves_tokens(self):
        plan = SimulationPlan(model=EdgeMEG(10, 0.3, 0.3), trials=2,
                              protocol="push-pull")
        assert plan.protocol == PushPullGossip()
        assert not plan.is_flooding

    def test_plan_defaults_to_flooding(self):
        plan = SimulationPlan(model=EdgeMEG(10, 0.3, 0.3), trials=2)
        assert plan.is_flooding

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            spreading_trials(PushGossip(), EdgeMEG(10, 0.3, 0.3), trials=2,
                             backend="gpu")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            SimulationPlan(model=EdgeMEG(10, 0.3, 0.3), trials=2,
                           protocol="morse-code")

    def test_run_plan_dispatches_protocol(self):
        plan = SimulationPlan(model=EdgeMEG(16, 0.3, 0.3), trials=3, seed=4,
                              protocol=ProbabilisticFlooding(0.5))
        serial = run_plan(plan, backend="serial")
        batched = run_plan(plan, backend="batched")
        np.testing.assert_array_equal(serial.times, batched.times)
        assert serial.sources == batched.sources
        np.testing.assert_array_equal(serial.informed, batched.informed)
