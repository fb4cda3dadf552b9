"""Kernel-provider lookup: dispatch, subclassing, capability gates.

The engine must select kernels through each model's own
``batched_dynamics()`` alone — in particular, plain model subclasses
must inherit their family's kernels
(the old exact-``type()`` dispatch silently dropped ``EdgeMEG``
subclasses to the ``O(n^2)`` snapshot fallback), while subclasses that
override the dynamics the kernels re-implement must lose exactly the
capabilities that are no longer exact.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import obs
from repro.core.flooding import flooding_trials
from repro.dynamics import StaticEvolvingGraph, cycle_adjacency
from repro.dynamics.batched import BatchedDynamics, batched_dynamics_for
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.edgemeg.er import ErMEG
from repro.edgemeg.independent import IndependentDynamicGraph, IndependentMEG
from repro.edgemeg.kernels import EdgeBatchedDynamics, SparseEdgeBatchedDynamics
from repro.edgemeg.meg import EdgeMEG
from repro.edgemeg.sparse import SparseEdgeMEG
from repro.engine import SimulationPlan, run_plan
from repro.engine.testing import assert_results_bit_identical as assert_bit_identical
from repro.geometric.kernels import GeometricBatchedDynamics
from repro.geometric.meg import GeometricMEG
from repro.mobility import (
    MobilityMEG,
    RandomDirection,
    RandomWaypoint,
    RandomWaypointTorus,
    TorusGridWalk,
)
from repro.mobility.kernels import MobilityBatchedDynamics
from repro.obs.sinks import MemorySink
from repro.protocols.runner import spreading_trials


class TestDispatch:
    def test_edge_family(self):
        kernel = batched_dynamics_for(EdgeMEG(16, 0.3, 0.3))
        assert type(kernel) is EdgeBatchedDynamics
        assert kernel.native_capable

    def test_sparse_edge_family(self):
        kernel = batched_dynamics_for(SparseEdgeMEG(16, 0.05, 0.4))
        assert type(kernel) is SparseEdgeBatchedDynamics
        assert kernel.native_capable

    def test_geometric_family(self):
        kernel = batched_dynamics_for(GeometricMEG(16, move_radius=1.0,
                                                   radius=3.0))
        assert type(kernel) is GeometricBatchedDynamics
        assert kernel.native_capable

    @pytest.mark.parametrize("model", [
        pytest.param(RandomWaypoint(16, 4.0, speed=1.0), id="waypoint"),
        pytest.param(RandomWaypointTorus(16, 4.0, speed=1.0), id="waypoint-torus"),
        pytest.param(RandomDirection(16, 4.0, speed=1.0), id="direction"),
        pytest.param(TorusGridWalk(16, 4.0, grid_size=8, move_radius=1.0),
                     id="torus-walk"),
    ])
    def test_mobility_family(self, model):
        torus = model.exact_stationary_start and not isinstance(
            model, RandomDirection)
        kernel = batched_dynamics_for(MobilityMEG(model, 1.5, torus=torus))
        assert type(kernel) is MobilityBatchedDynamics
        assert kernel.native_capable

    def test_unregistered_families_fall_back(self):
        graph = StaticEvolvingGraph(AdjacencySnapshot(cycle_adjacency(8)))
        assert type(batched_dynamics_for(graph)) is BatchedDynamics
        independent = IndependentDynamicGraph(8, 0.3)
        assert type(batched_dynamics_for(independent)) is BatchedDynamics


class TestSubclassDispatch:
    """The exact-``type()`` regression: subclasses keep the fast path."""

    @pytest.mark.parametrize("model", [
        pytest.param(ErMEG(20, 0.4, 0.3), id="ErMEG"),
        pytest.param(IndependentMEG(20, 0.3), id="IndependentMEG"),
    ])
    def test_edge_subclasses_inherit_the_edge_kernel(self, model):
        kernel = batched_dynamics_for(model)
        assert type(kernel) is not BatchedDynamics, (
            f"{type(model).__name__} fell off the edge fast path")
        assert type(kernel) is EdgeBatchedDynamics
        assert kernel.native_capable

    @pytest.mark.parametrize("factory", [
        pytest.param(lambda: ErMEG(22, 0.35, 0.4), id="ErMEG"),
        pytest.param(lambda: IndependentMEG(22, 0.25), id="IndependentMEG"),
    ])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_edge_subclasses_replay_bit_identical(self, factory, seed):
        serial = flooding_trials(factory(), trials=4, seed=seed)
        engine = flooding_trials(factory(), trials=4, seed=seed,
                                 backend="batched")
        assert_bit_identical(serial, engine)

    def test_overriding_the_dynamics_disables_native(self):
        """A subclass with its own step keeps the exact replay query but
        must not run the native kernel that replicates EdgeMEG.step."""

        class FrozenEdgeMEG(EdgeMEG):
            def step(self):
                self._t += 1  # edges never churn

        kernel = batched_dynamics_for(FrozenEdgeMEG(12, 0.3, 0.3))
        assert type(kernel) is EdgeBatchedDynamics
        assert not kernel.native_capable

    def test_overriding_snapshot_falls_back_to_generic(self):
        class OddSnapshotEdgeMEG(EdgeMEG):
            def snapshot(self):
                return super().snapshot()

        kernel = batched_dynamics_for(OddSnapshotEdgeMEG(12, 0.3, 0.3))
        assert type(kernel) is BatchedDynamics

    def test_frozen_subclass_still_replays_bit_identically(self):
        class FrozenEdgeMEG(EdgeMEG):
            def step(self):
                self._t += 1

        serial = flooding_trials(FrozenEdgeMEG(18, 0.45, 0.2), trials=3, seed=7)
        engine = flooding_trials(FrozenEdgeMEG(18, 0.45, 0.2), trials=3, seed=7,
                                 backend="batched")
        assert_bit_identical(serial, engine)


class _StaticKernel(BatchedDynamics):
    """Native kernels of a static graph: the state never moves."""

    native_capable = True

    def __init__(self, template):
        super().__init__(template)
        self._adj = template.snapshot().adjacency.astype(np.int64)

    def batch_init(self, count, rng):
        return None

    def batch_neighborhood(self, state, informed, act):
        rows = informed[act]
        return (rows.astype(np.int64) @ self._adj > 0) & ~rows

    def batch_step(self, state, rng, active):
        pass


class OwnKernelGraph(StaticEvolvingGraph):
    """A family that is never registered anywhere: it only names its
    provider by overriding ``batched_dynamics``."""

    def batched_dynamics(self):
        return _StaticKernel(self)


class TestMethodOverride:
    def test_lookup_returns_the_models_own_provider(self):
        graph = OwnKernelGraph(AdjacencySnapshot(cycle_adjacency(8)))
        assert type(batched_dynamics_for(graph)) is _StaticKernel

    def test_native_runs_the_override_on_the_kernel_tier(self):
        graph = OwnKernelGraph(AdjacencySnapshot(cycle_adjacency(8)))
        sink = MemorySink()
        previous = obs.configure(sink)
        try:
            results = flooding_trials(graph, trials=5, seed=2, source=0,
                                      backend="batched", rng_mode="native")
        finally:
            obs.configure(previous if previous.live else None)
        chunks = [ev["attrs"] for ev in sink.events
                  if ev["kind"] == "span" and ev["name"] == "engine.chunk"]
        assert chunks and {a["tier"] for a in chunks} == {"kernel"}
        assert {a["kernel"] for a in chunks} == {"_StaticKernel"}
        # The cycle's eccentricity, as the serial loop measures it.
        assert [r.time for r in results] == [4] * 5
        assert [r.time for r in flooding_trials(graph, trials=5, seed=2,
                                                source=0)] == [4] * 5


def _chunk_tiers(run) -> set[str]:
    """The ``tier`` attributes of the ``engine.chunk`` spans of *run()*."""
    sink = MemorySink()
    previous = obs.configure(sink)
    try:
        run()
    finally:
        obs.configure(previous if previous.live else None)
    return {ev["attrs"]["tier"] for ev in sink.events
            if ev["kind"] == "span" and ev["name"] == "engine.chunk"}


def _live_state(model) -> tuple:
    """What a run could change on the caller's model: its time, its edge
    states or walker positions, and its generator's state."""
    if isinstance(model, EdgeMEG):
        live, rng = model.edge_states, model._rng
    elif isinstance(model, SparseEdgeMEG):
        live, rng = model._alive.copy(), model._rng
    elif isinstance(model, GeometricMEG):
        live, rng = model.walkers.positions(), model.walkers._rng
    elif isinstance(model, MobilityMEG):
        live, rng = model.model.positions(), model.model._rng
    else:
        return model.time, model.snapshot().adjacency.tobytes()
    return model.time, live.tobytes(), rng.bit_generator.state


class TestNativeTemplateIsNotCloned:
    """Native count and kernel chunks build their provider from the
    plan's own model, with no copy, and leave that model as it was;
    the per-trial tiers (replay, generic native) reset a model, so they
    still make one fresh copy per chunk."""

    @pytest.mark.parametrize("make, tier", [
        pytest.param(lambda: EdgeMEG(24, 0.1, 0.4), "counts",
                     id="edge-counts"),
        pytest.param(lambda: SparseEdgeMEG(24, 0.05, 0.4), "counts",
                     id="sparse-counts"),
        pytest.param(lambda: GeometricMEG(24, move_radius=1.0, radius=3.0),
                     "kernel", id="geometric-kernel"),
        pytest.param(lambda: MobilityMEG(RandomWaypoint(24, side=5.0,
                                                        speed=1.0), 1.5),
                     "kernel", id="mobility-kernel"),
        pytest.param(lambda: OwnKernelGraph(
            AdjacencySnapshot(cycle_adjacency(8))), "kernel",
            id="own-kernel"),
    ])
    def test_native_tiers_never_copy_the_model(self, make, tier,
                                               monkeypatch):
        model = make()
        model.reset(seed=3)
        model.step()
        before = _live_state(model)

        def refuse(plan):
            raise AssertionError("a native chunk copied the plan's model")

        monkeypatch.setattr(SimulationPlan, "make_model", refuse)
        tiers = _chunk_tiers(lambda: flooding_trials(
            model, trials=70, seed=1, backend="batched", rng_mode="native"))
        assert tiers == {tier}
        assert _live_state(model) == before

    @pytest.mark.parametrize("rng_mode, protocol, tier", [
        ("replay", "flooding", "replay"),
        ("native", "push-pull", "generic"),
    ])
    def test_per_trial_tiers_copy_once_per_chunk(self, rng_mode, protocol,
                                                 tier, monkeypatch):
        model = EdgeMEG(24, 0.1, 0.4)
        model.reset(seed=3)
        before = _live_state(model)
        copies = []
        make_model = SimulationPlan.make_model

        def counted(plan):
            copies.append(make_model(plan))
            return copies[-1]

        monkeypatch.setattr(SimulationPlan, "make_model", counted)
        tiers = _chunk_tiers(lambda: spreading_trials(
            protocol, model, trials=70, seed=1, backend="batched",
            rng_mode=rng_mode))
        assert tiers == {tier}
        assert len(copies) == 2  # 70 trials: two chunks of at most 64
        assert all(copy is not model for copy in copies)
        assert _live_state(model) == before

    @pytest.mark.parametrize("rng_mode, protocol, tier", [
        ("native", "flooding", "counts"),
        ("native", "push-pull", "generic"),
        ("replay", "flooding", "replay"),
    ])
    def test_factory_plans_build_one_model_per_chunk(self, rng_mode,
                                                     protocol, tier):
        """A ``model_factory`` plan calls its factory once to read ``n``
        and once per chunk, whichever tier runs the chunk: the generic
        tier resets the chunk's fresh model rather than building a
        third."""
        built = []

        def factory():
            built.append(EdgeMEG(24, 0.1, 0.4))
            return built[-1]

        plan = SimulationPlan(model_factory=factory, trials=8, seed=1,
                              rng_mode=rng_mode, protocol=protocol)
        tiers = _chunk_tiers(lambda: run_plan(plan, backend="batched"))
        assert tiers == {tier}
        assert len(built) == 2


class TestSubclassConstructors:
    def test_ermeg_pins_the_stationary_density(self):
        meg = ErMEG(32, 0.15, 0.4)
        assert meg.p_hat == pytest.approx(0.15)
        assert meg.q == 0.4

    def test_independent_meg_is_memoryless(self):
        meg = IndependentMEG(32, 0.3)
        assert meg.p == 0.3
        assert meg.q == pytest.approx(0.7)
        assert meg.p_hat == pytest.approx(0.3)

    def test_independent_meg_matches_standalone_law(self):
        """Same flooding-time distribution as IndependentDynamicGraph."""
        sub = flooding_trials(IndependentMEG(48, 0.12), trials=24, seed=5)
        standalone = flooding_trials(IndependentDynamicGraph(48, 0.12),
                                     trials=24, seed=5)
        mean_sub = np.mean([r.time for r in sub])
        mean_standalone = np.mean([r.time for r in standalone])
        assert 0.6 <= mean_sub / mean_standalone <= 1.6


class TestEngineIsModelAgnostic:
    def test_batch_module_imports_no_model_families(self):
        """Kernel selection goes through the model's provider;
        engine/batch.py knows no concrete model classes."""
        import repro.engine.batch as batch

        source = inspect.getsource(batch)
        for token in ("EdgeMEG", "GeometricMEG", "MobilityMEG",
                      "SparseEdgeMEG", "isinstance(", "type(model) is",
                      "type(template) is", "type(template) in"):
            assert token not in source, (
                f"engine/batch.py must not dispatch on {token!r}")
