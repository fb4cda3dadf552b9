"""Tests for the plan executor and the TrialEnsemble result type."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.flooding import flooding_trials
from repro.dynamics.sequence import SequenceEvolvingGraph
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.edgemeg.meg import EdgeMEG
from repro.engine import RNG_MODES, SimulationPlan, TrialEnsemble, run_plan
from repro.engine.testing import assert_results_bit_identical
from repro.geometric.meg import GeometricMEG
from repro.mobility import MobilityMEG, RandomWaypoint
from repro.obs.sinks import MemorySink
from repro.protocols import spreading_trials


def make_meg():
    return EdgeMEG(16, 0.3, 0.3)


#: A path on 8 nodes: its eccentricities differ, so flooding times vary
#: with the random source on a deterministic graph sequence.
PATH_8 = np.eye(8, k=1, dtype=bool) | np.eye(8, k=-1, dtype=bool)


class TestRunPlan:
    def test_unknown_backend_rejected(self):
        plan = SimulationPlan(model=make_meg(), trials=2)
        with pytest.raises(ValueError):
            run_plan(plan, backend="gpu")

    def test_bad_jobs_rejected(self):
        plan = SimulationPlan(model=make_meg(), trials=2)
        with pytest.raises(ValueError):
            run_plan(plan, backend="parallel", jobs=0)

    def test_bad_source_fails_fast(self):
        plan = SimulationPlan(model=make_meg(), trials=2, source=99)
        with pytest.raises(ValueError):
            run_plan(plan, backend="batched")

    def test_serial_backend_matches_flooding_trials(self):
        results = flooding_trials(make_meg(), trials=5, seed=21)
        ensemble = run_plan(SimulationPlan(model=make_meg(), trials=5, seed=21),
                            backend="serial")
        assert [r.time for r in results] == list(ensemble.times)
        assert tuple(r.source for r in results) == ensemble.sources

    def test_factory_plan_runs_parallel(self):
        plan = SimulationPlan(model_factory=make_meg, trials=6, seed=1,
                              chunk_size=2)
        serial = run_plan(plan, backend="serial")
        fanned = run_plan(plan, backend="parallel", jobs=2)
        np.testing.assert_array_equal(serial.times, fanned.times)

    @pytest.mark.parametrize("model, protocol", [
        pytest.param(make_meg(), "flooding", id="edge-counts"),
        pytest.param(make_meg(), "push-pull", id="edge-generic"),
        pytest.param(GeometricMEG(24, move_radius=1.0, radius=2.5),
                     "expiring:active_steps=2", id="geometric-kernel"),
    ])
    def test_serial_honours_native_mode(self, model, protocol):
        """``backend="serial"`` runs the native tiers, not replay."""
        runs = {
            (backend, mode): spreading_trials(
                protocol, model, trials=7, seed=8, backend=backend,
                rng_mode=mode, chunk_size=3)
            for backend in ("serial", "batched") for mode in RNG_MODES}
        assert_results_bit_identical(runs["serial", "native"],
                                     runs["batched", "native"])
        assert_results_bit_identical(runs["serial", "replay"],
                                     runs["batched", "replay"])
        replay = [r.informed_history.tolist() for r in runs["serial", "replay"]]
        native = [r.informed_history.tolist() for r in runs["serial", "native"]]
        assert native != replay

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_record_flags(self, backend):
        plan = SimulationPlan(model=make_meg(), trials=3, seed=4,
                              record_history=False, record_informed=False)
        ensemble = run_plan(plan, backend=backend)
        assert ensemble.histories == ()
        assert ensemble.informed is None
        # to_results still works, with empty placeholder arrays
        results = ensemble.to_results()
        assert len(results) == 3
        assert results[0].informed_history.size == 0

    @pytest.mark.parametrize("model, mode, protocol, budget, tier", [
        pytest.param(EdgeMEG(24, 0.04, 0.5), "replay", "flooding", 6,
                     "replay", id="replay"),
        pytest.param(EdgeMEG(24, 0.04, 0.5), "native", "flooding", 6,
                     "counts", id="native-counts-edge"),
        pytest.param(GeometricMEG(24, move_radius=1.0, radius=1.5), "native",
                     "flooding", 3, "kernel", id="native-kernel-geometric"),
        pytest.param(MobilityMEG(RandomWaypoint(20, side=5.0, speed=1.0),
                                 1.5), "native", "flooding", 3, "kernel",
                     id="native-kernel-mobility"),
        pytest.param(SequenceEvolvingGraph([
            AdjacencySnapshot(PATH_8),
            AdjacencySnapshot(np.zeros_like(PATH_8))]),
            "native", "flooding", 10, "generic",
            id="native-generic-sequence"),
        pytest.param(make_meg(), "replay", "push-pull", 4, "replay",
                     id="replay-push-pull"),
        pytest.param(make_meg(), "native", "push-pull", 4, "generic",
                     id="native-push-pull"),
    ])
    def test_recording_never_changes_outcomes(self, model, mode, protocol,
                                              budget, tier):
        """Histories and masks are extra output only: a plan that records
        neither returns the recorded plan's sources, times and flags."""
        def run(record):
            plan = SimulationPlan(model=model, trials=7, seed=5,
                                  rng_mode=mode, protocol=protocol,
                                  chunk_size=3, max_steps=budget,
                                  record_history=record,
                                  record_informed=record)
            return run_plan(plan, backend="batched")

        sink = MemorySink()
        previous = obs.configure(sink)
        try:
            recorded, bare = run(True), run(False)
        finally:
            obs.configure(previous if previous.live else None)
        tiers = {ev["attrs"]["tier"] for ev in sink.events
                 if ev["kind"] == "span" and ev["name"] == "engine.chunk"}
        assert tiers == {tier}
        assert 0 < recorded.completed.sum() < 7  # both outcomes occur
        assert recorded.informed is not None and recorded.histories
        assert bare.informed is None and bare.histories == ()
        assert bare.sources == recorded.sources
        np.testing.assert_array_equal(bare.times, recorded.times)
        np.testing.assert_array_equal(bare.completed, recorded.completed)


class TestTrialEnsemble:
    def make_ensemble(self, trials=6, seed=2):
        plan = SimulationPlan(model=make_meg(), trials=trials, seed=seed)
        return run_plan(plan, backend="batched")

    def test_roundtrip_through_results(self):
        ensemble = self.make_ensemble()
        back = TrialEnsemble.from_results(ensemble.to_results())
        np.testing.assert_array_equal(ensemble.times, back.times)
        np.testing.assert_array_equal(ensemble.completed, back.completed)
        assert ensemble.sources == back.sources
        np.testing.assert_array_equal(ensemble.informed, back.informed)

    def test_summary_matches_manual(self):
        ensemble = self.make_ensemble()
        summary = ensemble.summary()
        times = ensemble.times[ensemble.completed].astype(float)
        assert summary.count == times.size
        assert summary.mean == pytest.approx(times.mean())
        assert summary.failures == ensemble.failures

    def test_failures_counted(self):
        plan = SimulationPlan(model=EdgeMEG(24, 0.01, 0.9), trials=4, seed=0,
                              max_steps=2)
        ensemble = run_plan(plan, backend="batched")
        assert ensemble.failures == int((~ensemble.completed).sum()) > 0
        assert ensemble.completion_rate() == pytest.approx(
            1.0 - ensemble.failures / 4)

    def test_to_rows(self):
        ensemble = self.make_ensemble(trials=3)
        rows = ensemble.to_rows(n=16, model="edge")
        assert len(rows) == 3
        assert rows[0]["n"] == 16 and rows[0]["model"] == "edge"
        assert rows[1]["trial"] == 1
        assert rows[2]["time"] == int(ensemble.times[2])

    def test_concatenate_validates(self):
        a = self.make_ensemble(trials=2)
        with pytest.raises(ValueError):
            TrialEnsemble.concatenate([])
        merged = TrialEnsemble.concatenate([a, a])
        assert merged.num_trials == 4

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TrialEnsemble(num_nodes=4, sources=((0,),),
                          times=np.zeros(2, dtype=np.int64),
                          completed=np.ones(1, dtype=bool))
