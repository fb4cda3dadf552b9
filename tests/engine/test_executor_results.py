"""Tests for the plan executor and the TrialEnsemble result type."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.flooding import flooding_trials
from repro.edgemeg.meg import EdgeMEG
from repro.engine import SimulationPlan, TrialEnsemble, run_plan


def make_meg():
    return EdgeMEG(16, 0.3, 0.3)


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
