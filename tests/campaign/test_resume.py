"""Crash-resume: a killed campaign, resumed, must reproduce the
uninterrupted run bit-for-bit.

Interruption is simulated two ways: by deleting stored objects after a
completed run (what a SIGKILL between checkpoints leaves behind) and by
actually SIGKILLing a subprocess mid-campaign.  In both cases resuming
recomputes exactly the missing keys, and the deterministic ``result``
sections — and the rendered tables — are byte-identical to a run that
was never interrupted.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.sweep import parameter_grid
from repro.campaign.plan import plan_experiments, plan_sweep
from repro.campaign.query import campaign_rows, fetch_result
from repro.campaign.scheduler import run_campaign
from repro.campaign.store import ResultStore
from repro.experiments.common import ExperimentConfig

QUICK = ExperimentConfig(scale="quick")
IDS = ["E1", "E7", "E13"]

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _result_bytes(store: ResultStore, plan) -> list[str]:
    """The canonical bytes of every deterministic result section."""
    return [json.dumps(store.get_result(unit.key), sort_keys=True)
            for unit in plan]


def _slow_point(point):
    time.sleep(0.05)
    return {"value": point["n"] * 3, "tag": point.seed % 7}


class TestTruncatedStoreResume:
    def test_experiment_campaign_resumes_bit_for_bit(self, tmp_path):
        plan = plan_experiments(IDS, QUICK)

        uninterrupted = ResultStore(tmp_path / "clean")
        run_campaign(plan, uninterrupted)
        expected = _result_bytes(uninterrupted, plan)

        crashed = ResultStore(tmp_path / "crashed")
        run_campaign(plan, crashed)
        # Kill the tail of the store: what a SIGKILL mid-campaign leaves.
        for unit in plan.units[1:]:
            crashed.delete(unit.key)
        assert len(crashed) == 1

        resumed = run_campaign(plan, crashed)
        assert sorted(resumed.fetched) == sorted([plan.units[0].key])
        assert len(resumed.computed) == 2
        assert _result_bytes(crashed, plan) == expected
        # And the rendered tables match too.
        assert [fetch_result(crashed, u).to_text() for u in plan] == \
               [fetch_result(uninterrupted, u).to_text() for u in plan]

    def test_sweep_campaign_resumes_bit_for_bit(self, tmp_path):
        grid = parameter_grid(n=[2, 4, 8, 16])
        plan = plan_sweep(_slow_point, grid, seed=5, sweep_id="resume-sweep")

        clean = ResultStore(tmp_path / "clean")
        run_campaign(plan, clean)

        crashed = ResultStore(tmp_path / "crashed")
        run_campaign(plan, crashed)
        for unit in list(plan.units)[::2]:  # holes, not just a tail
            crashed.delete(unit.key)

        run_campaign(plan, crashed)
        assert _result_bytes(crashed, plan) == _result_bytes(clean, plan)
        assert campaign_rows(crashed, plan) == campaign_rows(clean, plan)

    def test_unindexed_objects_survive_resume(self, tmp_path):
        """A crash between object publish and index insert loses nothing."""
        plan = plan_experiments(IDS, QUICK)
        store = ResultStore(tmp_path / "s")
        run_campaign(plan, store)
        # Wipe the index, keep the objects.
        with store.backend.transaction() as db:
            db.execute("DELETE FROM units")
        resumed = run_campaign(plan, store)
        assert len(resumed.fetched) == len(IDS)
        assert not resumed.computed


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
class TestSigkillResume:
    def test_killed_subprocess_campaign_resumes(self, tmp_path):
        results_dir = tmp_path / "killed"
        argv = [sys.executable, "-m", "repro.campaign", "run", *IDS,
                "--results-dir", str(results_dir), "--scale", "quick",
                "--jobs", "1"]
        env = {**os.environ, "PYTHONPATH": SRC}

        # Start the campaign and SIGKILL it as soon as the first unit is
        # checkpointed (progress lines go to stderr as units land).
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                line = proc.stderr.readline()
                if "computed" in line or proc.poll() is not None:
                    break
            proc.kill()
        finally:
            proc.wait(timeout=60)

        store = ResultStore(results_dir)
        plan = plan_experiments(IDS, QUICK)
        survivors = len([u for u in plan if u.key in store])
        if survivors == len(IDS):  # lost the race: it finished first
            pytest.skip("campaign completed before SIGKILL landed")

        resumed = run_campaign(plan, store)
        assert len(resumed.fetched) == survivors

        clean = ResultStore(tmp_path / "clean")
        run_campaign(plan, clean)
        assert _result_bytes(store, plan) == _result_bytes(clean, plan)
