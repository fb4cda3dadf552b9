"""Tests for the campaign scheduler: dispatch, caching, checkpoints."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.analysis.sweep import parameter_grid
from repro.campaign import jobs as jobs_module
from repro.campaign.backend import SqliteWalBackend
from repro.campaign.jobs import DEFAULT_LEASE_TTL, JobQueue
from repro.campaign.plan import CampaignPlan, plan_experiments, plan_sweep
from repro.campaign.query import (
    campaign_rows,
    campaign_status,
    fetch_result,
    fetch_row,
    read_manifest,
)
from repro.campaign.scheduler import CampaignError, execute_unit, run_campaign
from repro.campaign.store import ResultStore
from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import run_one
from repro.obs import events
from repro.obs.events import git_sha

QUICK = ExperimentConfig(scale="quick")


def _double(point):
    return {"value": point["n"] * 2, "half_seed": point.seed % 1000}


def _explode(point):
    raise RuntimeError(f"unit {point.index} always fails")


class TestExecuteUnit:
    def test_experiment_unit_matches_run_one(self):
        plan = plan_experiments(["E1"], QUICK)
        outcome = execute_unit(dict(plan.units[0].payload))
        direct = run_one("E1", QUICK)
        assert outcome["result"] == json.loads(direct.to_json())
        assert outcome["elapsed"] > 0

    def test_unit_outcome_carries_resources(self):
        """Resources are sampled unconditionally — they feed status
        and the manifest even for untraced runs."""
        plan = plan_experiments(["E1"], QUICK)
        outcome = execute_unit(dict(plan.units[0].payload))
        assert outcome["resources"]["cpu_s"] >= 0.0
        assert outcome["resources"]["peak_rss_kb"] > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown work-unit kind"):
            execute_unit({"kind": "nope"})


class TestCampaignCaching:
    def test_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = plan_experiments(["E1", "E13"], QUICK)
        cold = run_campaign(plan, store)
        assert len(cold.computed) == 2 and not cold.fetched
        warm = run_campaign(plan, store)
        assert len(warm.fetched) == 2 and not warm.computed
        assert warm.cache_hit_rate == 1.0
        assert warm.results == cold.results

    def test_force_recomputes(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = plan_experiments(["E1"], QUICK)
        run_campaign(plan, store)
        forced = run_campaign(plan, store, force=True)
        assert len(forced.computed) == 1 and not forced.fetched

    def test_no_store_still_runs(self):
        plan = plan_experiments(["E1"], QUICK)
        report = run_campaign(plan, None)
        assert len(report.computed) == 1

    def test_store_lost_between_diff_and_submit(self, tmp_path, monkeypatch):
        """The queue's submit is the only diff against the store: a unit
        whose object vanishes just before submission is recomputed."""
        store = ResultStore(tmp_path / "s")
        plan = plan_experiments(["E1"], QUICK)
        run_campaign(plan, store)
        [unit] = plan
        real_submit = JobQueue.submit

        def submit_after_loss(self, units, submit_store, **kwargs):
            submit_store.object_path(unit.key).unlink()
            return real_submit(self, units, submit_store, **kwargs)

        monkeypatch.setattr(JobQueue, "submit", submit_after_loss)
        report = run_campaign(plan, store)
        assert report.computed == [unit.key] and not report.fetched
        assert store.get(unit.key)["result"] == report.results[unit.key]

    def test_progress_callback_sees_every_unit(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = plan_experiments(["E1", "E13"], QUICK)
        run_campaign(plan, store)
        seen = []
        run_campaign(plan, store,
                     progress=lambda done, total, unit, cached:
                     seen.append((done, total, unit.label, cached)))
        assert seen == [(1, 2, "E1", True), (2, 2, "E13", True)]

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial_store = ResultStore(tmp_path / "serial")
        parallel_store = ResultStore(tmp_path / "parallel")
        plan = plan_experiments(["E1", "E7", "E13"], QUICK)
        serial = run_campaign(plan, serial_store, jobs=1)
        parallel = run_campaign(plan, parallel_store, jobs=2)
        assert serial.results == parallel.results

    def test_manifest_written(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = plan_experiments(["E1"], QUICK)
        run_campaign(plan, store)
        manifest = read_manifest(store)
        assert manifest["units"] == {"total": 1, "fetched": 0, "computed": 1}
        assert manifest["plan"][0]["label"] == "E1"
        assert "git_rev" in manifest

    def test_manifest_carries_per_unit_resources(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = plan_experiments(["E1"], QUICK)
        run_campaign(plan, store)
        [entry] = read_manifest(store)["plan"]
        assert entry["elapsed"] > 0
        assert entry["resources"]["cpu_s"] >= 0.0
        assert entry["resources"]["peak_rss_kb"] > 0
        # Warm rerun: the fetched unit reports the ORIGINAL
        # computation's usage, read back from the store's meta.
        warm = run_campaign(plan, store)
        [warm_entry] = read_manifest(store)["plan"]
        assert warm_entry["resources"] == entry["resources"]
        key = plan.units[0].key
        assert warm.unit_resources[key] == entry["resources"]

    def test_report_collects_unit_resources(self, tmp_path):
        plan = plan_experiments(["E1", "E13"], QUICK)
        report = run_campaign(plan, ResultStore(tmp_path / "s"))
        assert set(report.unit_resources) == {u.key for u in plan}
        for res in report.unit_resources.values():
            assert res["cpu_s"] >= 0.0


def _seeded_plan(*seeds: int) -> CampaignPlan:
    units = []
    for seed in seeds:
        units.extend(plan_experiments(
            ["E1"], ExperimentConfig(scale="quick", seed=seed)))
    return CampaignPlan(tuple(units))


class TestStoreHotPath:
    """What one campaign costs the store and queue, and what a crash
    between the object publish and the index-and-complete commit
    leaves behind."""

    def test_transaction_budget(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "s")
        run_campaign(_seeded_plan(1, 2), store, jobs=1)
        calls = []
        real = vars(SqliteWalBackend)["transaction"]

        @contextmanager
        def counted(self, **kwargs):
            calls.append(kwargs)
            with real(self, **kwargs) as db:
                yield db

        monkeypatch.setattr(SqliteWalBackend, "transaction", counted)
        report = run_campaign(_seeded_plan(1, 2, 3, 4), store, jobs=1)
        assert len(report.fetched) == 2 and len(report.computed) == 2
        # reconcile, submit (receipt included), the cached-job read,
        # one lease for the first computed unit, one index-complete-
        # and-lease-next per computed unit (the last one reports the
        # campaign drained, so no empty lease or drained check follows),
        # one late-sweep read.
        assert len(calls) == 7

    def test_crash_before_index_and_complete_commit(self, tmp_path,
                                                    monkeypatch):
        store = ResultStore(tmp_path / "s")
        plan = _seeded_plan(1)
        [unit] = plan

        def crash(*args, **kwargs):
            raise RuntimeError("killed before commit")

        monkeypatch.setattr(jobs_module, "_mark_done", crash)
        with pytest.raises(RuntimeError, match="killed before commit"):
            run_campaign(plan, store, jobs=1)
        monkeypatch.undo()
        # The object was published; its index row rolled back with the
        # job's done flip, so the job is still leased.
        assert unit.key in store
        assert [row["key"] for row in store.rows()] == []
        queue = JobQueue(store.backend,
                         clock=lambda: time.time() + 2 * DEFAULT_LEASE_TTL)
        [job] = queue.jobs()
        assert job.state == "leased"
        assert store.reconcile() == (1, 0)
        assert [row["key"] for row in store.rows()] == [unit.key]
        # The lease expires; resubmission serves the unit from the store.
        assert [j.key for j in queue.reap()] == [unit.key]
        report = run_campaign(plan, store, jobs=1)
        assert report.fetched == [unit.key] and not report.computed
        [job] = queue.jobs()
        assert job.state == "done" and job.cached

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_dropped_stores_release_their_descriptors(self, tmp_path):
        """Without the cycle collector, a store that ran a campaign and
        was dropped holds no descriptor on its index (an unclosed
        connection would later checkpoint and delete the WAL under
        whoever uses the directory next)."""
        plan = plan_experiments(["E1"], QUICK)
        gc.disable()
        try:
            for i in range(3):
                store = ResultStore(tmp_path / f"s{i}")
                run_campaign(plan, store, jobs=1)
                del store
            held = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    target = os.readlink(f"/proc/self/fd/{fd}")
                except OSError:
                    continue
                if target.startswith(str(tmp_path)) and \
                        "index.sqlite" in target:
                    held.append(target)
        finally:
            gc.enable()
        assert held == []


class TestManifestProvenance:
    """The manifest's ``git_rev`` comes from the one memoised
    :func:`repro.obs.events.git_sha`, which never raises."""

    @pytest.fixture(autouse=True)
    def fresh_git_sha(self):
        # Forget the memoised SHA before and after, so each test sees
        # its own subprocess stub and leaves no stale value behind.
        git_sha.cache_clear()
        yield
        git_sha.cache_clear()

    def test_git_timeout_records_unknown(self, tmp_path, monkeypatch):
        real_run = subprocess.run

        def git_times_out(cmd, *args, **kwargs):
            if cmd[0] != "git":  # e.g. platform's uname probe
                return real_run(cmd, *args, **kwargs)
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

        monkeypatch.setattr(subprocess, "run", git_times_out)
        store = ResultStore(tmp_path / "s")
        run_campaign(plan_experiments(["E1"], QUICK), store)
        assert read_manifest(store)["git_rev"] == "unknown"

    def test_git_runs_once_per_process_from_the_package(self, monkeypatch):
        calls = []

        def fake_run(cmd, **kwargs):
            calls.append(kwargs.get("cwd"))
            return subprocess.CompletedProcess(cmd, 0, stdout="a" * 40 + "\n")

        monkeypatch.setattr(subprocess, "run", fake_run)
        assert git_sha() == "a" * 40
        assert git_sha() == "a" * 40
        assert calls == [Path(events.__file__).resolve().parent]


class TestSweepCampaigns:
    def test_rows_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = plan_sweep(_double, parameter_grid(n=[4, 8]), seed=3)
        run_campaign(plan, store)
        rows = campaign_rows(store, plan)
        assert rows == [fetch_row(store, unit) for unit in plan]
        assert [row["value"] for row in rows] == [8, 16]
        assert all(row["n"] * 2 == row["value"] for row in rows)

    def test_warm_sweep_is_all_fetches(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = plan_sweep(_double, parameter_grid(n=[4, 8]), seed=3)
        run_campaign(plan, store)
        warm = run_campaign(plan, store)
        assert len(warm.fetched) == 2 and not warm.computed


class TestQueryLayer:
    def test_fetch_result_reconstructs(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = plan_experiments(["E1"], QUICK)
        run_campaign(plan, store)
        stored = fetch_result(store, plan.units[0])
        direct = run_one("E1", QUICK)
        assert stored.experiment_id == "E1"
        assert stored.to_text() == direct.to_text()

    def test_fetch_result_requires_experiment_kind(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = plan_sweep(_double, parameter_grid(n=[4]), seed=1)
        run_campaign(plan, store)
        with pytest.raises(ValueError):
            fetch_result(store, plan.units[0])
        with pytest.raises(ValueError):
            fetch_row(store, plan_experiments(["E1"], QUICK).units[0])

    def test_missing_result_raises(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = plan_experiments(["E1"], QUICK)
        with pytest.raises(ValueError, match="run the campaign first"):
            fetch_result(store, plan.units[0])

    def test_campaign_rows_for_experiments(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = plan_experiments(["E1"], QUICK)
        run_campaign(plan, store)
        rows = campaign_rows(store, plan)
        assert rows == fetch_result(store, plan.units[0]).rows

    def test_status_table(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = plan_experiments(["E1", "E13"], QUICK)
        run_campaign(plan_experiments(["E1"], QUICK), store)
        status = campaign_status(store, plan)
        assert [row["cached"] for row in status] == [True, False]
        assert status[0]["verdict"] == "consistent"

    def test_status_table_resource_columns(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        plan = plan_experiments(["E1"], QUICK)
        run_campaign(plan, store)
        [row] = campaign_status(store, plan)
        assert row["cpu_s"] >= 0.0
        assert row["rss_mb"] > 0
        # Uncached units render blank, not zero.
        [_, missing] = campaign_status(
            store, plan_experiments(["E1", "E13"], QUICK))
        assert missing["cpu_s"] == "" and missing["rss_mb"] == ""


class TestStorelessCampaigns:
    """``store=None`` runs the queue path against a throwaway store."""

    def test_forked_workers_match_stored_serial(self, tmp_path):
        plan = plan_experiments(["E1", "E7", "E13"], QUICK)
        serial = run_campaign(plan, ResultStore(tmp_path / "s"), jobs=1)
        storeless = run_campaign(plan, None, jobs=2)
        assert storeless.results == serial.results
        assert sorted(storeless.computed) == sorted(plan.keys())
        assert not storeless.fetched

    def test_report_carries_campaign_id(self):
        report = run_campaign(plan_experiments(["E1"], QUICK), None)
        assert report.campaign_id

    def test_temporary_store_removed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        plan = plan_sweep(_double, parameter_grid(n=[4, 8]), seed=3)
        for jobs in (1, 2):
            run_campaign(plan, None, jobs=jobs)
            assert list(tmp_path.iterdir()) == []

    def test_failing_unit_raises_campaign_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        plan = plan_sweep(_explode, parameter_grid(n=[4]), seed=3)
        with pytest.raises(CampaignError, match="always fails"):
            run_campaign(plan, None)
        assert list(tmp_path.iterdir()) == []
