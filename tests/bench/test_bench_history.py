"""The perf-history store and its longitudinal drift gate.

The scenario the gate exists for is tested end to end: a case that
creeps upward across runs, each step comfortably inside the per-run
``compare`` tolerance, must fail ``history check`` once the cumulative
drift clears the rolling-median + MAD rule.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.compare import compare_results
from repro.bench.results import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    CaseResult,
    SuiteResult,
)
from repro.obs.history import (
    DEFAULT_MIN_RUNS,
    HistoryStore,
    check_drift,
    machine_id,
    render_trend,
    robust_center_scale,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")

MACHINE = {"platform": "test", "python": "3.12", "implementation": "c",
           "cpu_count": 4, "numpy": "2.0"}
OTHER_MACHINE = dict(MACHINE, platform="elsewhere")


def result(medians, *, run=0, suite="demo", machine=MACHINE,
           sha="a" * 40, tolerance=4.0) -> SuiteResult:
    """One artifact; *medians* maps case name -> median seconds."""
    cases = tuple(
        CaseResult(name=name, scale="quick", rounds=3, best_s=m * 0.95,
                   median_s=m, iqr_s=m * 0.01, speedup=None, floor=None,
                   tolerance=tolerance)
        for name, m in sorted(medians.items()))
    return SuiteResult(suite=suite, schema=SCHEMA_NAME,
                       schema_version=SCHEMA_VERSION,
                       created_at=f"2026-08-01T00:00:{run:02d}+00:00",
                       git_sha=sha, machine=machine, config={},
                       cases=cases)


@pytest.fixture()
def store(tmp_path):
    with HistoryStore(tmp_path / "history.sqlite") as s:
        yield s


class TestHistoryStore:
    def test_record_and_series(self, store):
        for run, m in enumerate([0.10, 0.11, 0.12]):
            store.record(result({"demo/a": m}, run=run))
        points = store.series("demo", "demo/a")
        assert [p["median_s"] for p in points] == [0.10, 0.11, 0.12]
        assert [p["run_id"] for p in points] == [1, 2, 3]
        assert store.case_names("demo") == ["demo/a"]

    def test_record_is_idempotent(self, store):
        artifact = result({"demo/a": 0.1})
        run_a, inserted_a = store.record(artifact)
        run_b, inserted_b = store.record(artifact)
        assert (inserted_a, inserted_b) == (True, False)
        assert run_a == run_b
        assert len(store.series("demo", "demo/a")) == 1

    def test_machines_are_separate_series(self, store):
        store.record(result({"demo/a": 0.1}, run=0))
        store.record(result({"demo/a": 9.9}, run=1, machine=OTHER_MACHINE))
        mine = store.series("demo", "demo/a",
                            machine_id=machine_id(MACHINE))
        assert [p["median_s"] for p in mine] == [0.1]
        assert sorted(store.machine_ids("demo")) == sorted(
            [machine_id(MACHINE), machine_id(OTHER_MACHINE)])

    def test_series_limit_keeps_the_tail(self, store):
        for run, m in enumerate([0.1, 0.2, 0.3, 0.4]):
            store.record(result({"demo/a": m}, run=run))
        points = store.series("demo", "demo/a", limit=2)
        assert [p["median_s"] for p in points] == [0.3, 0.4]

    def test_reopen_sees_recorded_runs(self, tmp_path):
        path = tmp_path / "h.sqlite"
        with HistoryStore(path) as store:
            store.record(result({"demo/a": 0.1}))
        with HistoryStore(path) as store:
            assert len(store.series("demo", "demo/a")) == 1

    def test_machine_id_is_stable_and_order_free(self):
        shuffled = dict(reversed(list(MACHINE.items())))
        assert machine_id(MACHINE) == machine_id(shuffled)
        assert machine_id(MACHINE) != machine_id(OTHER_MACHINE)
        assert len(machine_id(MACHINE)) == 12


class TestRobustStats:
    def test_center_is_the_median(self):
        center, _ = robust_center_scale([1.0, 2.0, 100.0])
        assert center == 2.0

    def test_flat_history_hits_the_scale_floor(self):
        center, scale = robust_center_scale([0.1] * 5)
        assert center == 0.1
        assert scale == pytest.approx(0.02 * 0.1)


class TestDriftGate:
    def test_slow_creep_fails_check_but_passes_compare(self, store):
        """The acceptance scenario: three monotonic ~8% steps, each
        inside the 4x per-run tolerance, sum to a flagged ~25% drift."""
        history = [0.100] * 5 + [0.108, 0.117]
        for run, m in enumerate(history):
            store.record(result({"demo/a": m}, run=run,
                                sha=f"{run:040x}"))
        current = result({"demo/a": 0.125}, run=len(history),
                         sha="c" * 40)

        # every per-run gate accepts each step of the creep
        for prev, cur in zip(history + [0.125], history[1:] + [0.125]):
            per_run = compare_results(result({"demo/a": cur}),
                                      result({"demo/a": prev}))
            assert per_run.ok

        report = check_drift(store, current)
        assert not report.ok
        [failure] = report.failures
        assert failure.name == "demo/a"
        assert failure.status == "drift"
        assert failure.rel == pytest.approx(0.25)
        assert failure.z > 4.0
        assert "rolling median" in failure.note

    def test_stable_history_passes(self, store):
        for run, m in enumerate([0.100, 0.101, 0.099, 0.100, 0.102]):
            store.record(result({"demo/a": m}, run=run))
        report = check_drift(store, result({"demo/a": 0.101}, run=9))
        assert report.ok
        [verdict] = report.comparisons
        assert verdict.status == "ok"

    def test_insufficient_history_never_fails(self, store):
        for run in range(DEFAULT_MIN_RUNS - 1):
            store.record(result({"demo/a": 0.1}, run=run))
        report = check_drift(store, result({"demo/a": 99.0}, run=9))
        assert report.ok
        [verdict] = report.comparisons
        assert verdict.status == "insufficient"
        assert str(DEFAULT_MIN_RUNS) in verdict.note

    def test_improvement_is_reported_not_failed(self, store):
        for run in range(5):
            store.record(result({"demo/a": 0.100}, run=run))
        report = check_drift(store, result({"demo/a": 0.050}, run=9))
        assert report.ok
        [verdict] = report.comparisons
        assert verdict.status == "improved"

    def test_loud_but_tiny_wobble_passes(self, store):
        """High z alone is not drift: the relative floor filters a
        statistically significant but practically irrelevant +5%."""
        for run in range(6):
            store.record(result({"demo/a": 0.100}, run=run))
        report = check_drift(store, result({"demo/a": 0.105}, run=9))
        assert report.ok

    def test_check_ignores_its_own_recording(self, store):
        """record-then-check equals check-then-record."""
        for run, m in enumerate([0.1] * 5):
            store.record(result({"demo/a": m}, run=run,
                                sha=f"{run:040x}"))
        current = result({"demo/a": 0.125}, run=9, sha="c" * 40)
        before = check_drift(store, current)
        store.record(current)
        after = check_drift(store, current)
        assert [c.status for c in before.comparisons] == \
            [c.status for c in after.comparisons]
        assert before.comparisons[0].n_history == \
            after.comparisons[0].n_history

    def test_other_machines_do_not_pollute_the_window(self, store):
        for run in range(5):
            store.record(result({"demo/a": 0.001}, run=run,
                                machine=OTHER_MACHINE))
        report = check_drift(store, result({"demo/a": 0.1}, run=9))
        [verdict] = report.comparisons
        assert verdict.status == "insufficient"

    def test_window_bounds_the_lookback(self, store):
        # ancient fast history, recent slow plateau: a small window
        # must judge against the plateau, not the ancient past
        medians = [0.050] * 5 + [0.100] * 6
        for run, m in enumerate(medians):
            store.record(result({"demo/a": m}, run=run))
        report = check_drift(store, result({"demo/a": 0.102}, run=20),
                             window=6)
        assert report.ok


class TestTrendRendering:
    def test_table_and_sparkline(self, store):
        for run, m in enumerate([0.100, 0.105, 0.120]):
            store.record(result({"demo/a": m}, run=run))
        out = render_trend(store, "demo")
        assert "demo/a" in out
        assert "+20%" in out
        assert "median ms per recorded run" in out  # canvas for 1 case

    def test_sparkline_is_one_char_per_run_and_visible(self, store):
        for run, m in enumerate([0.1] * 5 + [0.108, 0.117]):
            store.record(result({"demo/a": m}, run=run))
        out = render_trend(store, "demo")
        row = next(l for l in out.splitlines() if l.startswith("demo/a"))
        trend = row.split()[-1]
        assert len(trend) == 7
        assert " " not in trend

    def test_pattern_filters_cases(self, store):
        store.record(result({"demo/a": 0.1, "demo/b": 0.2}))
        out = render_trend(store, "demo", pattern="*a")
        assert "demo/a" in out and "demo/b" not in out

    def test_empty_history_reports_nothing_to_render(self, store):
        assert "no recorded history" in render_trend(store, "demo")


class TestHistoryCli:
    def _write(self, tmp_path, name, artifact):
        path = tmp_path / name
        path.write_text(artifact.to_json())
        return path

    def test_record_check_trend_round_trip(self, tmp_path, capsys):
        from repro.bench.cli import main as bench_cli

        db = tmp_path / "h.sqlite"
        for run, m in enumerate([0.1] * 5 + [0.108, 0.117]):
            path = self._write(tmp_path, f"b{run}.json",
                               result({"demo/a": m}, run=run,
                                      sha=f"{run:040x}"))
            assert bench_cli(["history", "record", str(path),
                              "--db", str(db)]) == 0
        current = self._write(tmp_path, "cur.json",
                              result({"demo/a": 0.125}, run=9,
                                     sha="c" * 40))
        assert bench_cli(["history", "check", str(current),
                          "--db", str(db)]) == 1
        captured = capsys.readouterr()
        assert "DRIFT: demo/a" in captured.err
        assert "drift" in captured.out

        assert bench_cli(["history", "trend", "demo", "--db", str(db),
                          "--machine", "all"]) == 0
        assert "demo/a" in capsys.readouterr().out

    def test_trend_into_a_closed_pipe_exits_without_a_traceback(
            self, tmp_path):
        """``history trend ... | head`` whose reader is gone: the CLI
        drops the rest of its output quietly."""
        from repro.bench.cli import main as bench_cli

        db = tmp_path / "h.sqlite"
        path = self._write(tmp_path, "b.json", result({"demo/a": 0.1}))
        assert bench_cli(["history", "record", str(path),
                          "--db", str(db)]) == 0
        reader, writer = os.pipe()
        os.close(reader)  # closed before the first line is written
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.bench", "history", "trend",
                 "demo", "--db", str(db), "--machine", "all"],
                stdout=writer, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
        finally:
            os.close(writer)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "BrokenPipeError" not in proc.stderr, proc.stderr

    def test_check_passes_and_exits_zero_on_stable_history(
            self, tmp_path, capsys):
        from repro.bench.cli import main as bench_cli

        db = tmp_path / "h.sqlite"
        for run in range(5):
            path = self._write(tmp_path, f"b{run}.json",
                               result({"demo/a": 0.1}, run=run))
            bench_cli(["history", "record", str(path), "--db", str(db)])
        current = self._write(tmp_path, "cur.json",
                              result({"demo/a": 0.101}, run=9))
        assert bench_cli(["history", "check", str(current),
                          "--db", str(db)]) == 0
        assert "within longitudinal tolerance" in capsys.readouterr().out

    def test_record_reports_idempotent_skip(self, tmp_path, capsys):
        from repro.bench.cli import main as bench_cli

        db = tmp_path / "h.sqlite"
        path = self._write(tmp_path, "b.json", result({"demo/a": 0.1}))
        bench_cli(["history", "record", str(path), "--db", str(db)])
        bench_cli(["history", "record", str(path), "--db", str(db)])
        assert "already recorded" in capsys.readouterr().out

    def test_real_artifact_from_run_records(self, tmp_path):
        """A genuine ``bench run`` artifact flows through the store."""
        from repro.bench.cli import main as bench_cli
        from repro.bench.runner import run_suite
        from repro.bench.timer import MeasureConfig

        suite = run_suite("micro", config=MeasureConfig(
            target_seconds=0.01, min_rounds=1, max_rounds=1),
            pattern="*flood*")
        artifact = self._write(tmp_path, "BENCH_micro.json", suite)
        db = tmp_path / "h.sqlite"
        assert bench_cli(["history", "record", str(artifact),
                          "--db", str(db)]) == 0
        assert bench_cli(["history", "check", str(artifact), "--db",
                          str(db), "--quiet"]) == 0  # insufficient -> ok
        with HistoryStore(db) as store:
            assert store.case_names("micro")

    def test_schema_version_mismatch_is_rejected(self, tmp_path):
        db = tmp_path / "h.sqlite"
        with HistoryStore(db):
            pass
        conn = sqlite3.connect(db)
        conn.execute("PRAGMA user_version = 99")
        conn.close()
        with pytest.raises(ValueError, match="schema v99"):
            HistoryStore(db)

    def test_record_leaves_no_wal_files(self, tmp_path):
        """CI caches the db path alone, so ``record`` must leave the
        whole history in that one file."""
        from repro.bench.cli import main as bench_cli

        db = tmp_path / "hist" / "history.sqlite"
        path = self._write(tmp_path, "b.json", result({"demo/a": 0.1}))
        assert bench_cli(["history", "record", str(path),
                          "--db", str(db)]) == 0
        assert sorted(p.name for p in db.parent.iterdir()) == \
            ["history.sqlite"]
        with HistoryStore(db) as store:
            assert len(store.series("demo", "demo/a")) == 1


#: The schema and version row a history db carried before the store
#: moved onto the migration chain (user_version 0, rollback journal).
LEGACY_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    suite TEXT NOT NULL,
    git_sha TEXT,
    machine_id TEXT NOT NULL,
    machine TEXT NOT NULL,
    created_at TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    UNIQUE (suite, git_sha, machine_id, created_at)
);
CREATE TABLE IF NOT EXISTS cases (
    run_id INTEGER NOT NULL REFERENCES runs(id),
    name TEXT NOT NULL,
    scale TEXT,
    rounds INTEGER,
    best_s REAL NOT NULL,
    median_s REAL NOT NULL,
    iqr_s REAL,
    speedup REAL,
    floor REAL,
    tolerance REAL,
    PRIMARY KEY (run_id, name)
);
CREATE INDEX IF NOT EXISTS idx_cases_name ON cases (name);
INSERT OR IGNORE INTO meta (key, value)
    VALUES ('history_schema_version', '1');
"""


def _legacy_db(path, artifacts) -> None:
    """A history db as the pre-chain store wrote it."""
    conn = sqlite3.connect(path)
    conn.executescript(LEGACY_DDL)
    for artifact in artifacts:
        cursor = conn.execute(
            "INSERT INTO runs (suite, git_sha, machine_id, machine, "
            "created_at, schema_version) VALUES (?, ?, ?, ?, ?, ?)",
            (artifact.suite, artifact.git_sha, machine_id(artifact.machine),
             json.dumps(dict(artifact.machine), sort_keys=True),
             artifact.created_at, artifact.schema_version))
        conn.executemany(
            "INSERT INTO cases (run_id, name, scale, rounds, best_s, "
            "median_s, iqr_s, speedup, floor, tolerance) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [(cursor.lastrowid, c.name, c.scale, c.rounds, c.best_s,
              c.median_s, c.iqr_s, c.speedup, c.floor, c.tolerance)
             for c in artifact.cases])
    conn.commit()
    conn.close()


class TestLegacyHistoryDb:
    def test_pre_chain_db_upgrades_in_place(self, tmp_path):
        creep = [0.1] * 5 + [0.108, 0.117]
        artifacts = [result({"demo/a": m, "demo/b": 0.2}, run=run,
                            sha=f"{run:040x}")
                     for run, m in enumerate(creep)]
        legacy, fresh = tmp_path / "legacy.sqlite", tmp_path / "fresh.sqlite"
        _legacy_db(legacy, artifacts)
        with HistoryStore(fresh) as store:
            for artifact in artifacts:
                store.record(artifact)

        current = result({"demo/a": 0.125, "demo/b": 0.2}, run=9,
                         sha="c" * 40)
        with HistoryStore(legacy) as store, \
                HistoryStore(fresh) as reference:
            assert store.backend.schema_version() == 1
            for name in ("demo/a", "demo/b"):
                assert store.series("demo", name) == \
                    reference.series("demo", name)
            # Every legacy run is already there: re-recording is a no-op.
            assert [store.record(a) for a in artifacts] == \
                [(run_id, False) for run_id in range(1, len(creep) + 1)]
            verdicts = check_drift(store, current)
            assert verdicts == check_drift(reference, current)
        assert [c.status for c in verdicts.comparisons] == ["drift", "ok"]
