"""``--metrics``: the summary covers forked workers' events too.

The campaign scheduler forks pull workers once two or more units run
with ``--jobs 2``; their spans and lifecycle events reach the summary
only because ``--metrics`` folds the run's JSONL trace, which every
forked process appends to.
"""

from __future__ import annotations

import tempfile

from repro.campaign.cli import main as campaign_main


def _table_row(text: str, header: str, label: str) -> dict[str, str]:
    """One row of a rendered summary table, keyed by its column names
    (empty when the table has no such row)."""
    lines = text.splitlines()
    columns = next(line for line in lines if line.startswith(header)).split()
    row = next((line for line in lines if line.split()[:1] == [label]), "")
    return dict(zip(columns, row.split()))


def _run_with_metrics(tmp_path, capsys, *extra: str) -> str:
    assert campaign_main(["run", "E1", "E15", "--scale", "quick",
                          "--metrics", "--jobs", "2", "--results-dir",
                          str(tmp_path / "results"), "--quiet",
                          *extra]) == 0
    return capsys.readouterr().err


def test_metrics_sees_forked_workers(tmp_path, capsys, monkeypatch):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    err = _run_with_metrics(tmp_path, capsys)
    assert _table_row(err, "phase", "campaign.unit.run").get("count") == "2"
    assert _table_row(err, "phase", "store.put").get("count") == "2"
    lifecycle = _table_row(err, "event", "campaign.unit")
    assert lifecycle.get("checkpointed") == "2"
    assert lifecycle.get("planned") == "2"
    assert list(scratch.iterdir()) == []  # the throwaway trace is gone


def test_metrics_folds_the_trace_file(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    err = _run_with_metrics(tmp_path, capsys, "--trace", str(trace))
    assert _table_row(err, "event", "campaign.unit").get("checkpointed") == "2"
    assert "campaign.unit.run" in trace.read_text()  # kept, not removed
