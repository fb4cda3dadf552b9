"""Smoke + verdict tests: every experiment runs at quick scale.

These are the regression net for the reproduction itself: each
experiment must complete, produce rows, and (for the deterministic ones)
report a *consistent* verdict at quick scale.  The stochastic shape
experiments are allowed ``informational`` but not crash.
"""

from __future__ import annotations

import pytest

from repro.analysis.records import ExperimentResult
from repro.experiments.common import ExperimentConfig
from repro.experiments.registry import all_ids
from repro.experiments.runner import run_one

QUICK = ExperimentConfig(scale="quick", seed=20090525)

#: Experiments whose quick-scale verdict must be "consistent" —
#: they verify deterministic or strongly-separated facts.
MUST_BE_CONSISTENT = {"E1", "E2", "E3", "E5", "E7", "E9", "E10", "E12", "E13", "E14", "E15"}


@pytest.mark.parametrize("experiment_id", list(all_ids()))
def test_experiment_runs_and_reports(experiment_id):
    result = run_one(experiment_id, QUICK)
    assert result.experiment_id == experiment_id
    assert result.rows, "experiment produced no table rows"
    assert result.notes, "experiment produced no notes"
    assert result.verdict in ("consistent", "inconsistent", "informational")
    if experiment_id in MUST_BE_CONSISTENT:
        assert result.verdict == "consistent", result.to_text()
    # A stored result prints exactly what the fresh one does.
    assert ExperimentResult.from_json(result.to_json()).to_text() \
        == result.to_text()


def test_text_rendering_of_all_experiments():
    for experiment_id in ("E1", "E5"):
        text = run_one(experiment_id, QUICK).to_text()
        assert "verdict" in text


def test_seed_changes_results_but_not_structure():
    a = run_one("E8", QUICK)
    b = run_one("E8", ExperimentConfig(scale="quick", seed=7))
    assert [set(r) for r in a.rows] == [set(r) for r in b.rows]


def test_same_seed_reproduces_exactly():
    a = run_one("E9", QUICK)
    b = run_one("E9", QUICK)
    assert a.rows == b.rows
