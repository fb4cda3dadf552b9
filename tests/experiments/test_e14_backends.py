"""E14 on every backend: one table, and the flooding rows are pinned.

E14 couples the graph realisation across protocols trial by trial, which
needs the per-trial replay layout, so it runs replay on every backend:
``serial``, ``batched`` and ``native`` must print the same table.  Its
flooding, probabilistic and parsimonious rows are pinned to the values
the experiment produced before it moved onto the registry protocols
(those three protocols kept their draws; only the gossip rows changed).
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.registry import load_experiment

#: (model, protocol) -> (completion_rate, mean_time) at quick scale and
#: the default seed.
PINNED_ROWS = {
    ("edge-MEG(n=128)", "flooding"): (1.0, 2.0),
    ("edge-MEG(n=128)", "probabilistic f=0.5"): (1.0, 2.67),
    ("edge-MEG(n=128)", "parsimonious k=2"): (1.0, 2.0),
    ("geometric-MEG(n=128)", "flooding"): (1.0, 3.0),
    ("geometric-MEG(n=128)", "probabilistic f=0.5"): (1.0, 5.0),
    ("geometric-MEG(n=128)", "parsimonious k=2"): (1.0, 3.0),
}


@pytest.fixture(scope="module")
def tables():
    module = load_experiment("E14")
    return {backend: module.run(ExperimentConfig(scale="quick",
                                                 backend=backend))
            for backend in ("serial", "batched", "native")}


def test_every_backend_prints_the_same_table(tables):
    serial = tables["serial"]
    for backend, result in tables.items():
        assert result.verdict == "consistent", backend
        assert result.rows == serial.rows, backend
        assert result.notes == serial.notes, backend


def test_flooding_rows_are_pinned(tables):
    rows = {(row["model"], row["protocol"]):
            (row["completion_rate"], row["mean_time"])
            for row in tables["serial"].rows}
    for key, want in PINNED_ROWS.items():
        assert rows[key] == want, key
