"""``import repro`` loads numpy and the stdlib only.

scipy loads on the first k-d-tree query (the replay geometric path and
the mobility fallbacks) and networkx on ``to_networkx``.  Each check
runs in a fresh interpreter, since this test process has long since
imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

_STAGES = r"""
import importlib, json, math, sys

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "networkx"))

stages = {}
import repro
for name in ("bench", "campaign", "engine", "experiments", "obs",
             "protocols", "service"):
    importlib.import_module("repro." + name)
from repro.experiments.registry import EXPERIMENTS
for module, _ in EXPERIMENTS.values():
    importlib.import_module(module)
stages["import"] = heavy()

n = 1024
repro.flooding_trials(repro.GeometricMEG(n, 1.0, 2 * math.sqrt(math.log(n))),
                      trials=2, seed=1, backend="batched", rng_mode="native")
p_hat = 2 * math.log(n) / n
repro.flooding_trials(repro.EdgeMEG(n, p_hat * 0.5 / (1 - p_hat), 0.5),
                      trials=2, seed=1, backend="batched", rng_mode="native")
from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import run_one
for experiment in ("E1", "E15"):
    run_one(experiment, ExperimentConfig(scale="quick"))
stages["native"] = heavy()

repro.flooding_trials(repro.GeometricMEG(64, 1.0, 2.0), trials=1, seed=1)
stages["replay"] = heavy()

import numpy as np
from repro.geometric.neighbors import (brute_force_within_radius,
                                       within_radius_of_members)
rng = np.random.default_rng(0)
positions = rng.uniform(0.0, 10.0, size=(200, 2))
members = rng.random(200) < 0.2
stages["equal"] = all(
    np.array_equal(within_radius_of_members(positions, members, 1.5,
                                            boxsize=box),
                   brute_force_within_radius(positions, members, 1.5,
                                             boxsize=box))
    for box in (None, 10.0))
print(json.dumps(stages))
"""


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": SRC})


def test_scipy_loads_on_the_first_kd_tree_query():
    proc = _run(["-c", _STAGES])
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.splitlines()[-1])
    assert stages["import"] == []
    assert stages["native"] == []
    assert "scipy.spatial" in stages["replay"]
    assert not any(m.startswith("networkx") for m in stages["replay"])
    assert stages["equal"] is True


@pytest.mark.parametrize("argv", [
    ["-m", "repro.obs", "--help"],
    ["-m", "repro.bench", "list"],
    ["-m", "repro.campaign", "--help"],
    ["-m", "repro.experiments", "--help"],
])
def test_cli_entry_points_start_without_scipy(argv):
    proc = _run(["-X", "importtime", *argv])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "import time:" in proc.stderr
    assert [line for line in proc.stderr.splitlines()
            if "scipy" in line] == []
