"""Golden pin of E1's and E15's result tables.

E1 certifies Lemma 2.4 with an exact expansion ladder and the flooding
time maximised over every source; E15 measures the exact snapshot
diameter of the moving-hub adversary.  Both are deterministic, so each
table is pinned as the SHA-256 of ``ExperimentResult.to_json()`` at
quick and standard scale for seeds 0, 1 and 2.  A rewrite of the exact
kernels behind them (subset enumeration, all-sources flooding, the
all-pairs BFS) that is meant to be exact has to leave every digest
unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.registry import load_experiment

#: Per experiment and scale: the digest of ``to_json()``.  The seed is
#: part of the pinned configuration even though neither experiment
#: draws from it.
GOLDEN = {
    ("E1", "quick"):
        "66aab648669e00c491fcb1929ca5124234a536c83c22bfc6ba9a9387f6f48ca0",
    ("E1", "standard"):
        "fac899ea5e80a34d59dbf3e8df68a9ac9633a9a39e6f34ec661d3b468f36922c",
    ("E15", "quick"):
        "ece10696b94042cdd63ab73c946885f5edd7d9a894dcf488fdff82fdeb4eecb7",
    ("E15", "standard"):
        "185b67f9977d2fe692ad22c5d4660348c8598e16eb96ab82d197c4e9c43ce0d3",
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("experiment,scale", sorted(GOLDEN))
def test_result_table_digest(experiment, scale, seed):
    result = load_experiment(experiment).run(
        ExperimentConfig(seed=seed, scale=scale))
    digest = hashlib.sha256(result.to_json().encode()).hexdigest()
    assert digest == GOLDEN[experiment, scale]
