"""Golden pin of serial/replay geometric-MEG realisations.

Serial flooding on a geometric-MEG, and the batched replay backend that
must match it trial for trial, are pinned to recorded realisations: the
flooding times of every trial and a digest of every trial's source and
informed history, plus a digest of one walker population's positions
over its first steps.  The stationary initialisation
(``Lattice.sample_stationary_indices``) and the serial walker step
(``Lattice.step_indices``, box rejection sampling) are the two draw
sequences behind these numbers, so a speed-up of either that is meant
to be exact has to leave them unchanged.  The native kernels' own pin
is ``test_native_golden.py``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

import repro

N = 256

#: Per configuration: the flooding times of 16 trials for seeds 0, 1, 2
#: (one digit per trial), then the SHA-256 of every trial's source and
#: informed history in that order.
GOLDEN = {
    "eps-1": (
        ("4535333445535444", "4454444443444545", "4554555334454553"),
        "9b38868d85ef69199a02980af4428c799a8a8018b7516be2479a2b58e492a078",
    ),
    "eps-0.5": (
        ("4445433445534454", "4454434453444544", "5445454444454543"),
        "c828df22fb9a2dc3386aa8a82ca4e11ed6e701e146c1bdb3108d20d8e6d7359a",
    ),
}

#: SHA-256 of the walker positions at times 0..7 after ``reset(11)``.
WALK_GOLDEN = {
    "eps-1": "8541c35b4d3f77f5fb5659835a536ef1799525c7b726c94f927eb1f489a1f0cf",
    "eps-0.5": "c1052470cb43172afc0e24a6c4bec81ed6c240b96d54e146635ecd087df16924",
}

EPS = {"eps-1": 1.0, "eps-0.5": 0.5}


def _model(config: str) -> repro.GeometricMEG:
    return repro.GeometricMEG(N, 1.0, 2 * math.sqrt(math.log(N)),
                              eps=EPS[config])


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_serial_and_replay_flooding_are_pinned(config):
    model = _model(config)
    times, digest = GOLDEN[config]
    history = hashlib.sha256()
    for seed, expected in enumerate(times):
        serial = repro.flooding_trials(model, trials=16, seed=seed,
                                       backend="serial")
        replay = repro.flooding_trials(model, trials=16, seed=seed,
                                       backend="batched", rng_mode="replay")
        assert all(r.completed for r in serial)
        assert "".join(str(r.time) for r in serial) == expected, (
            f"seed {seed}: serial realisation changed")
        assert [r.time for r in replay] == [r.time for r in serial]
        for r, twin in zip(serial, replay):
            np.testing.assert_array_equal(twin.informed_history,
                                          r.informed_history)
            history.update(np.asarray(r.source, dtype=np.int64).tobytes())
            history.update(np.asarray(r.informed_history,
                                      dtype=np.int64).tobytes())
    assert history.hexdigest() == digest


@pytest.mark.parametrize("config", sorted(WALK_GOLDEN))
def test_walker_trajectory_is_pinned(config):
    model = _model(config)
    model.reset(11)
    digest = hashlib.sha256()
    for _ in range(8):
        digest.update(np.ascontiguousarray(model.walkers.positions()).tobytes())
        model.step()
    assert digest.hexdigest() == WALK_GOLDEN[config]
