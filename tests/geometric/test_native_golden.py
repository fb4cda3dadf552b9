"""Golden pin of native geometric-MEG flooding realisations.

Native (``rng_mode="native"``) batched flooding on a geometric-MEG is
pinned to its recorded realisations: the flooding times of every trial
and a digest of every trial's source and informed history.  A change to
the native kernels that is meant to be a pure speed-up (a different
radius query, a cached sampler) must leave these exactly unchanged; a
change that alters the draw sequence or the neighbourhood rule fails
here and has to re-record them deliberately.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

import repro

N = 256

#: Per configuration: the flooding times of 32 trials for seeds 0, 1, 2
#: (one digit per trial), then the SHA-256 of every trial's source and
#: informed history in that order.
GOLDEN = {
    "eps-1": (
        ("44544434453443434454445554445444",
         "44544344435454454354454455545445",
         "34444444444445444554444455454345"),
        "f72dc457131ba9e338efa832ff76593933d58d3dcbf0e9b935947239cafbe52e",
    ),
    "eps-0.5": (
        ("44444534454443534455535454355545",
         "45445335455455454355454444445445",
         "44444354443444444444444445445445"),
        "4c7a5a2a4917419bbeeab747e0ad01f4ac839fa05b8d96ef81b88b5a07d0f67f",
    ),
}

EPS = {"eps-1": 1.0, "eps-0.5": 0.5}


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_native_geometric_flooding_is_pinned(config):
    model = repro.GeometricMEG(N, 1.0, 2 * math.sqrt(math.log(N)),
                               eps=EPS[config])
    times, digest = GOLDEN[config]
    history = hashlib.sha256()
    for seed, expected in enumerate(times):
        results = repro.flooding_trials(model, trials=32, seed=seed,
                                        backend="batched", rng_mode="native")
        assert all(r.completed for r in results)
        assert "".join(str(r.time) for r in results) == expected, (
            f"seed {seed}: native realisation changed")
        for r in results:
            history.update(np.asarray(r.source, dtype=np.int64).tobytes())
            history.update(np.asarray(r.informed_history,
                                      dtype=np.int64).tobytes())
    assert history.hexdigest() == digest
