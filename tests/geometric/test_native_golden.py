"""Golden pin of native geometric-MEG flooding realisations.

Native (``rng_mode="native"``) batched flooding on a geometric-MEG is
pinned to its recorded realisations: the flooding times of every trial
and a digest of every trial's source and informed history.  A change to
the native kernels that is meant to be a pure speed-up (a different
radius query, a cached sampler) must leave these exactly unchanged; a
change that alters the draw sequence or the neighbourhood rule fails
here and has to re-record them deliberately.

Last re-recorded when the native move step switched from the serial
walkers' box rejection sampler (``Lattice.step_indices``) to the
one-draw disc sampler (``Lattice.disc_step_indices``).  Both are
exactly uniform over ``Gamma(x)``, so the process law is unchanged
(``test_lattice.py`` checks the new step's law exactly), but the draw
sequence differs, and with it every native realisation.  The
stationary initialisation kept its draws; ``test_replay_golden.py``
pins the serial and replay realisations, which did not change.
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
        ("44545434453443434444445554445444",
         "44544344445454354344454555545445",
         "44444445455444454544444445454445"),
        "422612c8d10345e483bd6740fc3bf8edaecf2851cfeb61ee57a0891873366d23",
    ),
    "eps-0.5": (
        ("44444534454453534454435454355545",
         "45454345445455454355444445445445",
         "44444354443444444443454445445345"),
        "8790d0862d2438c9859b37d224d4568283cedeb962d4dba144b8725610a09f95",
    ),
    "n-1024-eps-0.5": (
        ("66767768867558999877859777677869",
         "59678576888776677857776677877767",
         "66699678777787756689867666877776"),
        "2847801290768d581a56049200e1cfb3975253861189b9ca62ba34684680a1a7",
    ),
}

#: Per configuration: (n, eps, lattice indices per axis g).  At g = 65 a
#: lattice row of the radius query spans two 64-bit words, so its word
#: carries are on the pinned path.
SHAPE = {"eps-1": (N, 1.0, 17), "eps-0.5": (N, 0.5, 33),
         "n-1024-eps-0.5": (1024, 0.5, 65)}


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_native_geometric_flooding_is_pinned(config):
    n, eps, grid_size = SHAPE[config]
    model = repro.GeometricMEG(n, 1.0, 2 * math.sqrt(math.log(n)), eps=eps)
    assert model.lattice.grid_size == grid_size
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
