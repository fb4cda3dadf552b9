"""Golden pin of the mobility models' serial, replay and native realisations.

Every Section 3 mobility model writes its kinematic law once, and both
the serial model (one trial) and the native batched kernel (a chunk of
trials) run that law.  The pins below hold each configuration of
``tests/engine/test_mobility_batch.py`` to its recorded realisations:

* serial flooding (and the batched replay backend, which must match it
  trial for trial): the flooding times of 16 trials for seeds 0, 1, 2
  and a digest of every trial's source and informed history;
* native batched flooding: the same, for the chunk-stream realisations;
* the serial positions over the first 20 steps after ``reset(11)``
  (warm-up included where the configuration asks for it).

A refactor of the kinematics that is meant to be exact has to leave
every number here unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro
from repro.dynamics import batched_dynamics_for
from repro.engine.testing import assert_results_bit_identical
from repro.mobility import (
    MobilityMEG,
    RandomDirection,
    RandomWaypoint,
    RandomWaypointTorus,
    TorusGridWalk,
)

CONFIGS = {
    "waypoint-square": lambda: MobilityMEG(
        RandomWaypoint(25, side=5.0, speed=1.0), radius=2.5),
    "waypoint-square-warmup": lambda: MobilityMEG(
        RandomWaypoint(25, side=5.0, speed=1.0), radius=2.5, warmup_steps=10),
    "waypoint-torus": lambda: MobilityMEG(
        RandomWaypointTorus(25, side=5.0, speed=1.0), radius=2.5, torus=True),
    "direction": lambda: MobilityMEG(
        RandomDirection(25, side=5.0, speed=1.0, turn_probability=0.1),
        radius=2.5),
    "torus-walk": lambda: MobilityMEG(
        TorusGridWalk(25, side=5.0, grid_size=10, move_radius=1.0),
        radius=2.5, torus=True),
}

#: Per configuration and mode: the flooding times of 16 trials for seeds
#: 0, 1, 2 (one digit per trial), then the SHA-256 of every trial's
#: source and informed history in that order.
GOLDEN = {
    "serial": {
        "waypoint-square": (
            ("2232332332232222", "2222222232222232", "2223322222222232"),
            "6cb44b36082659579a41c7aadf6ebc7af11039b66c7e798fc27557058ad817dc"),
        "waypoint-square-warmup": (
            ("2222222233222223", "2222232232222232", "2222222232221232"),
            "936b0953f61ea9e5460329a329492a6c916b74dbb5350651ff639ef08fc96a8e"),
        "waypoint-torus": (
            ("2222222222222222", "2222222222222222", "2222222222222222"),
            "217071476eb1dd6cf00ce502525ef16c6cf3006cd1f3be5a59fbe0f98db1061e"),
        "direction": (
            ("2332332343333242", "3232222233223222", "3323333332332233"),
            "c9ed09a4713392487308bcbdf6ac36c91a8c992c030399f7815f6a10cbd0dd9d"),
        "torus-walk": (
            ("2222222222222222", "2222222222222222", "2222222222222222"),
            "e2e49449a379d07cad5102006bb5d8594d60b51713e309e861bc5cd41ebba741"),
    },
    "native": {
        "waypoint-square": (
            ("2223223222232232", "2223222322223222", "2233332222223322"),
            "7d386c06d4fff1ed9c8760b3e67ae88f6582d8d85749a7f164309a7a9df00014"),
        "waypoint-square-warmup": (
            ("2222223223232232", "2222223232222222", "2322332222223222"),
            "415316fc539acfa309acf6695e849cbebc70cbfc92b16a8172451f3dbc4666e3"),
        "waypoint-torus": (
            ("2222222222222222", "2222222222222222", "2222222222222222"),
            "20491a1f856c8d863884f870f32f8fc392170a1740ac90f3b06748cd81fc48e3"),
        "direction": (
            ("3243323223333322", "2333322222223223", "2223332224233322"),
            "8cb08a7cf91faca65e8caa428b118c5dfcde3794d467df09b9062ebf9dcc6c3e"),
        "torus-walk": (
            ("2222222222222222", "2222222222222222", "2222222222222212"),
            "9e0e794fb726dae5f3321c39aab7d3b3989eb10892e54ac6c33d52aa52f41436"),
    },
}

#: SHA-256 of the model positions at times 0..19 after ``reset(11)``.
WALK_GOLDEN = {
    "waypoint-square":
        "4b15ae27a135fd815212b174e86484f33eadd439a9d5121b2cb0377d365751da",
    "waypoint-square-warmup":
        "617fdacd136268ea105e5e81b337d1cfad0c2aa38edee78a12b9ffa59be18790",
    "waypoint-torus":
        "8ab39ff5df342bc837bfe52eb5fb687796505f07564019a07d7027d4650fd228",
    "direction":
        "5f91439c1c868c5348801229aac2f022d20956be0cc0862af8a1275ef7447345",
    "torus-walk":
        "b238bbb625f5b3e23793e65785f03fad8fbe5af33221714c30447cb82c149cd4",
}


def _flood(config: str, seed: int, **engine) -> list:
    return repro.flooding_trials(CONFIGS[config](), trials=16, seed=seed,
                                 **engine)


def _assert_pinned(config: str, mode: str, runs: list) -> None:
    times, digest = GOLDEN[mode][config]
    history = hashlib.sha256()
    for seed, (results, expected) in enumerate(zip(runs, times)):
        assert "".join(str(r.time) for r in results) == expected, (
            f"seed {seed}: {mode} realisation changed")
        for r in results:
            history.update(np.asarray(r.source, dtype=np.int64).tobytes())
            history.update(np.asarray(r.informed_history,
                                      dtype=np.int64).tobytes())
    assert history.hexdigest() == digest


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_serial_and_replay_flooding_are_pinned(config):
    serial = [_flood(config, seed) for seed in range(3)]
    for seed, results in enumerate(serial):
        assert_results_bit_identical(results,
                                     _flood(config, seed, backend="batched"))
    _assert_pinned(config, "serial", serial)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_native_flooding_is_pinned(config):
    native = [_flood(config, seed, backend="batched", rng_mode="native")
              for seed in range(3)]
    _assert_pinned(config, "native", native)


@pytest.mark.parametrize("config", sorted(WALK_GOLDEN))
def test_serial_trajectory_is_pinned(config):
    meg = CONFIGS[config]()
    meg.reset(11)
    digest = hashlib.sha256()
    for _ in range(20):
        digest.update(np.ascontiguousarray(meg.model.positions()).tobytes())
        meg.step()
    assert digest.hexdigest() == WALK_GOLDEN[config]


class _DoubleStepWaypoint(RandomWaypoint):
    """A waypoint model whose own ``step`` moves twice per time step, so
    the inherited law no longer describes it."""

    def step(self) -> None:
        super().step()
        super().step()


def _double_step_meg() -> MobilityMEG:
    return MobilityMEG(_DoubleStepWaypoint(25, side=5.0, speed=1.0),
                       radius=2.5)


def test_subclass_overriding_step_is_not_native_capable():
    assert not batched_dynamics_for(_double_step_meg()).native_capable


@pytest.mark.parametrize("seed", [0, 3])
def test_subclass_overriding_step_replays_bit_identically(seed):
    serial = repro.flooding_trials(_double_step_meg(), trials=4, seed=seed)
    engine = repro.flooding_trials(_double_step_meg(), trials=4, seed=seed,
                                   backend="batched")
    assert_results_bit_identical(serial, engine)
