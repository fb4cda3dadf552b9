"""Golden realisations of every protocol on every model family.

Flooding and the five zoo protocols run on the five model families of
``tests/protocols/test_protocol_engine.py``, three trials per seed for
seeds 0-2 with random sources, once serially (the replay layout every
replay backend reproduces) and once through the native batched engine.
Each run is pinned to ``(times, digest)``: the per-trial spreading
times and a SHA-256 prefix over every trial's source, completion flag,
informed history and final informed mask.

A change to any protocol's draw schedule, update order or stall rule,
on either stream layout, fails here and has to re-record the pins
deliberately.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.edgemeg.independent import IndependentDynamicGraph
from repro.edgemeg.meg import EdgeMEG
from repro.edgemeg.sparse import SparseEdgeMEG
from repro.geometric.meg import GeometricMEG
from repro.mobility import MobilityMEG, RandomWaypointTorus
from repro.protocols import (
    FLOODING,
    ExpiringFlooding,
    ProbabilisticFlooding,
    PullGossip,
    PushGossip,
    PushPullGossip,
    spreading_trials,
)

MODELS = {
    "edge-dense": lambda: EdgeMEG(24, 0.3, 0.3),
    "sparse-edge": lambda: SparseEdgeMEG(30, 0.05, 0.4),
    "geometric": lambda: GeometricMEG(30, move_radius=1.0, radius=3.0),
    "mobility-waypoint": lambda: MobilityMEG(
        RandomWaypointTorus(25, side=5.0, speed=1.0), radius=2.5, torus=True),
    "generic-fallback": lambda: IndependentDynamicGraph(20, 0.15),
}

PROTOCOLS = {
    "flooding": FLOODING,
    "p-flood": ProbabilisticFlooding(0.5),
    "expiring": ExpiringFlooding(2),
    "push": PushGossip(),
    "pull": PullGossip(),
    "push-pull": PushPullGossip(),
}

SEEDS = (0, 1, 2)
TRIALS = 3


def run(factory, protocol, seed: int, mode: str):
    kwargs = {} if mode == "serial" else dict(backend="batched",
                                             rng_mode="native")
    return spreading_trials(protocol, factory(), trials=TRIALS, seed=seed,
                            **kwargs)


def run_digest(results) -> tuple[tuple[int, ...], str]:
    """``(times, digest)`` of one ensemble, digest as a 16-hex prefix."""
    digest = hashlib.sha256()
    for res in results:
        digest.update(np.asarray(res.source, dtype=np.int64).tobytes())
        digest.update(bytes([res.completed]))
        digest.update(np.asarray(res.informed_history,
                                 dtype=np.int64).tobytes())
        digest.update(np.asarray(res.informed, dtype=bool).tobytes())
    return tuple(int(res.time) for res in results), digest.hexdigest()[:16]


#: ``(model, protocol, mode, seed) -> (times, digest)``.
GOLDEN = {
    ('edge-dense', 'expiring', 'native', 0): ((2, 2, 2), '4f0ac56c9a7ad290'),
    ('edge-dense', 'expiring', 'native', 1): ((2, 2, 2), '045b1f3b2f87f048'),
    ('edge-dense', 'expiring', 'native', 2): ((2, 2, 2), 'c654f8792d0344f3'),
    ('edge-dense', 'expiring', 'serial', 0): ((2, 2, 2), 'abf0a33e586f02e2'),
    ('edge-dense', 'expiring', 'serial', 1): ((2, 2, 2), '9f51601a4f83f952'),
    ('edge-dense', 'expiring', 'serial', 2): ((2, 2, 2), '11d69b07b9673c41'),
    ('edge-dense', 'flooding', 'native', 0): ((2, 2, 2), 'aa91c795a62b41d0'),
    ('edge-dense', 'flooding', 'native', 1): ((2, 2, 2), 'e639cfd9e6663e60'),
    ('edge-dense', 'flooding', 'native', 2): ((2, 2, 2), '0d99cfce989c6e79'),
    ('edge-dense', 'flooding', 'serial', 0): ((2, 2, 2), '376389071278608b'),
    ('edge-dense', 'flooding', 'serial', 1): ((2, 2, 2), '3100eaabc7c86290'),
    ('edge-dense', 'flooding', 'serial', 2): ((2, 2, 2), '3d1744bc36f2d014'),
    ('edge-dense', 'p-flood', 'native', 0): ((2, 3, 2), '20bcd88d45ab02ae'),
    ('edge-dense', 'p-flood', 'native', 1): ((2, 2, 3), '884ab3da2620bad6'),
    ('edge-dense', 'p-flood', 'native', 2): ((6, 4, 3), 'ea64206f520854ff'),
    ('edge-dense', 'p-flood', 'serial', 0): ((2, 3, 2), '7cc0684b4fbb5644'),
    ('edge-dense', 'p-flood', 'serial', 1): ((4, 4, 2), '9f4c22f0a7c3b2ff'),
    ('edge-dense', 'p-flood', 'serial', 2): ((2, 3, 2), 'e26748d852179d1b'),
    ('edge-dense', 'pull', 'native', 0): ((6, 8, 6), 'aa5f540cda6ef7c5'),
    ('edge-dense', 'pull', 'native', 1): ((7, 6, 7), '8d7b421f897b393d'),
    ('edge-dense', 'pull', 'native', 2): ((6, 6, 7), '20b6b5706a757a5c'),
    ('edge-dense', 'pull', 'serial', 0): ((8, 7, 8), '42433856fdd05155'),
    ('edge-dense', 'pull', 'serial', 1): ((7, 5, 7), '14b20e4909150b00'),
    ('edge-dense', 'pull', 'serial', 2): ((6, 7, 7), 'ee39a0f8d8f084b6'),
    ('edge-dense', 'push', 'native', 0): ((10, 10, 8), '8f897c7e5165eca2'),
    ('edge-dense', 'push', 'native', 1): ((7, 7, 9), '893f1ce59a35747c'),
    ('edge-dense', 'push', 'native', 2): ((7, 9, 9), '7cc79ffa2d9c1e6f'),
    ('edge-dense', 'push', 'serial', 0): ((9, 8, 8), '74d702469184616e'),
    ('edge-dense', 'push', 'serial', 1): ((10, 8, 6), '86881380b2aaaa92'),
    ('edge-dense', 'push', 'serial', 2): ((7, 9, 10), '1991489b580c45bf'),
    ('edge-dense', 'push-pull', 'native', 0): ((4, 5, 4), '0bfd48af14fe4f84'),
    ('edge-dense', 'push-pull', 'native', 1): ((4, 5, 5), 'd65395d3d505e193'),
    ('edge-dense', 'push-pull', 'native', 2): ((5, 4, 6), '8a213e806e2f8982'),
    ('edge-dense', 'push-pull', 'serial', 0): ((4, 4, 5), 'eb6b7a256e9d7a27'),
    ('edge-dense', 'push-pull', 'serial', 1): ((4, 5, 4), '03235b11bc93b3ec'),
    ('edge-dense', 'push-pull', 'serial', 2): ((5, 6, 4), '70b2ceb6cfc840a7'),
    ('generic-fallback', 'expiring', 'native', 0): ((5, 4, 4), 'abeefb75f5a64c55'),
    ('generic-fallback', 'expiring', 'native', 1): ((3, 4, 4), '13ecbe7cf614ef66'),
    ('generic-fallback', 'expiring', 'native', 2): ((4, 4, 5), '9e15668c2e22d459'),
    ('generic-fallback', 'expiring', 'serial', 0): ((4, 4, 3), 'b6f4f5e7384e08ed'),
    ('generic-fallback', 'expiring', 'serial', 1): ((5, 4, 4), '09bf0d06d121d766'),
    ('generic-fallback', 'expiring', 'serial', 2): ((5, 3, 4), 'b5ab5cc8c889bf27'),
    ('generic-fallback', 'flooding', 'native', 0): ((4, 4, 4), '960d678c2f69fed6'),
    ('generic-fallback', 'flooding', 'native', 1): ((3, 4, 4), '13ecbe7cf614ef66'),
    ('generic-fallback', 'flooding', 'native', 2): ((4, 4, 5), '39581288f686d58a'),
    ('generic-fallback', 'flooding', 'serial', 0): ((4, 4, 3), '6be68aba99678621'),
    ('generic-fallback', 'flooding', 'serial', 1): ((4, 4, 4), '60215b772515537d'),
    ('generic-fallback', 'flooding', 'serial', 2): ((3, 3, 4), '1a1046cd51f7dcf9'),
    ('generic-fallback', 'p-flood', 'native', 0): ((6, 6, 6), '750a57b22e8cece5'),
    ('generic-fallback', 'p-flood', 'native', 1): ((6, 10, 4), 'cbe81bf1c0683f98'),
    ('generic-fallback', 'p-flood', 'native', 2): ((9, 9, 7), 'a4a2373356baa260'),
    ('generic-fallback', 'p-flood', 'serial', 0): ((5, 8, 6), 'd47fd00135f013a5'),
    ('generic-fallback', 'p-flood', 'serial', 1): ((6, 6, 8), 'c23d723cc0d5f1d3'),
    ('generic-fallback', 'p-flood', 'serial', 2): ((11, 7, 6), '3da9678aa306abe5'),
    ('generic-fallback', 'pull', 'native', 0): ((8, 7, 7), 'e4f290ec10336c89'),
    ('generic-fallback', 'pull', 'native', 1): ((7, 7, 8), 'f865dc79fc574a04'),
    ('generic-fallback', 'pull', 'native', 2): ((7, 7, 8), '8c2a9bc5ac42ee2d'),
    ('generic-fallback', 'pull', 'serial', 0): ((7, 7, 8), '2495d6d141e59fa2'),
    ('generic-fallback', 'pull', 'serial', 1): ((7, 11, 6), '5cd6e7d3f487475a'),
    ('generic-fallback', 'pull', 'serial', 2): ((7, 4, 9), '01d7e0aa85abf5db'),
    ('generic-fallback', 'push', 'native', 0): ((11, 8, 9), 'ac38c0aabc67a59a'),
    ('generic-fallback', 'push', 'native', 1): ((7, 10, 8), '45e7ebd80cbad647'),
    ('generic-fallback', 'push', 'native', 2): ((7, 8, 8), '6b1177ca1859881a'),
    ('generic-fallback', 'push', 'serial', 0): ((9, 8, 9), '23798535e070c5e1'),
    ('generic-fallback', 'push', 'serial', 1): ((8, 6, 10), '9725a8600866cf26'),
    ('generic-fallback', 'push', 'serial', 2): ((7, 8, 8), 'fb008cc18905b5a0'),
    ('generic-fallback', 'push-pull', 'native', 0): ((5, 5, 5), '127c3c2cdb768bcb'),
    ('generic-fallback', 'push-pull', 'native', 1): ((4, 4, 6), '76b242811ce5d0d2'),
    ('generic-fallback', 'push-pull', 'native', 2): ((5, 5, 6), '3fd106b2e5abf293'),
    ('generic-fallback', 'push-pull', 'serial', 0): ((6, 6, 4), 'c4da53a9d18a0c4e'),
    ('generic-fallback', 'push-pull', 'serial', 1): ((5, 5, 5), 'ca88f6b74084ed06'),
    ('generic-fallback', 'push-pull', 'serial', 2): ((5, 4, 5), 'd4ced8547f4aac22'),
    ('geometric', 'expiring', 'native', 0): ((2, 3, 2), '2d8bc39267dc1a7b'),
    ('geometric', 'expiring', 'native', 1): ((2, 2, 3), 'd8120b0fe1bbbece'),
    ('geometric', 'expiring', 'native', 2): ((2, 2, 2), 'f017c3fd40a0ea4c'),
    ('geometric', 'expiring', 'serial', 0): ((2, 2, 3), 'ee5e6e5a6f2a1182'),
    ('geometric', 'expiring', 'serial', 1): ((3, 2, 2), '985844540882a0aa'),
    ('geometric', 'expiring', 'serial', 2): ((2, 3, 2), 'b64f02c43d9c149a'),
    ('geometric', 'flooding', 'native', 0): ((2, 3, 2), '2d8bc39267dc1a7b'),
    ('geometric', 'flooding', 'native', 1): ((2, 2, 3), 'd8120b0fe1bbbece'),
    ('geometric', 'flooding', 'native', 2): ((2, 2, 2), 'f017c3fd40a0ea4c'),
    ('geometric', 'flooding', 'serial', 0): ((2, 2, 2), '2101431eb856f00b'),
    ('geometric', 'flooding', 'serial', 1): ((3, 2, 2), 'ecec76dd90907a18'),
    ('geometric', 'flooding', 'serial', 2): ((2, 2, 2), '04b6a89b33511461'),
    ('geometric', 'p-flood', 'native', 0): ((2, 3, 3), '2b68fe8286fba4af'),
    ('geometric', 'p-flood', 'native', 1): ((2, 5, 5), 'd7a9e29bad52b064'),
    ('geometric', 'p-flood', 'native', 2): ((3, 2, 9), '2abc4a5b7e6a4a86'),
    ('geometric', 'p-flood', 'serial', 0): ((2, 6, 3), '89336bcb0761c3dd'),
    ('geometric', 'p-flood', 'serial', 1): ((3, 2, 9), '8e136f6ca89c5717'),
    ('geometric', 'p-flood', 'serial', 2): ((3, 4, 6), '1f49729014528b8d'),
    ('geometric', 'pull', 'native', 0): ((8, 14, 7), 'f59e48f86e74bbf8'),
    ('geometric', 'pull', 'native', 1): ((8, 7, 9), 'aa72401c4875a6a4'),
    ('geometric', 'pull', 'native', 2): ((9, 9, 8), '5565371d93ced0a3'),
    ('geometric', 'pull', 'serial', 0): ((7, 6, 8), '9127fc34d2f83b01'),
    ('geometric', 'pull', 'serial', 1): ((8, 10, 7), '928aa6cbac282135'),
    ('geometric', 'pull', 'serial', 2): ((12, 7, 7), '4d2e275c5bb07e05'),
    ('geometric', 'push', 'native', 0): ((7, 9, 13), 'eb98fdf69d02bccf'),
    ('geometric', 'push', 'native', 1): ((8, 11, 11), 'f13e044571696486'),
    ('geometric', 'push', 'native', 2): ((9, 11, 8), 'eef6f450f01aff15'),
    ('geometric', 'push', 'serial', 0): ((9, 12, 8), 'c20502a9b87f317e'),
    ('geometric', 'push', 'serial', 1): ((10, 11, 11), '346e8c464cd87159'),
    ('geometric', 'push', 'serial', 2): ((11, 12, 9), 'be06d339ed078eb6'),
    ('geometric', 'push-pull', 'native', 0): ((4, 7, 5), '47311ca9eaf4fbc4'),
    ('geometric', 'push-pull', 'native', 1): ((5, 5, 5), '5dffca26b732b59c'),
    ('geometric', 'push-pull', 'native', 2): ((5, 5, 6), '269ab0052b17a193'),
    ('geometric', 'push-pull', 'serial', 0): ((5, 5, 5), 'd876aa895ff5186d'),
    ('geometric', 'push-pull', 'serial', 1): ((6, 6, 4), 'c4731b8c1b981437'),
    ('geometric', 'push-pull', 'serial', 2): ((5, 6, 4), '54aa2bb1f6612da5'),
    ('mobility-waypoint', 'expiring', 'native', 0): ((2, 2, 2), '7374a1907a5bed6f'),
    ('mobility-waypoint', 'expiring', 'native', 1): ((2, 2, 2), '830674608924347e'),
    ('mobility-waypoint', 'expiring', 'native', 2): ((2, 2, 2), 'ca97ae07bb31ae77'),
    ('mobility-waypoint', 'expiring', 'serial', 0): ((2, 2, 2), '34a50edb104fdfcb'),
    ('mobility-waypoint', 'expiring', 'serial', 1): ((2, 2, 2), '79c48378ca5bb098'),
    ('mobility-waypoint', 'expiring', 'serial', 2): ((2, 2, 2), '37c0f40676a1ba0d'),
    ('mobility-waypoint', 'flooding', 'native', 0): ((2, 2, 2), '7374a1907a5bed6f'),
    ('mobility-waypoint', 'flooding', 'native', 1): ((2, 2, 2), '830674608924347e'),
    ('mobility-waypoint', 'flooding', 'native', 2): ((2, 2, 2), 'ca97ae07bb31ae77'),
    ('mobility-waypoint', 'flooding', 'serial', 0): ((2, 2, 2), '695e862f8832ed84'),
    ('mobility-waypoint', 'flooding', 'serial', 1): ((2, 2, 2), 'ac9529aa0f1b5eb9'),
    ('mobility-waypoint', 'flooding', 'serial', 2): ((2, 2, 2), '162baa9a287a313c'),
    ('mobility-waypoint', 'p-flood', 'native', 0): ((3, 3, 4), '7c056ff403ecc60c'),
    ('mobility-waypoint', 'p-flood', 'native', 1): ((3, 2, 2), '70b50a943de6c32a'),
    ('mobility-waypoint', 'p-flood', 'native', 2): ((3, 6, 3), '10c8e38c8a19d982'),
    ('mobility-waypoint', 'p-flood', 'serial', 0): ((2, 2, 2), '34a50edb104fdfcb'),
    ('mobility-waypoint', 'p-flood', 'serial', 1): ((3, 3, 2), 'a05b2cfd1211ba34'),
    ('mobility-waypoint', 'p-flood', 'serial', 2): ((2, 2, 2), '37c0f40676a1ba0d'),
    ('mobility-waypoint', 'pull', 'native', 0): ((8, 9, 8), '8c2880063d3305d3'),
    ('mobility-waypoint', 'pull', 'native', 1): ((8, 6, 6), '991197749412a2d1'),
    ('mobility-waypoint', 'pull', 'native', 2): ((8, 6, 7), 'c731042b3ccca82d'),
    ('mobility-waypoint', 'pull', 'serial', 0): ((8, 5, 8), '4814c7698ab061b4'),
    ('mobility-waypoint', 'pull', 'serial', 1): ((7, 7, 8), '1cfcc71cdd4c5931'),
    ('mobility-waypoint', 'pull', 'serial', 2): ((9, 7, 8), '544b3ebcde627ad7'),
    ('mobility-waypoint', 'push', 'native', 0): ((14, 8, 9), '90f3a20509fe1441'),
    ('mobility-waypoint', 'push', 'native', 1): ((8, 7, 10), 'aa4bac3dc2d5afe3'),
    ('mobility-waypoint', 'push', 'native', 2): ((11, 9, 9), '1e927ca9d74d6b39'),
    ('mobility-waypoint', 'push', 'serial', 0): ((9, 8, 9), 'b95e239955068bfa'),
    ('mobility-waypoint', 'push', 'serial', 1): ((7, 10, 8), '8f03271af232a7e4'),
    ('mobility-waypoint', 'push', 'serial', 2): ((8, 9, 9), 'bfe5fa8c8aa048e5'),
    ('mobility-waypoint', 'push-pull', 'native', 0): ((4, 5, 4), '67f1ff4688709171'),
    ('mobility-waypoint', 'push-pull', 'native', 1): ((6, 4, 5), 'ab70d26a1a1ce7e5'),
    ('mobility-waypoint', 'push-pull', 'native', 2): ((5, 5, 6), 'f4a42efb858c912b'),
    ('mobility-waypoint', 'push-pull', 'serial', 0): ((5, 5, 5), '60bf9ebd9c6dd9ac'),
    ('mobility-waypoint', 'push-pull', 'serial', 1): ((5, 5, 5), '8c4cc86e06870a71'),
    ('mobility-waypoint', 'push-pull', 'serial', 2): ((5, 4, 5), '1484a0f703865245'),
    ('sparse-edge', 'expiring', 'native', 0): ((5, 4, 5), 'c34ac051f544727a'),
    ('sparse-edge', 'expiring', 'native', 1): ((5, 4, 4), 'b7fd83a232208e9f'),
    ('sparse-edge', 'expiring', 'native', 2): ((6, 5, 4), 'f19496382124e6d8'),
    ('sparse-edge', 'expiring', 'serial', 0): ((5, 5, 6), '3d49c15de8727410'),
    ('sparse-edge', 'expiring', 'serial', 1): ((4, 6, 4), 'd670be7a34d0443d'),
    ('sparse-edge', 'expiring', 'serial', 2): ((4, 5, 6), '0049ba9eae1724c1'),
    ('sparse-edge', 'flooding', 'native', 0): ((6, 5, 4), '5d87d40c68c36556'),
    ('sparse-edge', 'flooding', 'native', 1): ((6, 4, 5), '4c8468580ed0880e'),
    ('sparse-edge', 'flooding', 'native', 2): ((5, 5, 5), '552bd556dedd04b0'),
    ('sparse-edge', 'flooding', 'serial', 0): ((4, 4, 7), '53e649c1f1a482ba'),
    ('sparse-edge', 'flooding', 'serial', 1): ((4, 6, 5), '6eab09b1b35f2821'),
    ('sparse-edge', 'flooding', 'serial', 2): ((5, 5, 5), '50d217ecd38df695'),
    ('sparse-edge', 'p-flood', 'native', 0): ((8, 6, 7), '8c344b3aa3eaa24f'),
    ('sparse-edge', 'p-flood', 'native', 1): ((8, 6, 7), '08e59b543ad1cc24'),
    ('sparse-edge', 'p-flood', 'native', 2): ((14, 9, 11), '344054e38af607a9'),
    ('sparse-edge', 'p-flood', 'serial', 0): ((7, 11, 9), 'fb35b117e89a4d83'),
    ('sparse-edge', 'p-flood', 'serial', 1): ((6, 7, 14), '3b93230e402b83ed'),
    ('sparse-edge', 'p-flood', 'serial', 2): ((7, 11, 12), 'a0e7393d7fa7fc43'),
    ('sparse-edge', 'pull', 'native', 0): ((6, 8, 10), '60ee54ef35ab5811'),
    ('sparse-edge', 'pull', 'native', 1): ((11, 6, 10), 'e78f97c54fe34d1c'),
    ('sparse-edge', 'pull', 'native', 2): ((10, 12, 6), 'e3f30daa4ce02e5a'),
    ('sparse-edge', 'pull', 'serial', 0): ((13, 9, 9), 'b2df67fa1a85c39a'),
    ('sparse-edge', 'pull', 'serial', 1): ((8, 7, 9), '3687ad8257a09372'),
    ('sparse-edge', 'pull', 'serial', 2): ((7, 6, 9), 'e5305ae7c8ad8023'),
    ('sparse-edge', 'push', 'native', 0): ((10, 11, 10), '15d86caf8f949c72'),
    ('sparse-edge', 'push', 'native', 1): ((15, 11, 11), '829054d3d2f405bc'),
    ('sparse-edge', 'push', 'native', 2): ((11, 13, 11), 'dd96bbfd754d6629'),
    ('sparse-edge', 'push', 'serial', 0): ((11, 11, 12), 'c34012d456044bd0'),
    ('sparse-edge', 'push', 'serial', 1): ((13, 17, 11), '52d891c75827e22f'),
    ('sparse-edge', 'push', 'serial', 2): ((13, 9, 10), '2e12678906dd5936'),
    ('sparse-edge', 'push-pull', 'native', 0): ((5, 6, 6), '2a83e728ce8d6162'),
    ('sparse-edge', 'push-pull', 'native', 1): ((7, 6, 9), '00d9fa4f063edce1'),
    ('sparse-edge', 'push-pull', 'native', 2): ((6, 6, 5), '85cf517c2da8c746'),
    ('sparse-edge', 'push-pull', 'serial', 0): ((7, 7, 9), '86b1c832b34e322b'),
    ('sparse-edge', 'push-pull', 'serial', 1): ((5, 7, 9), 'd8cfcb6ebac9d96f'),
    ('sparse-edge', 'push-pull', 'serial', 2): ((6, 6, 6), '6db8143499024e4b'),
}


@pytest.mark.parametrize("mode", ["serial", "native"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol_id", list(PROTOCOLS))
@pytest.mark.parametrize("model_id", list(MODELS))
def test_golden_realisation(model_id, protocol_id, seed, mode):
    results = run(MODELS[model_id], PROTOCOLS[protocol_id], seed, mode)
    assert run_digest(results) == GOLDEN[model_id, protocol_id, mode, seed]
