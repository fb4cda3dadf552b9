"""Replay chunks against an engine-free reference of the stream layout.

Every backend runs the same chunk payloads, so backends agreeing with
one another does not show that the payloads follow the replay layout.
These tests rebuild each trial from the layout's definition, without
the engine:

* flooding: ``SeedSequence(seed).spawn(2 * trials)`` as
  ``(graph, source)`` generator pairs, and a flooding loop that asks
  ``graph.snapshot()`` for ``N(I)`` on a fresh model per trial (so the
  families' ``replay_neighborhood`` queries and the reuse of one model
  per chunk are checked too);
* other protocols: ``derive_seed(seed, 2 i)`` / ``derive_seed(seed,
  2 i + 1)`` per trial, each trial one ``spread`` call on a fresh model.

``chunk_size=2`` cuts five trials into three chunks, so a wrong slice
of the per-trial streams shows as a wrong trial.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.flooding import FloodingResult, flooding_trials
from repro.edgemeg.independent import IndependentDynamicGraph
from repro.edgemeg.meg import EdgeMEG
from repro.edgemeg.sparse import SparseEdgeMEG
from repro.engine.testing import assert_results_bit_identical
from repro.geometric.meg import GeometricMEG
from repro.mobility import MobilityMEG, RandomWaypoint
from repro.protocols import resolve_protocol, spread, spreading_trials
from repro.util.rng import derive_seed

MODELS = [
    pytest.param(lambda: EdgeMEG(24, 0.3, 0.3), id="edge-dense"),
    pytest.param(lambda: SparseEdgeMEG(30, 0.05, 0.4), id="sparse-edge"),
    pytest.param(lambda: GeometricMEG(36, move_radius=1.0, radius=3.5),
                 id="geometric"),
    pytest.param(lambda: MobilityMEG(RandomWaypoint(25, side=5.0, speed=1.0),
                                     radius=2.5), id="mobility-waypoint"),
    pytest.param(lambda: IndependentDynamicGraph(20, 0.15),
                 id="generic-fallback"),
]

TRIALS = 5
CHUNK = 2


def _sources(source, source_rng, n):
    if source is None:
        return (int(source_rng.integers(n)),)
    if isinstance(source, int):
        return (source,)
    return tuple(source)


def _budget(n, max_steps):
    return 4 * n + 64 if max_steps is None else max_steps


def _snapshot_flood(model, sources, graph_rng, budget) -> FloodingResult:
    """Flooding ``I_{t+1} = I_t | N_{G_t}(I_t)`` on snapshots alone."""
    n = model.num_nodes
    model.reset(graph_rng)
    informed = np.zeros(n, dtype=bool)
    informed[list(sources)] = True
    history = [len(sources)]
    t = 0
    while history[-1] < n and t < budget:
        if t:
            model.step()
        informed |= model.snapshot().neighborhood_mask(informed)
        t += 1
        history.append(int(informed.sum()))
    return FloodingResult(source=sources, time=t, completed=history[-1] == n,
                          informed_history=np.asarray(history, dtype=np.int64),
                          informed=informed)


def flooding_reference(factory, *, seed, source=None, max_steps=None):
    children = np.random.SeedSequence(seed).spawn(2 * TRIALS)
    results = []
    for graph_seq, source_seq in zip(children[0::2], children[1::2]):
        model = factory()
        n = model.num_nodes
        sources = _sources(source, np.random.default_rng(source_seq), n)
        results.append(_snapshot_flood(model, sources,
                                       np.random.default_rng(graph_seq),
                                       _budget(n, max_steps)))
    return results


def protocol_reference(protocol, factory, *, seed, source=None,
                       max_steps=None):
    results = []
    for i in range(TRIALS):
        model = factory()
        n = model.num_nodes
        source_rng = np.random.default_rng(derive_seed(seed, 2 * i + 1))
        results.append(spread(protocol, model, _sources(source, source_rng, n),
                              seed=derive_seed(seed, 2 * i),
                              max_steps=_budget(n, max_steps)))
    return results


CASES = [
    pytest.param({"seed": 0}, id="random-0"),
    pytest.param({"seed": 7}, id="random-7"),
    pytest.param({"seed": 3, "source": 2}, id="fixed"),
    pytest.param({"seed": 5, "source": (0, 5, 11)}, id="multi-source"),
    pytest.param({"seed": 2, "max_steps": 1}, id="truncated"),
]


class TestFloodingReplayLayout:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("factory", MODELS)
    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_matches_reference(self, backend, factory, case):
        engine = flooding_trials(factory(), trials=TRIALS, backend=backend,
                                 chunk_size=CHUNK, **case)
        assert_results_bit_identical(flooding_reference(factory, **case),
                                     engine)

    def test_truncated_case_truncates(self):
        reference = flooding_reference(MODELS[0].values[0], seed=2,
                                       max_steps=1)
        assert any(not r.completed for r in reference)

    def test_parallel_matches_reference(self):
        factory = MODELS[1].values[0]
        engine = flooding_trials(factory(), trials=TRIALS, seed=1,
                                 backend="parallel", jobs=2,
                                 chunk_size=CHUNK)
        assert_results_bit_identical(flooding_reference(factory, seed=1),
                                     engine)


class TestProtocolReplayLayout:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("factory", MODELS)
    @pytest.mark.parametrize("token", [
        "push-pull", "p-flood:transmit_probability=0.5"])
    def test_matches_reference(self, token, factory, case):
        protocol = resolve_protocol(token)
        engine = spreading_trials(protocol, factory(), trials=TRIALS,
                                  backend="batched", chunk_size=CHUNK, **case)
        assert_results_bit_identical(
            protocol_reference(protocol, factory, **case), engine)
