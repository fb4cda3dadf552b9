"""The serial reference loop and engine-backed trial batches for protocols.

:func:`spread` is the single serial per-round loop of the library: one
run of one protocol on one evolving-graph realisation, returning a
:class:`~repro.core.flooding.FloodingResult`.  :func:`repro.core.flooding.flood`
is a thin wrapper over ``spread(FLOODING, ...)``, and the engine runs
every replayed trial (and every generic native trial) through the same
loop.  Randomized protocols split the seed as
``rng_graph, rng_protocol = spawn(seed, 2)`` (:func:`split_protocol_seed`),
so the same trial seed couples the evolving-graph realisation across
protocols.

:func:`spreading_trials` runs independent trials of any protocol by
building a :class:`~repro.engine.plan.SimulationPlan` and executing it
with :func:`~repro.engine.executor.run_plan` on the requested backend.
Per-trial replay randomness uses the ``derive_seed`` discipline: trial
``i`` of any non-flooding protocol gets the integer seed
``derive_seed(seed, 2 i)`` (and its random source from
``derive_seed(seed, 2 i + 1)``), so different protocols run with the
same master seed see the same graph realisation trial by trial.
Flooding keeps the ``spawn(seed, 2 trials)`` stream layout of
:func:`~repro.core.flooding.flooding_trials` — the frozen layout
existing campaign cache entries were computed under.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.flooding import (
    DEFAULT_MAX_STEPS,
    FloodingResult,
    _resolve_sources,
    resolve_max_steps,
)
from repro.dynamics.base import EvolvingGraph
from repro.dynamics.batched import batched_dynamics_for
from repro.protocols.base import SpreadingProtocol, _member_fresh, member_set
from repro.util.rng import SeedLike, as_generator, as_seed_sequence, derive_seed, spawn

__all__ = [
    "spread",
    "spreading_trials",
    "protocol_trial_streams",
    "split_protocol_seed",
    "draw_trial_source",
]


#: The trial index of the one-trial case: every row of a ``(1, n)`` matrix.
_ALL = slice(None)


def split_protocol_seed(protocol: SpreadingProtocol,
                        seed: SeedLike) -> tuple:
    """``(graph_seed, protocol_rng)`` from one trial seed.

    The single definition of the seed-split convention: protocols with
    ``splits_seed`` get ``spawn(seed, 2)`` streams; flooding-style
    protocols hand the seed to ``graph.reset`` untouched and consume no
    protocol randomness.  Every replayed trial, on every backend, is a
    :func:`spread` call and splits its seed here.
    """
    if protocol.splits_seed:
        rng_graph, rng_proto = spawn(seed, 2)
        return rng_graph, rng_proto
    return seed, None


def draw_trial_source(source, n: int, source_seed):
    """One trial's source: *source* as given, or — when ``None`` — a
    uniform node from the trial's dedicated source stream (an integer
    seed or a generator; the other half of the replay-layout
    discipline shared by all backends)."""
    if source is None:
        return int(as_generator(source_seed).integers(n))
    return source


def spread(
    protocol: SpreadingProtocol,
    graph: EvolvingGraph,
    source: int | Sequence[int] = 0,
    *,
    seed: SeedLike = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
    reset: bool = True,
) -> FloodingResult:
    """Run *protocol* on *graph* from *source*; the serial reference path.

    Each round runs the protocol's rules as their one-trial case against
    ``G_t`` (see :class:`~repro.protocols.base.SpreadingProtocol`), then
    the graph steps to ``G_{t+1}`` if another round follows (the
    flooding semantics of Section 2: information crosses one edge per
    step).  Member-set protocols get ``N(I)`` from the model family's
    :meth:`~repro.dynamics.batched.BatchedDynamics.replay_neighborhood`
    (bit-identical to the snapshot query; families without their own
    provider answer through the snapshot), and sampling protocols run ``transmit``
    against ``graph.snapshot()``.

    The graph is ``reset`` with the protocol's graph seed first unless
    ``reset=False``.  A run that exhausts *max_steps* (``None``:
    ``4n + 64``) returns with ``completed = False``; a stalled protocol
    (retire predicate fires) returns early the same way, with ``time``
    equal to the rounds actually run.  The graph is left at the last
    snapshot the run used: a run of ``T >= 1`` rounds started at time
    ``t0`` leaves ``graph.time == t0 + T - 1``, and a run of no rounds
    does not step it.
    """
    n = graph.num_nodes
    sources = _resolve_sources(source, n)
    budget = resolve_max_steps(n, max_steps)

    rng_graph, rng_proto = split_protocol_seed(protocol, seed)
    if reset:
        graph.reset(rng_graph)
    return _spread_loop(protocol, graph, sources, budget, rng_proto)


def _spread_loop(protocol: SpreadingProtocol, graph: EvolvingGraph,
                 sources: tuple[int, ...], budget: int,
                 rng: np.random.Generator | None) -> FloodingResult:
    """:func:`spread`'s loop on an already-reset *graph*, drawing protocol
    randomness from *rng*; the engine's per-trial chunks call it with
    their own streams."""
    n = graph.num_nodes
    # The one-trial case of the protocol's batch rules: *rows* is the
    # (1, n) informed matrix, *informed* its only row (a view).
    rows = np.zeros((1, n), dtype=bool)
    informed = rows[0]
    informed[list(sources)] = True
    state = protocol.batch_state(rows)
    history = [len(sources)]
    neighborhood = (partial(batched_dynamics_for(graph).replay_neighborhood,
                            graph) if member_set(protocol) else None)

    # Per-run transmit/sample kernel attribution, only when a live sink
    # is installed: the accumulation adds two clock reads per round.
    traced = obs.enabled()
    transmit_s = 0.0

    t = 0
    while history[-1] < n and t < budget:
        if t:
            graph.step()
        members = protocol.batch_active(state, rows, _ALL, t, rng)
        active = informed if members is None else members[0]
        if traced:
            t0 = time.perf_counter()
        if neighborhood is None:
            fresh = protocol.transmit(graph.snapshot(), informed, active, rng)
        else:
            fresh = _member_fresh(neighborhood, informed, active)
        if traced:
            transmit_s += time.perf_counter() - t0
        count = history[-1]
        if fresh.any():
            informed |= fresh
            count = int(informed.sum())
        protocol.batch_absorb(state, _ALL, fresh[np.newaxis], t + 1)
        t += 1
        history.append(count)
        if count < n:
            stalled = protocol.batch_stalled(state, rows, _ALL, t)
            if stalled is not None and stalled[0]:
                break

    if traced:
        obs.histogram("protocol.transmit_s", transmit_s,
                      protocol=protocol.name, rounds=t)
        obs.counter("protocol.rounds", t, protocol=protocol.name)

    return FloodingResult(
        source=sources,
        time=t,
        completed=history[-1] == n,
        informed_history=np.asarray(history, dtype=np.int64),
        informed=informed,
    )


def protocol_trial_streams(seed: SeedLike, start: int,
                           stop: int) -> list[tuple[int, int]]:
    """Per-trial ``(run_seed, source_seed)`` integers for trials
    ``start .. stop - 1`` — the protocol replay stream layout.

    The seed is normalised to a :class:`~numpy.random.SeedSequence`
    exactly once, so callers slicing different trial ranges from the
    same master seed (the engine's chunks) agree with a caller deriving
    all of them at once (the serial loop).
    """
    root = as_seed_sequence(seed)
    return [(derive_seed(root, 2 * i), derive_seed(root, 2 * i + 1))
            for i in range(start, stop)]


def spreading_trials(
    protocol: "SpreadingProtocol | str",
    graph: EvolvingGraph,
    *,
    trials: int,
    seed: SeedLike = None,
    source: int | Sequence[int] | None = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
    backend: str = "serial",
    jobs: int | None = None,
    rng_mode: str = "replay",
    chunk_size: int | None = None,
) -> list[FloodingResult]:
    """Independent trials of *protocol* with deterministic per-trial seeds.

    Parameters mirror :func:`repro.core.flooding.flooding_trials`;
    *protocol* may be an instance or a registry token (``"push-pull"``,
    ``"p-flood:transmit_probability=0.3"``, ...).  Every backend runs
    through :func:`~repro.engine.executor.run_plan`, and all of them
    return the same results for the same seed.  The default
    ``rng_mode="replay"`` runs each trial as one :func:`spread` call
    with its per-trial seeds (independent of *chunk_size*);
    ``"native"`` draws protocol and model randomness from the engine's
    chunk streams (deterministic in ``(seed, trials, chunk_size)``,
    independent of *backend* and *jobs*).
    """
    from repro.engine import SimulationPlan, run_plan
    from repro.engine.plan import DEFAULT_CHUNK_SIZE

    plan = SimulationPlan(model=graph, trials=trials, source=source,
                          max_steps=max_steps, seed=seed, rng_mode=rng_mode,
                          protocol=protocol,
                          chunk_size=(DEFAULT_CHUNK_SIZE if chunk_size is None
                                      else chunk_size))
    return run_plan(plan, backend=backend, jobs=jobs).to_results()
