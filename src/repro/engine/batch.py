"""Batched spreading bookkeeping over pluggable model and protocol kernels.

This module advances **B independent spreading trials simultaneously**,
holding the informed sets as a ``(B, n)`` boolean matrix.  Everything
model-specific — the exact ``N(I)`` query against a live trial model,
the fully batched native population kernels — is obtained through the
:class:`~repro.dynamics.batched.BatchedDynamics` registry
(:func:`~repro.dynamics.batched.batched_dynamics_for`), and everything
*process*-specific — activation, transmission, stalling — through the
:class:`~repro.protocols.batched.BatchedProtocol` registry
(:func:`~repro.protocols.batched.batched_protocol_for`); this module
owns only the protocol- and model-agnostic bookkeeping: informed
matrices, count histories, truncation, multi-source seeding, and chunk
assembly.  It imports **no concrete model classes** — model packages
register their kernel providers (``repro.edgemeg.kernels``,
``repro.geometric.kernels``, ``repro.mobility.kernels``) and any
unregistered family runs on the generic snapshot fallback; likewise
unregistered protocols run their serial rules per trial.

Two stream layouts are supported (see :mod:`repro.engine.plan`):
*replay* advances each trial's own generators exactly like the serial
reference, making every result bit-identical to
:func:`repro.core.flooding.flood` /
:func:`repro.protocols.runner.spread`; *native* draws from one
chunk-level generator in batch order, enabling the vectorised
population kernels that the providers implement (sparse edge churn,
shared lattice steps, stacked mobility kinematics) composed with the
mask-based protocol kernels.  Native *flooding* on a family whose
provider declares a count law (the edge-MEGs) skips the populations
altogether and runs the exact chain on two informed counts
(:func:`count_chain`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.core.flooding import _resolve_sources
from repro.dynamics.base import EvolvingGraph
from repro.dynamics.batched import BatchedDynamics, batched_dynamics_for
from repro.engine.results import TrialEnsemble
from repro.protocols.base import SpreadingProtocol
from repro.protocols.batched import BatchedProtocol, batched_protocol_for
from repro.util.validation import require, require_node

__all__ = [
    "count_chain",
    "run_chunk",
    "run_multisource_replay",
]


# ---------------------------------------------------------------------------
# replay kernel: per-trial model streams, batched bookkeeping
# ---------------------------------------------------------------------------

def _fresh_masks(pk: BatchedProtocol, kernel: BatchedDynamics,
                 models: list[EvolvingGraph], states: list,
                 informed: np.ndarray, act: list[int], t: int,
                 rngs: "list[np.random.Generator | None] | None") -> np.ndarray:
    """Fresh masks of the *act* trials through the protocol kernel.

    Every provider's replay round is exact (for flooding, bit-identical
    to the snapshot path by the dynamics contract; for other protocols,
    the same draws as the serial :func:`repro.protocols.runner.spread`
    round), so replay results stay bit-identical to the serial
    reference.
    """
    n = informed.shape[1]
    out = np.zeros((len(act), n), dtype=bool)
    for j, b in enumerate(act):
        rng = rngs[b] if rngs is not None else None
        out[j] = pk.replay_round(kernel, models[b], states[b], informed[b],
                                 t, rng)
    return out


def _run_models_loop(models: list[EvolvingGraph],
                     sources: list[tuple[int, ...]],
                     budget: int,
                     record_history: bool,
                     record_informed: bool,
                     protocol: SpreadingProtocol,
                     rngs: "list[np.random.Generator | None] | None" = None,
                     ) -> TrialEnsemble:
    """Advance already-reset per-trial models in lockstep.

    Mirrors the update order of :func:`repro.core.flooding.flood` (and
    its protocol generalisation :func:`repro.protocols.runner.spread`)
    exactly — conditional recount, post-increment time, one step budget
    shared by every trial, post-round stall check — so times, histories
    and masks coincide with the serial reference."""
    kernel = batched_dynamics_for(models[0])
    n = models[0].num_nodes
    pk = batched_protocol_for(protocol, n)
    num = len(models)
    informed = np.zeros((num, n), dtype=bool)
    histories: list[list[int]] = []
    states = []
    for i, src in enumerate(sources):
        informed[i, list(src)] = True
        histories.append([len(src)])
        states.append(pk.trial_state(src))
    times = np.zeros(num, dtype=np.int64)
    completed = np.zeros(num, dtype=bool)
    act = [i for i in range(num) if histories[i][-1] < n]
    for i in range(num):
        if histories[i][-1] >= n:
            completed[i] = True  # single-node graphs complete at t=0
    t = 0
    while act and t < budget:
        fresh = _fresh_masks(pk, kernel, models, states, informed, act, t, rngs)
        t += 1
        still = []
        for j, b in enumerate(act):
            count = histories[b][-1]
            if fresh[j].any():
                informed[b] |= fresh[j]
                pk.absorb(states[b], fresh[j], t)
                count = int(informed[b].sum())
            histories[b].append(count)
            if count == n:
                times[b] = t
                completed[b] = True
            elif t >= budget:
                times[b] = t
            elif pk.stalled(states[b], informed[b], t):
                times[b] = t  # retired early; completed stays False
            else:
                models[b].step()
                still.append(b)
        act = still
    return TrialEnsemble(
        num_nodes=n,
        sources=tuple(sources),
        times=times,
        completed=completed,
        histories=tuple(np.asarray(h, dtype=np.int64) for h in histories)
        if record_history else (),
        informed=informed if record_informed else None,
    )


def _run_chunk_replay(plan, streams: list[np.random.Generator],
                      count: int, budget: int) -> TrialEnsemble:
    """Run *count* flooding trials whose ``(graph, source)`` generator
    pairs are given in the serial layout (two streams per trial)."""
    models = [plan.make_model() for _ in range(count)]
    n = models[0].num_nodes
    sources = []
    for i in range(count):
        rng_graph, rng_src = streams[2 * i], streams[2 * i + 1]
        src = int(rng_src.integers(n)) if plan.source is None else plan.source
        sources.append(_resolve_sources(src, n))
        models[i].reset(rng_graph)
    return _run_models_loop(models, sources, budget,
                            plan.record_history, plan.record_informed,
                            plan.protocol)


def _run_chunk_replay_protocol(plan, trial_streams: list[tuple[int, int]],
                               count: int, budget: int) -> TrialEnsemble:
    """Run *count* non-flooding protocol trials from their per-trial
    ``(run_seed, source_seed)`` integers (the
    :func:`repro.protocols.runner.spreading_trials` layout)."""
    from repro.protocols.runner import draw_trial_source, split_protocol_seed

    protocol = plan.protocol
    models = [plan.make_model() for _ in range(count)]
    n = models[0].num_nodes
    sources = []
    rngs: list[np.random.Generator | None] = []
    for i, (run_seed, source_seed) in enumerate(trial_streams):
        src = draw_trial_source(plan.source, n, source_seed)
        sources.append(_resolve_sources(src, n))
        rng_graph, rng_proto = split_protocol_seed(protocol, run_seed)
        models[i].reset(rng_graph)
        rngs.append(rng_proto)
    return _run_models_loop(models, sources, budget,
                            plan.record_history, plan.record_informed,
                            protocol, rngs)


# ---------------------------------------------------------------------------
# native path: one chunk stream, kernels from the provider registry
# ---------------------------------------------------------------------------

def _chunk_sources(plan, rng: np.random.Generator, count: int,
                   n: int) -> list[tuple[int, ...]]:
    if plan.source is None:
        drawn = rng.integers(n, size=count)
        return [(int(s),) for s in drawn]
    fixed = _resolve_sources(plan.source, n)
    return [fixed] * count


def _finish_native(n, sources, times, completed, count_log, informed,
                   record_history, record_informed) -> TrialEnsemble:
    histories: tuple[np.ndarray, ...] = ()
    if record_history:
        log = np.stack(count_log, axis=1)  # (B, steps+1)
        histories = tuple(log[i, :int(times[i]) + 1] for i in range(len(sources)))
    return TrialEnsemble(
        num_nodes=n,
        sources=tuple(sources),
        times=times,
        completed=completed,
        histories=histories,
        informed=informed if record_informed else None,
    )


def _run_chunk_native(plan, kernel: BatchedDynamics, pk: BatchedProtocol,
                      rng: np.random.Generator, count: int,
                      budget: int) -> TrialEnsemble:
    """The generic native loop: model- and protocol-agnostic bookkeeping
    around the dynamics provider's ``batch_init`` /
    ``batch_neighborhood`` / ``batch_step`` hooks composed with the
    protocol provider's ``batch_active`` / ``batch_absorb`` /
    ``batch_stalled`` hooks.  The update order matches the serial
    reference (inform across the time-``t`` graphs, then advance the
    survivors), so every family's native results share the semantics of
    the serial process — as different realisations of the same law.
    For flooding the protocol hooks are the identity (``batch_active``
    returns ``None`` and the informed matrix goes to the dynamics
    kernel untouched), keeping its native draws byte-for-byte what they
    were before the protocol subsystem."""
    n = kernel.num_nodes
    sources = _chunk_sources(plan, rng, count, n)
    state = kernel.batch_init(count, rng)
    pstate = pk.batch_state(count, sources)

    informed = np.zeros((count, n), dtype=bool)
    for i, src in enumerate(sources):
        informed[i, list(src)] = True
    counts = informed.sum(axis=1)
    times = np.zeros(count, dtype=np.int64)
    completed = counts == n
    active = ~completed
    count_log = [counts.copy()]

    t = 0
    while active.any() and t < budget:
        act = np.flatnonzero(active)
        # -- inform across the edges of the time-t graphs ------------------
        members = pk.batch_active(pstate, informed, act, t, rng)
        if members is None:
            fresh = kernel.batch_neighborhood(state, informed, act)
        else:
            stacked = np.zeros_like(informed)
            stacked[act] = members
            fresh = (kernel.batch_neighborhood(state, stacked, act)
                     & ~informed[act])
        informed[act] |= fresh
        t += 1
        pk.batch_absorb(pstate, act, fresh, t)
        counts[act] = informed[act].sum(axis=1)
        count_log.append(counts.copy())
        newly_done = active & (counts == n)
        if newly_done.any():
            times[newly_done] = t
            completed |= newly_done
            active &= ~newly_done
            kernel.batch_retire(state, active)
        if active.any():
            act = np.flatnonzero(active)
            stalled = pk.batch_stalled(pstate, informed, act, t)
            if stalled is not None and stalled.any():
                retired = act[stalled]
                times[retired] = t  # completed stays False
                active[retired] = False
                kernel.batch_retire(state, active)
        if not active.any() or t >= budget:
            break
        # -- advance the still-active trial populations --------------------
        kernel.batch_step(state, rng, active)
    times[active] = t
    return _finish_native(n, sources, times, completed, count_log, informed,
                          plan.record_history, plan.record_informed)


def count_chain(stay_log, n: int, start: np.ndarray,
                rng: np.random.Generator, budget: int,
                ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Flood ``len(start)`` trials as the chain on ``(|I_{t-1}|, |I_t|)``.

    ``stay_log(older, fresh)`` is a provider's
    :meth:`~repro.dynamics.batched.BatchedDynamics.count_stay_log`; every
    round draws one binomial vector over the active trials.  Returns
    ``(times, completed, count_log)`` in the layout of
    :func:`_finish_native` (``count_log[t]`` holds every trial's count
    at time ``t``).
    """
    counts = np.array(start, dtype=np.int64)
    older = np.zeros_like(counts)
    times = np.zeros(counts.shape[0], dtype=np.int64)
    completed = counts == n
    active = ~completed
    count_log = [counts.copy()]
    t = 0
    while active.any() and t < budget:
        act = np.flatnonzero(active)
        m = counts[act]
        hit = -np.expm1(stay_log(older[act], m - older[act]))
        older[act] = m
        counts[act] = m + rng.binomial(n - m, hit)
        t += 1
        count_log.append(counts.copy())
        done = act[counts[act] == n]
        times[done] = t
        completed[done] = True
        active[done] = False
    times[active] = t
    return times, completed, count_log


def _count_masks(rng: np.random.Generator, n: int,
                 sources: list[tuple[int, ...]], final: np.ndarray,
                 completed: np.ndarray) -> np.ndarray:
    """Final informed masks of count-chain trials.

    Complete trials are all-True.  A truncated trial's set is its
    sources plus a uniform subset of the other nodes of the right size:
    the law is invariant under node permutations fixing the sources,
    so given the counts that subset is uniform.
    """
    informed = np.ones((len(sources), n), dtype=bool)
    cut = np.flatnonzero(~completed)
    if cut.size:
        keys = rng.random((cut.size, n))
        for row, b in enumerate(cut):
            keys[row, list(sources[b])] = -1.0  # sources rank first
        ranks = np.argsort(np.argsort(keys, axis=1), axis=1)
        informed[cut] = ranks < final[cut, None]
    return informed


def _run_chunk_counts(plan, kernel: BatchedDynamics,
                      rng: np.random.Generator, count: int,
                      budget: int) -> TrialEnsemble:
    """Native flooding through the provider's count law (see
    :func:`count_chain`): the same sources as :func:`_chunk_sources`
    draws for the kernel loop, then no population state at all."""
    n = kernel.num_nodes
    sources = _chunk_sources(plan, rng, count, n)
    start = np.array([len(src) for src in sources], dtype=np.int64)
    times, completed, count_log = count_chain(kernel.count_stay_log, n,
                                              start, rng, budget)
    informed = None
    if plan.record_informed:
        informed = _count_masks(rng, n, sources, count_log[-1], completed)
    return _finish_native(n, sources, times, completed, count_log, informed,
                          plan.record_history, plan.record_informed)


def _run_chunk_native_generic(plan, rng: np.random.Generator,
                              count: int, budget: int) -> TrialEnsemble:
    """Native fallback for protocol/model pairs without composed batched
    kernels: per-trial model stepping with generators spawned from the
    chunk stream (the replay-style loop, minus the replay stream
    layout).  Flooding spawns one stream per trial — the pre-protocol
    layout, kept byte-stable — while protocols drawing per-round
    randomness spawn a second block of per-trial protocol streams."""
    models = [plan.make_model() for _ in range(count)]
    n = models[0].num_nodes
    sources = _chunk_sources(plan, rng, count, n)
    for model, stream in zip(models, rng.spawn(count)):
        model.reset(stream)
    rngs = (list(rng.spawn(count)) if plan.protocol.splits_seed else None)
    return _run_models_loop(models, sources, budget,
                            plan.record_history, plan.record_informed,
                            plan.protocol, rngs)


# ---------------------------------------------------------------------------
# chunk entry point (also the multiprocessing worker function)
# ---------------------------------------------------------------------------

def run_chunk(payload: dict) -> TrialEnsemble:
    """Run one chunk of a plan; the executor's unit of work.

    *payload* carries the plan, the trial range, and the pre-derived
    randomness (replay generator pairs or the native chunk seed), so a
    worker process needs nothing beyond this dict.  Kernel selection
    goes through the :class:`BatchedDynamics` registry; native flooding
    on a provider with a count law runs the count chain, and the span's
    ``tier`` attribute names the path that ran.
    """
    plan = payload["plan"]
    start, stop = payload["range"]
    count = stop - start
    budget = payload["budget"]
    with obs.span("engine.chunk", start=start, stop=stop, trials=count,
                  mode=plan.rng_mode, protocol=plan.protocol.name) as sp:
        if plan.rng_mode == "replay":
            sp.set(tier="replay")
            if plan.is_flooding:
                ensemble = _run_chunk_replay(plan, payload["streams"],
                                             count, budget)
            else:
                ensemble = _run_chunk_replay_protocol(
                    plan, payload["trial_streams"], count, budget)
        else:
            rng = np.random.default_rng(payload["chunk_seed"])
            template = plan.make_model()
            kernel = batched_dynamics_for(template)
            pk = batched_protocol_for(plan.protocol, template.num_nodes)
            native = kernel.native_capable and pk.native_capable
            if plan.is_flooding and kernel.count_law:
                tier = "counts"
            else:
                tier = "kernel" if native else "generic"
            sp.set(kernel=type(kernel).__name__,
                   protocol_kernel=type(pk).__name__,
                   native=native, tier=tier)
            if tier == "counts":
                ensemble = _run_chunk_counts(plan, kernel, rng, count, budget)
            elif tier == "kernel":
                ensemble = _run_chunk_native(plan, kernel, pk, rng, count,
                                             budget)
            else:
                ensemble = _run_chunk_native_generic(plan, rng, count, budget)
        if obs.enabled():
            times = np.asarray(ensemble.times)
            obs.counter("engine.trials", count)
            obs.counter("engine.rounds",
                        int(times.max(initial=0)))
            obs.gauge("engine.completed_fraction",
                      float(np.asarray(ensemble.completed).mean()))
            obs.histogram("engine.spreading_time", float(times.mean()))
        return ensemble


# ---------------------------------------------------------------------------
# multi-source flooding of a single replayed realisation
# ---------------------------------------------------------------------------

def run_multisource_replay(graph: EvolvingGraph, sources: Sequence[int],
                           replay_seed: int, budget: int) -> int:
    """``max_s T(s)`` over *sources* on one realisation, in a single pass.

    The serial definition replays the same seed once per source; here
    the realisation is advanced exactly once while every source floods
    as one row of an ``(S, n)`` informed matrix.  Bit-identical to the
    serial replay: same graph sequence, same per-row update rule.  The
    shared snapshot answers all rows through its batched
    :meth:`~repro.dynamics.base.GraphSnapshot.neighborhood_masks` query
    (a boolean row-gather for adjacency snapshots — no per-row float
    re-materialisation).

    Raises
    ------
    RuntimeError
        If any source fails to flood within *budget* steps (matching
        :func:`repro.core.flooding.flooding_time`); the first such
        source in *sources* order is reported.
    """
    n = graph.num_nodes
    source_list = [require_node(int(s), n, "source") for s in sources]
    require(len(source_list) > 0, "at least one source is required")
    graph.reset(replay_seed)
    num = len(source_list)
    informed = np.zeros((num, n), dtype=bool)
    informed[np.arange(num), source_list] = True
    counts = informed.sum(axis=1)
    times = np.zeros(num, dtype=np.int64)
    active = counts < n
    t = 0
    while active.any() and t < budget:
        act = np.flatnonzero(active)
        fresh = graph.snapshot().neighborhood_masks(informed[act])
        informed[act] |= fresh
        t += 1
        counts[act] = informed[act].sum(axis=1)
        newly_done = active & (counts == n)
        times[newly_done] = t
        active &= ~newly_done
        if active.any() and t < budget:
            graph.step()
    if active.any():
        worst = int(np.flatnonzero(active)[0])
        raise RuntimeError(
            f"flooding did not complete within {budget} steps "
            f"({int(counts[worst])}/{n} nodes informed)"
        )
    return int(times.max())
