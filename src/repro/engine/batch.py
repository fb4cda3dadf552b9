"""Chunk execution over pluggable model kernels and protocol rules.

:func:`run_chunk` runs one chunk of a plan's trials.  Everything
model-specific — the fully batched native population kernels, the exact
count law — comes from the model's own
:class:`~repro.dynamics.batched.BatchedDynamics` provider, looked up
with :func:`~repro.dynamics.batched.batched_dynamics_for` (the model's
``batched_dynamics()``), and everything *process*-specific —
activation, transmission, stalling — from the protocol's own rules,
written once over a leading trial axis on
:class:`~repro.protocols.base.SpreadingProtocol`.  It imports **no
concrete model classes** — model packages keep their kernel providers
(``repro.edgemeg.kernels``, ``repro.geometric.kernels``,
``repro.mobility.kernels``) and any other family runs on the generic
snapshot fallback.

Two stream layouts are supported (see :mod:`repro.engine.plan`):
*replay* runs each trial as one :func:`repro.protocols.runner.spread`
call with its own generators, on one model per chunk reset per trial,
so every result is the serial reference's by construction; *native*
draws from one chunk-level generator in batch order, enabling the
vectorised population kernels that the providers implement (sparse edge
churn, shared lattice steps, stacked mobility kinematics) composed with
the protocol rules on whole ``(B, n)`` informed matrices
(:func:`_run_chunk_native`, the rules looked up through
:func:`batched_protocol_for`).  Native pairs without such kernels —
protocols that transmit by sampling (they override ``transmit``), or
families without native kernels — run ``spread``'s loop trial by trial
with chunk-spawned streams.  Native *flooding* on a family whose
provider declares a count law (the edge-MEGs) skips the populations
altogether and runs the exact chain on two informed counts
(:func:`count_chain`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.flooding import _resolve_sources
from repro.dynamics.base import EvolvingGraph
from repro.dynamics.batched import BatchedDynamics, batched_dynamics_for
from repro.engine.results import TrialEnsemble
from repro.protocols.base import SpreadingProtocol, member_set
from repro.protocols.runner import _spread_loop, draw_trial_source, spread
from repro.util.validation import require, require_node

__all__ = [
    "count_chain",
    "run_chunk",
    "run_multisource_replay",
]


def batched_protocol_for(protocol: SpreadingProtocol,
                         num_nodes: int) -> SpreadingProtocol:
    """The object whose ``batch_*`` hooks the native kernel tier calls
    for *protocol* on ``num_nodes`` nodes: the protocol itself, which
    writes its law once over a leading trial axis.

    The kernel tier (:func:`_run_chunk_native`) looks the hooks up
    through this one name, and only here: ``perfbench/probe.py`` patches
    it and times the four ``batch_*`` hooks of whatever it returns as
    ``protocol.hooks_ms``.  Per-trial chunks (replay and the generic
    native tier) run :func:`~repro.protocols.runner.spread`'s loop,
    which calls the protocol's rules directly.
    """
    return protocol


# ---------------------------------------------------------------------------
# per-trial chunks: spread's loop on one model, reset per trial
# ---------------------------------------------------------------------------

def _ensemble(plan, results: list) -> TrialEnsemble:
    """A chunk's per-trial results as an ensemble, honouring the plan's
    recording flags."""
    ensemble = TrialEnsemble.from_results(results)
    return replace(
        ensemble,
        histories=ensemble.histories if plan.record_history else (),
        informed=ensemble.informed if plan.record_informed else None)


def _run_chunk_replay(plan, trial_streams: list[tuple],
                      budget: int) -> TrialEnsemble:
    """Run a chunk's trials from their ``(run_seed, source_seed)`` pairs
    in the serial layout: flooding's spawned generator pairs, or the
    ``derive_seed`` integers of other protocols (the
    :func:`repro.protocols.runner.spreading_trials` layout).  Each trial
    is one :func:`~repro.protocols.runner.spread` call on the chunk's
    one model, so results are the serial reference's by construction."""
    model = plan.make_model()
    n = model.num_nodes
    return _ensemble(plan, [
        spread(plan.protocol, model,
               draw_trial_source(plan.source, n, source_seed),
               seed=run_seed, max_steps=budget)
        for run_seed, source_seed in trial_streams])


# ---------------------------------------------------------------------------
# native path: one chunk stream, kernels from the model's provider
# ---------------------------------------------------------------------------

def _chunk_sources(plan, rng: np.random.Generator, count: int,
                   n: int) -> list[tuple[int, ...]]:
    if plan.source is None:
        drawn = rng.integers(n, size=count)
        return [(s,) for s in drawn.tolist()]
    fixed = _resolve_sources(plan.source, n)
    return [fixed] * count


def _finish_native(n, sources, times, completed, count_log, informed,
                   record_history, record_informed) -> TrialEnsemble:
    histories: tuple[np.ndarray, ...] = ()
    if record_history:
        log = np.stack(count_log, axis=1)  # (B, steps+1)
        histories = tuple(row[:time + 1]
                          for row, time in zip(log, times.tolist()))
    return TrialEnsemble(
        num_nodes=n,
        sources=tuple(sources),
        times=times,
        completed=completed,
        histories=histories,
        informed=informed if record_informed else None,
    )


def _run_chunk_native(plan, kernel: BatchedDynamics, pk: SpreadingProtocol,
                      rng: np.random.Generator, count: int,
                      budget: int) -> TrialEnsemble:
    """The generic native loop: model- and protocol-agnostic bookkeeping
    around the dynamics provider's ``batch_init`` /
    ``batch_neighborhood`` / ``batch_step`` hooks composed with the
    protocol's ``batch_state`` / ``batch_active`` / ``batch_absorb`` /
    ``batch_stalled`` rules over the whole chunk.  The update order
    matches the serial reference (inform across the time-``t`` graphs,
    then advance the survivors), so every family's native results share
    the semantics of the serial process — as different realisations of
    the same law.
    For flooding the protocol hooks are the identity (``batch_active``
    returns ``None`` and the informed matrix goes to the dynamics
    kernel untouched), keeping its native draws byte-for-byte what they
    were before the protocol subsystem."""
    n = kernel.num_nodes
    sources = _chunk_sources(plan, rng, count, n)
    state = kernel.batch_init(count, rng)

    informed = np.zeros((count, n), dtype=bool)
    for i, src in enumerate(sources):
        informed[i, list(src)] = True
    pstate = pk.batch_state(informed)
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
    round draws one binomial vector over all trials.  A finished trial
    draws ``binomial(0, .) = 0``, for which numpy consumes no
    randomness, so the draws are those of the unfinished trials alone
    and no row is gathered or scattered.  Returns
    ``(times, completed, count_log)`` in the layout of
    :func:`_finish_native` (``count_log[t]`` holds every trial's count
    at time ``t``).
    """
    counts = np.array(start, dtype=np.int64)
    older = np.zeros_like(counts)
    times = np.zeros_like(counts)  # rounds begun while unfinished
    count_log = [counts]
    t = 0
    while t < budget:
        unfinished = counts < n
        if not unfinished.any():
            break
        times += unfinished
        hit = -np.expm1(stay_log(older, counts - older))
        older, counts = counts, counts + rng.binomial(n - counts, hit)
        t += 1
        count_log.append(counts)
    return times, counts == n, count_log


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


def _run_chunk_native_generic(plan, model: EvolvingGraph,
                              rng: np.random.Generator, count: int,
                              budget: int) -> TrialEnsemble:
    """Native fallback for protocol/model pairs without composed batched
    kernels: :func:`~repro.protocols.runner.spread`'s loop trial by
    trial on *model* (the chunk's own instance), reset per trial with a
    generator spawned from the chunk stream.  Flooding spawns one stream
    per trial — the pre-protocol layout, kept byte-stable — while
    protocols drawing per-round randomness spawn a second block of
    per-trial protocol streams."""
    n = model.num_nodes
    sources = _chunk_sources(plan, rng, count, n)
    graph_streams = rng.spawn(count)
    rngs = (rng.spawn(count) if plan.protocol.splits_seed
            else [None] * count)
    results = []
    for src, stream, prng in zip(sources, graph_streams, rngs):
        model.reset(stream)
        results.append(_spread_loop(plan.protocol, model, src, budget, prng))
    return _ensemble(plan, results)


# ---------------------------------------------------------------------------
# chunk entry point (also the multiprocessing worker function)
# ---------------------------------------------------------------------------

def run_chunk(payload: dict) -> TrialEnsemble:
    """Run one chunk of a plan; the executor's unit of work.

    *payload* carries the plan, the trial range, and the pre-derived
    randomness (per-trial replay ``(run_seed, source_seed)`` pairs or
    the native chunk seed), so a
    worker process needs nothing beyond this dict.  Kernel selection
    goes through :func:`batched_dynamics_for` (the template's
    ``batched_dynamics()`` provider); native flooding
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
            ensemble = _run_chunk_replay(plan, payload["trial_streams"],
                                         budget)
        else:
            rng = np.random.default_rng(payload["chunk_seed"])
            # Providers read their template and never mutate it, so the
            # plan's own model serves without a copy; only the generic
            # tier, which resets a model per trial, copies it (a factory
            # model is fresh already).
            template = (plan.model if plan.model is not None
                        else plan.model_factory())
            kernel = batched_dynamics_for(template)
            native = kernel.native_capable and member_set(plan.protocol)
            if plan.is_flooding and kernel.count_law:
                tier = "counts"
            else:
                tier = "kernel" if native else "generic"
            sp.set(kernel=type(kernel).__name__, native=native, tier=tier)
            if tier == "counts":
                ensemble = _run_chunk_counts(plan, kernel, rng, count, budget)
            elif tier == "kernel":
                pk = batched_protocol_for(plan.protocol, kernel.num_nodes)
                ensemble = _run_chunk_native(plan, kernel, pk, rng, count,
                                             budget)
            else:
                model = (template if plan.model is None
                         else plan.make_model())
                ensemble = _run_chunk_native_generic(plan, model, rng, count,
                                                     budget)
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
    (one OR-reduction of packed rows for adjacency snapshots, see
    :mod:`repro.util.bits`).

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
