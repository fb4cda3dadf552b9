"""Plan execution: serial reference, in-process batching, and
chunked multiprocessing fan-out.

``run_plan`` is the single entry point.  Backends:

``serial``
    The reference path — one :func:`repro.protocols.runner.spread` call
    per trial on a single model instance, with the plan's replay stream
    layout.  Exists so every other backend has a bit-comparable
    baseline.
``batched``
    Chunks of trials advance together through the batched bookkeeping of
    :mod:`repro.engine.batch` and the model family's registered
    :class:`~repro.dynamics.batched.BatchedDynamics` kernels, in this
    process.
``parallel``
    The same chunks, fanned out to worker processes.  Workers receive
    a self-contained payload (plan + pre-derived chunk randomness) and
    build their models locally, so nothing is shared but the results.

With the plan's default ``rng_mode="replay"`` all three backends return
bit-identical ensembles for the same seed; ``"native"`` trades that for
the fast chunk-stream kernels (deterministic in ``(seed, trials,
chunk_size)``, independent of *jobs*).
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Sequence

import multiprocessing

from repro import obs
from repro.core.flooding import _resolve_sources, resolve_max_steps
from repro.engine.batch import run_chunk
from repro.engine.plan import SimulationPlan
from repro.engine.results import TrialEnsemble
from repro.util.logging import get_logger
from repro.util.rng import as_seed_sequence
from repro.util.validation import require

__all__ = ["run_plan", "fan_out_chunks", "BACKENDS", "default_jobs"]

_log = get_logger("engine.executor")

#: Supported execution backends.
BACKENDS = ("serial", "batched", "parallel")


def default_jobs() -> int:
    """Worker count used when ``jobs`` is ``None``: one per CPU."""
    return max(1, os.cpu_count() or 1)


def _pool_context():
    # Prefer fork only on Linux: payloads are picklable either way, and
    # fork-without-exec is crash-prone on macOS (threaded BLAS, ObjC).
    if sys.platform == "linux":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def fan_out_chunks(worker, payloads: Sequence[dict],
                   jobs: int | None = None, *,
                   on_result: Callable[[int, object], None] | None = None) -> list:
    """Map *worker* over *payloads* in worker processes, order-preserving.

    The shared fan-out primitive behind the parallel backends (plan
    chunks, protocol trial blocks) and the campaign scheduler.  Runs
    in-process when there is a single payload or a single job.

    *on_result*, when given, is called as ``on_result(index, result)``
    **as each payload completes** (completion order, not submission
    order) — the campaign scheduler checkpoints results into its store
    from this hook, so a killed run keeps everything that had finished.
    The returned list is always in payload order.
    """
    if len(payloads) <= 1 or (jobs is not None and jobs <= 1):
        with obs.span("engine.fan_out", payloads=len(payloads), jobs=1,
                      pooled=False):
            results = []
            for index, payload in enumerate(payloads):
                result = worker(payload)
                if on_result is not None:
                    on_result(index, result)
                results.append(result)
            return results
    workers = min(jobs or default_jobs(), len(payloads))
    _log.debug("fan-out: %d payloads over %d worker processes",
               len(payloads), workers)
    # A span is open across the fork: worker processes inherit the
    # tracing context, so their chunk spans parent to this one.
    with obs.span("engine.fan_out", payloads=len(payloads), jobs=workers,
                  pooled=True):
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=_pool_context()) as pool:
            futures = {pool.submit(worker, payload): index
                       for index, payload in enumerate(payloads)}
            results: list = [None] * len(payloads)
            for future in as_completed(futures):
                index = futures[future]
                results[index] = future.result()
                if on_result is not None:
                    on_result(index, results[index])
            return results


def _run_serial(plan: SimulationPlan, root, budget: int) -> TrialEnsemble:
    """Per-trial :func:`~repro.protocols.runner.spread` loop (the
    bit-compatibility reference).

    Flooding keeps its frozen ``spawn(seed, 2·trials)`` generator
    pairs; other protocols use the per-trial ``derive_seed`` integers
    of :meth:`SimulationPlan.protocol_streams`.
    """
    from repro.protocols.runner import draw_trial_source, spread

    model = plan.make_model()
    n = model.num_nodes
    if plan.is_flooding:
        streams = plan.replay_streams(root)
        trial_streams = zip(streams[0::2], streams[1::2])
    else:
        trial_streams = plan.protocol_streams(root, 0, plan.trials)
    results = [spread(plan.protocol, model,
                      draw_trial_source(plan.source, n, source_seed),
                      seed=run_seed, max_steps=budget)
               for run_seed, source_seed in trial_streams]
    ensemble = TrialEnsemble.from_results(results, num_nodes=n)
    if plan.record_history and plan.record_informed:
        return ensemble
    # Honour the plan's recording flags so every backend returns the
    # same ensemble shape.
    return TrialEnsemble(
        num_nodes=ensemble.num_nodes,
        sources=ensemble.sources,
        times=ensemble.times,
        completed=ensemble.completed,
        histories=ensemble.histories if plan.record_history else (),
        informed=ensemble.informed if plan.record_informed else None,
    )


def _chunk_payloads(plan: SimulationPlan, root, budget: int) -> list[dict]:
    payloads = []
    replay = plan.rng_mode == "replay"
    streams = plan.replay_streams(root) if replay and plan.is_flooding else None
    for start, stop in plan.chunk_ranges():
        payload = {"plan": plan, "range": (start, stop), "budget": budget}
        if streams is not None:
            payload["streams"] = streams[2 * start:2 * stop]
        elif replay:
            payload["trial_streams"] = plan.protocol_streams(root, start, stop)
        else:
            payload["chunk_seed"] = plan.native_chunk_seed(root, start)
        payloads.append(payload)
    return payloads


def run_plan(plan: SimulationPlan, *, backend: str = "batched",
             jobs: int | None = None) -> TrialEnsemble:
    """Execute *plan* and return the aggregated :class:`TrialEnsemble`.

    Parameters
    ----------
    plan:
        What to simulate (model, trials, sources, budget, seed tree).
    backend:
        One of :data:`BACKENDS`.
    jobs:
        Worker processes for the parallel backend (``None`` = one per
        CPU; ignored otherwise).
    """
    require(backend in BACKENDS, f"backend must be one of {BACKENDS}")
    if jobs is not None:
        require(int(jobs) >= 1, "jobs must be >= 1")
    template = plan.model if plan.model is not None else plan.model_factory()
    n = template.num_nodes
    budget = resolve_max_steps(n, plan.max_steps)
    if plan.source is not None:
        _resolve_sources(plan.source, n)  # fail fast on bad plans
    root = as_seed_sequence(plan.seed)  # normalised exactly once

    with obs.span("engine.plan", backend=backend, trials=plan.trials, n=n,
                  rng_mode=plan.rng_mode, protocol=plan.protocol.name):
        if backend == "serial":
            return _run_serial(plan, root, budget)
        payloads = _chunk_payloads(plan, root, budget)
        if backend == "batched":
            parts = [run_chunk(p) for p in payloads]
        else:
            parts = fan_out_chunks(run_chunk, payloads, jobs)
        return TrialEnsemble.concatenate(parts)
