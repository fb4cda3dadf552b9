"""Plan execution: chunks of trials in this process or fanned out to
worker processes.

``run_plan`` is the single entry point.  Every backend cuts the plan
into the same chunk payloads (plan, trial range, pre-derived chunk
randomness) and runs each through :func:`repro.engine.batch.run_chunk`:

``serial`` / ``batched``
    The chunks run one after another in this process.  The two names
    run the same code; ``serial`` stays as the name of the reference
    run that other backends are compared against.
``parallel``
    The same chunks, fanned out to worker processes.  Workers receive
    a self-contained payload and build their models locally, so
    nothing is shared but the results.

With the plan's default ``rng_mode="replay"`` every trial is one
:func:`repro.protocols.runner.spread` call, and all backends return
bit-identical ensembles for the same seed, whatever the chunk size;
``"native"`` trades that for the fast chunk-stream kernels on every
backend (deterministic in ``(seed, trials, chunk_size)``, independent
of the backend and of *jobs*).
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

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
                   jobs: int | None = None) -> list:
    """Map *worker* over *payloads* in worker processes, order-preserving.

    The shared fan-out primitive behind the parallel backends (plan
    chunks, protocol trial blocks).  Runs in-process when there is a
    single payload or a single job.
    """
    if len(payloads) <= 1 or (jobs is not None and jobs <= 1):
        with obs.span("engine.fan_out", payloads=len(payloads), jobs=1,
                      pooled=False):
            return [worker(payload) for payload in payloads]
    workers = min(jobs or default_jobs(), len(payloads))
    _log.debug("fan-out: %d payloads over %d worker processes",
               len(payloads), workers)
    # A span is open across the fork: worker processes inherit the
    # tracing context, so their chunk spans parent to this one.
    with obs.span("engine.fan_out", payloads=len(payloads), jobs=workers,
                  pooled=True):
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=_pool_context()) as pool:
            return list(pool.map(worker, payloads))


def _chunk_payloads(plan: SimulationPlan, root, budget: int) -> list[dict]:
    payloads = []
    replay = plan.rng_mode == "replay"
    pairs = None
    if replay and plan.is_flooding:
        streams = plan.replay_streams(root)
        pairs = list(zip(streams[0::2], streams[1::2]))
    for start, stop in plan.chunk_ranges():
        payload = {"plan": plan, "range": (start, stop), "budget": budget}
        if pairs is not None:
            payload["trial_streams"] = pairs[start:stop]
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
        payloads = _chunk_payloads(plan, root, budget)
        if backend == "parallel":
            parts = fan_out_chunks(run_chunk, payloads, jobs)
        else:
            parts = [run_chunk(p) for p in payloads]
        return TrialEnsemble.concatenate(parts)
