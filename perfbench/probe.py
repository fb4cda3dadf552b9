"""Per-layer timing from outside the program.

For the duration of one traced query, :func:`install` replaces the
public entry points of each layer -- as their callers look them up --
with timing wrappers, and :meth:`Probe.restore` puts the originals back.
Nothing under ``src/`` is edited; untraced queries run the program
untouched.

Time is kept per thread, inclusive (``total``) and exclusive (``self``):
a wrapped call's self time is its duration minus the durations of the
wrapped calls it made on the same thread.  The HTTP service answers on
its own handler threads, so client-side and server-side time never mix.
"""

from __future__ import annotations

import inspect
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable

_MISSING = object()

#: BatchedDynamics hook -> layer name.
KERNEL_HOOKS = {
    "batch_init": "kernel.init",
    "batch_neighborhood": "kernel.neighborhood",
    "batch_step": "kernel.step",
    "batch_retire": "kernel.retire",
}

#: BatchedProtocol native hooks, all counted as ``protocol.hooks``.
PROTOCOL_HOOKS = ("batch_state", "batch_active", "batch_absorb",
                  "batch_stalled")

#: ServiceClient verb -> layer name (client-side time per call).
HTTP_VERBS = {
    "submit_plan": "http.submit",
    "lease": "http.lease",
    "heartbeat": "http.heartbeat",
    "complete": "http.complete",
    "drained": "http.drained",
    "fetch_result": "http.result",
    "fail": "http.fail",
}

#: Layers whose per-call durations are kept (for per-call medians).
_PER_CALL = frozenset(HTTP_VERBS.values())

#: Layers that partition a flood query's time between them.
FLOOD_PARTITION = ("engine.overhead_ms", "engine.bookkeeping_ms",
                   "kernel.init_ms", "kernel.step_ms",
                   "kernel.neighborhood_ms", "kernel.retire_ms",
                   "protocol.hooks_ms")


class Probe:
    """Accumulates per-layer time, call counts and operation counts."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- accounting -----------------------------------------------------------

    def _enter(self) -> float:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(0.0)
        return perf_counter()

    def _exit(self, name: str, start: float) -> None:
        elapsed = perf_counter() - start
        stack = self._local.stack
        child = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            self.total[name] += elapsed
            self.self_s[name] += elapsed - child
            self.calls[name] += 1
            if name in _PER_CALL:
                self.durations[name].append(elapsed)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def timed(self, name: str, fn: Callable,
              after: Callable[[Any, tuple], None] | None = None) -> Callable:
        """*fn* timed as layer *name*; ``after(outcome, args)`` sees the
        result, or the exception the call raised."""

        def wrapper(*args, **kwargs):
            start = self._enter()
            outcome: Any = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                self._exit(name, start)
                if after is not None:
                    after(outcome, args)

        return wrapper

    def timed_cm(self, name: str, fn: Callable) -> Callable:
        """A context-manager factory timed from enter to exit."""

        @contextmanager
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                with fn(*args, **kwargs) as value:
                    yield value
            finally:
                self._exit(name, start)

        return wrapper

    # -- patching -------------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def patch_methods(self, cls: type, prefix: str,
                      after: dict[str, Callable] | None = None) -> None:
        """Time every public method of *cls* as ``prefix.<method>``."""
        after = after or {}
        for attr, value in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in ("__contains__",
                                                          "__len__")
            if public and inspect.isfunction(value):
                name = f"{prefix}.{attr.strip('_')}"
                self.patch(cls, attr, self.timed(name, value, after.get(attr)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


class _Proxy:
    """Forwards attribute reads to the wrapped provider; the hooks set on
    the instance shadow the provider's own."""

    def __init__(self, target: Any, hooks: dict[str, Callable]) -> None:
        self.__dict__["_target"] = target
        self.__dict__.update(hooks)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.__dict__["_target"], name)


def _proxy(target: Any, hooks: dict[str, Callable]) -> _Proxy:
    # Same class name as the provider, so span attributes stay readable.
    cls = type(type(target).__name__, (_Proxy,), {})
    return cls(target, hooks)


def _timed_dynamics(probe: Probe, provider: Any) -> _Proxy:
    n = provider.num_nodes
    family = type(provider).__module__
    after: dict[str, Callable] = {}
    if family == "repro.edgemeg.kernels":
        pairs = n * (n - 1) // 2
        after["batch_step"] = lambda out, args: probe.count(
            "edgemeg.chain_updates", int(args[2].sum()) * pairs)
    elif family == "repro.geometric.kernels":
        after["batch_step"] = lambda out, args: probe.count(
            "geometric.walker_moves", int(args[2].sum()) * n)
        after["batch_neighborhood"] = lambda out, args: probe.count(
            "geometric.queried_nodes", len(args[2]) * n)
    hooks = {hook: probe.timed(name, getattr(provider, hook), after.get(hook))
             for hook, name in KERNEL_HOOKS.items()}
    return _proxy(provider, hooks)


def _timed_protocol(probe: Probe, provider: Any) -> _Proxy:
    hooks = {hook: probe.timed("protocol.hooks", getattr(provider, hook))
             for hook in PROTOCOL_HOOKS}
    return _proxy(provider, hooks)


def install(probe: Probe) -> None:
    """Wrap every layer's entry points; undo with ``probe.restore()``."""
    import repro
    from repro.campaign import scheduler
    from repro.campaign.backend import SqliteWalBackend
    from repro.campaign.jobs import Job, JobQueue
    from repro.campaign.store import ResultStore
    from repro.engine import batch, executor
    from repro.service.api import CampaignService
    from repro.service.client import ServiceClient

    probe.patch(repro, "flooding_trials",
                probe.timed("engine.flooding_trials", repro.flooding_trials))
    probe.patch(repro, "run_campaign",
                probe.timed("campaign.run", repro.run_campaign))
    probe.patch(executor, "run_chunk",
                probe.timed("engine.run_chunk", executor.run_chunk))
    dynamics_for = batch.batched_dynamics_for
    protocol_for = batch.batched_protocol_for
    probe.patch(batch, "batched_dynamics_for",
                lambda template: _timed_dynamics(probe, dynamics_for(template)))
    probe.patch(batch, "batched_protocol_for",
                lambda protocol, n: _timed_protocol(probe,
                                                    protocol_for(protocol, n)))

    probe.patch(scheduler, "execute_unit",
                probe.timed("campaign.execute", scheduler.execute_unit))
    probe.patch(scheduler, "write_manifest",
                probe.timed("campaign.manifest", scheduler.write_manifest))
    probe.patch_methods(ResultStore, "store")
    probe.patch(SqliteWalBackend, "transaction",
                probe.timed_cm("store.txn",
                               vars(SqliteWalBackend)["transaction"]))
    probe.patch(SqliteWalBackend, "schema_version",
                probe.timed("store.schema_version",
                            vars(SqliteWalBackend)["schema_version"]))
    probe.patch_methods(JobQueue, "jobs", after={
        "lease": lambda out, args: probe.count(
            "jobs.lease_hits", isinstance(out, Job)),
    })

    probe.patch_methods(CampaignService, "service")
    for verb, name in HTTP_VERBS.items():
        probe.patch(ServiceClient, verb,
                    probe.timed(name, vars(ServiceClient)[verb]))
    probe.patch(ServiceClient, "_request", probe.timed(
        "http.request", vars(ServiceClient)["_request"],
        after=lambda out, args: probe.count(
            "http.non2xx", isinstance(out, Exception))))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ms(seconds: float, queries: int) -> float:
    return 1e3 * seconds / queries


def _rate(ops: float, seconds: float) -> float:
    return ops / seconds if seconds > 0 else 0.0


def layer_metrics(probe: Probe, *, queries: int, units: int,
                  trial_rounds: int, incomplete: int, cache_hits: int,
                  overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric; times are ms per traced query unless the
    name says otherwise (``http.*_ms`` are per-call medians)."""
    total, calls, counts = probe.total, probe.calls, probe.counts
    kernel_s = sum(total[name] for name in KERNEL_HOOKS.values())
    jobs_lease_calls = calls["jobs.lease"]
    client_s = sum(total[name] for name in HTTP_VERBS.values())
    verb_s = sum(seconds for name, seconds in total.items()
                 if name.startswith("service."))
    out = {
        "engine.overhead_ms": _ms(probe.self_s["engine.flooding_trials"],
                                  queries),
        "engine.bookkeeping_ms": _ms(probe.self_s["engine.run_chunk"],
                                     queries),
        "engine.trial_rounds": trial_rounds / queries,
        "engine.incomplete": incomplete,
        "kernel.init_ms": _ms(total["kernel.init"], queries),
        "kernel.step_ms": _ms(total["kernel.step"], queries),
        "kernel.neighborhood_ms": _ms(total["kernel.neighborhood"], queries),
        "kernel.retire_ms": _ms(total["kernel.retire"], queries),
        "kernel.calls": sum(calls[name] for name in KERNEL_HOOKS.values())
        / queries,
        "kernel.us_per_trial_round": (1e6 * kernel_s / trial_rounds
                                      if trial_rounds else 0.0),
        "edgemeg.chain_updates_per_s": _rate(counts["edgemeg.chain_updates"],
                                             total["kernel.step"]),
        "geometric.walker_moves_per_s": _rate(
            counts["geometric.walker_moves"], total["kernel.step"]),
        "geometric.queried_nodes_per_s": _rate(
            counts["geometric.queried_nodes"], total["kernel.neighborhood"]),
        "protocol.hooks_ms": _ms(total["protocol.hooks"], queries),
        "campaign.execute_ms": _ms(total["campaign.execute"], queries),
        "campaign.manifest_ms": _ms(total["campaign.manifest"], queries),
        "campaign.scheduler_self_ms": _ms(probe.self_s["campaign.run"],
                                          queries),
        "campaign.cache_hit_ratio": cache_hits / units if units else 0.0,
        "store.get_ms": _ms(total["store.get"], queries),
        "store.put_ms": _ms(total["store.put"], queries),
        "store.reconcile_ms": _ms(total["store.reconcile"], queries),
        "store.txn_count": calls["store.txn"] / queries,
        "store.txn_ms": _ms(total["store.txn"], queries),
        "jobs.submit_ms": _ms(total["jobs.submit"], queries),
        "jobs.lease_ms": _ms(total["jobs.lease"], queries),
        "jobs.heartbeat_ms": _ms(total["jobs.heartbeat"], queries),
        "jobs.complete_ms": _ms(total["jobs.complete"], queries),
        "jobs.drained_ms": _ms(total["jobs.drained"], queries),
        "jobs.lease_yield": (counts["jobs.lease_hits"] / jobs_lease_calls
                             if jobs_lease_calls else 0.0),
        "service.verb_ms": _ms(verb_s, queries),
        "http.transport_ms": _ms(client_s - verb_s, queries) if client_s
        else 0.0,
        "http.requests_per_unit": calls["http.request"] / units if units
        else 0.0,
        "http.non2xx": counts["http.non2xx"],
        "obs.overhead_pct": overhead_pct,
    }
    for verb in ("submit", "lease", "heartbeat", "complete", "drained",
                 "result"):
        samples = probe.durations[f"http.{verb}"]
        out[f"http.{verb}_ms"] = (1e3 * statistics.median(samples)
                                  if samples else 0.0)
    return out


def largest_flood_layer(metrics: dict[str, float]) -> str:
    """The layer of :data:`FLOOD_PARTITION` with the most query time."""
    return max(FLOOD_PARTITION, key=metrics.__getitem__)
