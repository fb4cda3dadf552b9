"""Campaign execution: the scheduler as a client of the job queue.

``run_campaign`` is the single entry point.  With a store it

1. reconciles the store's index against its object files (healing any
   crash between an object publish and its index insert),
2. **submits** the plan to the store's job queue
   (:class:`repro.campaign.jobs.JobQueue`) — submission diffs the
   plan's content-addressed keys against the store, so units already
   present are marked done (cached) and are **fetched, never
   recomputed** (unless *force*),
3. runs local pull workers over the queue — in this process when one
   worker suffices, forked worker processes otherwise — through
   exactly the same :func:`repro.service.worker.run_worker` loop that
   remote ``--worker URL`` processes use against the HTTP service, and
4. collects results as workers checkpoint them into the store, so a
   campaign killed mid-flight resumes by recomputing only the missing
   keys — and, by the replay seed contract, reproduces the
   uninterrupted results bit-for-bit.

Local fan-out is therefore nothing special: the scheduler is one queue
client among many, and a forked worker here is indistinguishable from
a pull worker on another machine (modulo payload codec — only
JSON-codec units ever leave the machine).  Workers return their
results already JSON-encoded; cached and freshly computed units
therefore flow through exactly the same codec, which is what makes
warm and cold campaign outputs byte-comparable.

Without a store the same steps run against a throwaway store in a
temporary directory, deleted when the run returns: one execution path,
nothing persisted, no manifest written.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro import obs
from repro.obs import resources
from repro.analysis.records import _jsonable_row
from repro.analysis.sweep import SweepPoint
from repro.campaign.jobs import DEFAULT_LEASE_TTL, JobQueue
from repro.campaign.plan import CampaignPlan, WorkUnit
from repro.campaign.schema import MANIFEST_SCHEMA, MANIFEST_SCHEMA_VERSION
from repro.campaign.store import ResultStore
from repro.engine.executor import default_jobs
from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import run_one
from repro.util.logging import get_logger
from repro.util.validation import require

__all__ = ["run_campaign", "execute_unit", "CampaignReport", "CampaignError"]

_log = get_logger("campaign.scheduler")

#: progress callback signature: (done_so_far, total, unit, cached?)
ProgressFn = Callable[[int, int, WorkUnit, bool], None]

#: Seconds the parent monitor sleeps between polls of the queue while
#: forked workers drain it.
_MONITOR_POLL_S = 0.05


class CampaignError(RuntimeError):
    """One or more units failed (or went missing) during a campaign."""


@dataclass
class CampaignReport:
    """What a campaign run did: per-unit outcomes plus totals.

    ``results`` maps unit key -> the deterministic result section
    (JSON-decodable dict), in no particular order; use the plan for
    ordering.  ``fetched`` keys were served from the store, ``computed``
    keys ran; their union covers the whole plan.  ``campaign_id`` is
    the queue's content address for the plan.
    """

    plan: CampaignPlan
    results: dict[str, dict[str, Any]] = field(default_factory=dict)
    fetched: list[str] = field(default_factory=list)
    computed: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    campaign_id: str = ""
    unit_elapsed: dict[str, float] = field(default_factory=dict)
    #: unit key -> the executing process's resource usage for that unit
    #: ({"cpu_s", "peak_rss_kb", ...} — see repro.obs.resources); for
    #: fetched units, whatever the original computation recorded.
    unit_resources: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.plan)

    @property
    def cache_hit_rate(self) -> float:
        return len(self.fetched) / max(1, self.total)

    def result_for(self, unit: WorkUnit) -> dict[str, Any]:
        return self.results[unit.key]


def _decoded(value: Any) -> Any:
    """*value* as a JSON reader sees it: one round trip through the C
    encoder (``indent`` would force the pure-Python one).  The object
    equals what decoding the records' own ``indent=2`` text gives."""
    return json.loads(json.dumps(value))


def execute_unit(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one work unit (in a worker process or in-process).

    Returns ``{"result": <JSON-safe dict>, "elapsed": seconds,
    "resources": {"cpu_s", "peak_rss_kb", ...}}``.  The result section
    is the unit's *deterministic* output — an
    :class:`~repro.analysis.records.ExperimentResult` as its ``to_json``
    text decodes, or a sweep point's merged row — already passed
    through one JSON round trip so it is identical whether it is read
    back from the store or handed over freshly computed.
    ``resources`` is the executing process's usage across the unit
    (sampled unconditionally — it feeds ``status --json`` and the
    manifest even in untraced runs) and, like ``elapsed``, never
    touches the content address.
    """
    kind = payload["kind"]
    # Telemetry identity travels outside the spec (it must never touch
    # the content address); present only when the scheduler dispatched
    # the unit, absent when execute_unit is called directly.
    ident = payload.get("_obs") or {}
    label = ident.get("label") or payload.get("experiment") \
        or payload.get("sweep") or kind
    start = time.perf_counter()
    res0 = resources.read()
    with obs.span("campaign.unit.run", label=label, kind=kind,
                  key=ident.get("key", "")[:12]):
        obs.event("campaign.unit", status="running", label=label,
                  key=ident.get("key"))
        if kind == "experiment":
            # The payload config carries no output_dir: run_one saves
            # nothing, the store is the unit's persistence.
            config = ExperimentConfig(**payload["config"])
            section = _decoded(run_one(payload["experiment"], config)
                               .to_dict())
        elif kind == "sweep-point":
            point = SweepPoint(params=dict(payload["params"]),
                               seed=payload["seed"], index=payload["index"])
            outcome = payload["func"](point)
            row = dict(payload["params"])
            row.update(outcome)
            section = {"row": _decoded(_jsonable_row(row))}
        else:
            raise ValueError(f"unknown work-unit kind: {kind!r}")
    return {"result": section, "elapsed": time.perf_counter() - start,
            "resources": resources.delta(res0)}


def write_manifest(store: ResultStore, report: CampaignReport) -> Path:
    """Record the provenance of the latest campaign run in the store.

    Besides the plan keys and git revision, the manifest records the
    machine fingerprint, per-unit wall time and resource usage (CPU
    seconds / peak RSS of the executing process), and — when the run
    was traced — the path of the telemetry trace, so a results
    directory carries everything needed to interpret its own timings.
    The payload shape is versioned: see
    :mod:`repro.campaign.schema` (``MANIFEST_FIELDS``), pinned by the
    frozen schema fingerprint test.
    """
    from repro.obs.events import git_sha, machine_fingerprint

    trace = obs.trace_path()
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "written_at": time.time(),
        "git_rev": git_sha() or "unknown",
        "python": sys.version.split()[0],
        "argv": sys.argv,
        "elapsed": report.elapsed,
        "machine": machine_fingerprint(),
        "trace": None if trace is None else str(trace),
        "campaign_id": report.campaign_id,
        "units": {
            "total": report.total,
            "fetched": len(report.fetched),
            "computed": len(report.computed),
        },
        "plan": [{"label": unit.label, "key": unit.key,
                  "spec": dict(unit.spec),
                  "elapsed": report.unit_elapsed.get(unit.key),
                  "resources": report.unit_resources.get(unit.key)}
                 for unit in report.plan],
    }
    path = store.root / "manifest.json"
    # Atomic like the store's objects: a kill mid-write must not leave a
    # truncated manifest for the next read_manifest to choke on.
    fd, tmp_name = tempfile.mkstemp(dir=store.root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(manifest, indent=2, default=str) + "\n")
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def _pull_worker_main(root: str, campaign_id: str, lease_ttl: float) -> None:
    """Entry point of one forked local pull worker.

    Opens its own store handle (its backend pools its own connections;
    the ones inherited from the parent's pool are never used or closed)
    and drains the campaign through the shared worker loop.  Under the
    fork start method the obs sinks and the current span context are
    inherited, so a forked worker's unit spans parent into the campaign
    trace exactly like in-process ones.
    """
    from repro.service.worker import run_worker

    run_worker(JobQueue(ResultStore(root)), campaign_id=campaign_id,
               lease_ttl=lease_ttl)


def _land(report: CampaignReport, key: str, result: dict[str, Any],
          meta: Mapping[str, Any], *, cached: bool) -> None:
    """Record one landed unit in *report*.

    *meta* carries the unit's ``elapsed`` and ``resources`` — an
    :func:`execute_unit` outcome, or a stored payload's ``meta``.
    """
    report.results[key] = result
    (report.fetched if cached else report.computed).append(key)
    if meta.get("elapsed") is not None:
        report.unit_elapsed[key] = meta["elapsed"]
    if meta.get("resources"):
        report.unit_resources[key] = dict(meta["resources"])


def _run_queued(plan: CampaignPlan, store: ResultStore,
                report: CampaignReport, *, jobs: int | None, force: bool,
                progress: ProgressFn | None, lease_ttl: float) -> None:
    """Submit to the queue, serve cached units, pull the rest."""
    from repro.service.worker import run_worker

    store.reconcile()
    queue = JobQueue(store)
    receipt = queue.submit(plan, source="scheduler", force=force)
    report.campaign_id = receipt.campaign_id
    # The submission is the one diff against the store: a job it marked
    # cached is served from the store, every other unit is pulled.
    served = {job.key for job in queue.jobs(receipt.campaign_id)
              if job.cached}
    by_key = {unit.key: unit for unit in plan if unit.key not in served}
    done = 0

    for unit in plan:
        if unit.key not in served:
            continue
        payload = store.get(unit.key)
        require(payload is not None,
                f"store lost {unit.label} ({unit.key[:12]}) mid-campaign")
        _land(report, unit.key, payload["result"], payload.get("meta", {}),
              cached=True)
        obs.counter("campaign.cache.hit")
        obs.event("campaign.unit", status="cached", label=unit.label,
                  key=unit.key)
        done += 1
        if progress is not None:
            progress(done, len(plan), unit, True)

    collected: set[str] = set()

    def collect(key: str) -> bool:
        """Pull one completed unit's result out of the store (idempotent)."""
        nonlocal done
        if key in collected or key not in by_key:
            return False
        payload = store.get(key)
        if payload is None:
            return False
        collected.add(key)
        _land(report, key, payload["result"], payload.get("meta", {}),
              cached=False)
        done += 1
        if progress is not None:
            progress(done, len(plan), by_key[key], False)
        return True

    if by_key:
        workers = max(1, min(jobs if jobs is not None else default_jobs(),
                             len(by_key)))
        _log.debug("campaign %s: %d/%d units pending across %d worker(s)",
                   receipt.campaign_id, len(by_key), len(plan), workers)
        with obs.span("campaign.dispatch", campaign=receipt.campaign_id,
                      pending=len(by_key), workers=workers):
            if workers == 1:
                run_worker(queue, campaign_id=receipt.campaign_id,
                           lease_ttl=lease_ttl,
                           on_unit=lambda job, ok: ok and collect(job.key))
            else:
                _drain_with_processes(store, queue, receipt.campaign_id,
                                      workers, lease_ttl, collect)

    # Late sweep, one read: anything completed by racing clients between
    # the submission and the worker drain, and anything that failed.
    failed = []
    for job in queue.jobs(receipt.campaign_id):
        if job.state == "done":
            collect(job.key)
        elif job.state == "failed" and job.key in by_key:
            failed.append(job)
    if failed:
        lines = "; ".join(f"{job.label} ({job.key[:12]}): {job.error}"
                          for job in failed)
        raise CampaignError(
            f"{len(failed)} unit(s) failed in campaign "
            f"{receipt.campaign_id}: {lines}")
    missing = by_key.keys() - collected
    require(not missing,
            f"campaign {receipt.campaign_id} drained but "
            f"{len(missing)} unit result(s) never reached the store")


def _drain_with_processes(store: ResultStore, queue: JobQueue,
                          campaign_id: str, workers: int, lease_ttl: float,
                          collect: Callable[[str], bool]) -> None:
    """Fork *workers* pull workers and monitor the queue until drained.

    The parent never executes units; it polls for completions (feeding
    the report and progress callbacks), reaps expired leases so dead
    workers surface promptly, and fails loudly if every worker dies
    with work still on the queue.
    """
    from repro.engine.executor import _pool_context

    ctx = _pool_context()
    procs = [ctx.Process(target=_pull_worker_main,
                         args=(str(store.root), campaign_id, lease_ttl),
                         daemon=True)
             for _ in range(workers)]
    for proc in procs:
        proc.start()
    try:
        while True:
            for job in queue.jobs(campaign_id, state="done"):
                collect(job.key)
            if queue.drained(campaign_id):
                break
            queue.reap()
            if not any(proc.is_alive() for proc in procs):
                if queue.drained(campaign_id):
                    break
                raise CampaignError(
                    f"all {workers} local workers exited with campaign "
                    f"{campaign_id} undrained")
            time.sleep(_MONITOR_POLL_S)
        for proc in procs:
            proc.join(timeout=2 * lease_ttl)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)


def run_campaign(
    plan: CampaignPlan,
    store: ResultStore | None = None,
    *,
    jobs: int | None = None,
    force: bool = False,
    progress: ProgressFn | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
) -> CampaignReport:
    """Execute *plan*, fetching cached units from *store*.

    Parameters
    ----------
    plan:
        The expanded campaign (see :mod:`repro.campaign.plan`).
    store:
        Result store to fetch from / checkpoint into; its job queue
        carries the pending units.  ``None`` runs the same queue path
        against a throwaway store in a temporary directory, removed on
        return (nothing cached, nothing resumable, no manifest).
    jobs:
        Local pull workers for pending units (``None``: one per CPU;
        ``1`` forces in-process execution).
    force:
        Recompute every unit even when cached; fresh results overwrite
        the stored ones.
    progress:
        Optional ``progress(done, total, unit, cached)`` callback,
        invoked once per unit as its result becomes available.
    lease_ttl:
        Seconds a worker's job lease lives between heartbeats (see
        :mod:`repro.campaign.jobs`).
    """
    require(jobs is None or int(jobs) >= 1, "jobs must be >= 1")
    require(lease_ttl > 0, "lease_ttl must be > 0")
    start = time.perf_counter()
    report = CampaignReport(plan=plan)
    with obs.span("campaign.run", units=len(plan), force=force,
                  jobs=jobs or 0, persistent=store is not None) as sp, \
            ExitStack() as scope:
        queue_store = store
        if store is None:
            # A throwaway store: the same queue path, nothing persisted.
            queue_store = ResultStore(scope.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-campaign-")))
            # Close the pooled connections before the directory goes.
            scope.callback(queue_store.backend.close)
        _run_queued(plan, queue_store, report, jobs=jobs, force=force,
                    progress=progress, lease_ttl=lease_ttl)
        report.elapsed = time.perf_counter() - start
        sp.set(fetched=len(report.fetched), computed=len(report.computed))
        if store is not None:
            write_manifest(store, report)
    return report
