"""The pull worker: lease → execute → heartbeat → complete, repeat.

One loop serves every deployment shape.  The *queue API* argument is
anything exposing the worker verbs —

* :class:`repro.campaign.jobs.LocalQueueClient` for in-process /
  forked workers sharing the store's SQLite file, or
* :class:`repro.service.client.ServiceClient` for workers pulling from
  a campaign service over HTTP on another machine —

so the campaign scheduler's local fan-out and ``repro.campaign run
--worker URL`` execute units through literally the same code path,
and results are bit-identical by construction (the unit payload and
:func:`~repro.campaign.scheduler.execute_unit` are shared).

While a unit runs, a :class:`~repro.obs.heartbeat.Heartbeat` thread
renews the lease every ``ttl / 3`` seconds, the first renewal one
period after the lease (which already granted a full TTL), and emits
``campaign.lease.heartbeat`` trace events when tracing is on.  A worker
that dies stops renewing; after the TTL the queue hands the unit to
someone else, and the store's bit-for-bit resume discipline makes the
retry exact.  A unit that *raises* is reported ``failed`` — the loop
itself survives and pulls the next job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Protocol

from repro import obs
from repro.campaign.jobs import DEFAULT_LEASE_TTL, Job, default_worker_id
from repro.obs.heartbeat import Heartbeat
from repro.util.logging import get_logger
from repro.util.validation import require

__all__ = ["QueueAPI", "WorkerStats", "run_worker", "DEFAULT_POLL_S"]

_log = get_logger("service.worker")

#: Seconds an idle worker sleeps between lease attempts while the
#: queue still has leased (in-flight) work that might come back.
DEFAULT_POLL_S = 0.2


class QueueAPI(Protocol):
    """The worker-facing queue verbs (local queue or HTTP client)."""

    def lease(self, worker: str, *, campaign_id: str | None = ...,
              ttl: float = ...) -> Optional[Job]: ...

    def heartbeat(self, campaign_id: str, key: str, worker: str, *,
                  ttl: float = ...) -> bool: ...

    def complete(self, campaign_id: str, key: str, worker: str, *,
                 spec: Mapping[str, Any], result: Mapping[str, Any],
                 label: str = ..., elapsed: float | None = ...,
                 resources: Mapping[str, float] | None = ...) -> bool: ...

    def fail(self, campaign_id: str, key: str, worker: str,
             error: str) -> bool: ...

    def drained(self, campaign_id: str | None = ...) -> bool: ...


@dataclass
class WorkerStats:
    """What one worker loop did."""

    worker: str = ""
    leased: int = 0
    completed: int = 0
    failed: int = 0
    lease_lost: int = 0
    elapsed: float = 0.0
    keys: list[str] = field(default_factory=list)


def _execute_leased(api: QueueAPI, job: Job, worker: str,
                    ttl: float, stats: WorkerStats) -> bool:
    """Run one leased job to completion (or failure) under heartbeat."""
    from repro.campaign.scheduler import execute_unit

    payload = dict(job.payload or {})
    payload["_obs"] = {"label": job.label, "key": job.key}
    renew = Heartbeat(
        name="campaign.lease.heartbeat",
        interval=max(ttl / 3.0, 0.05),
        on_beat=lambda: api.heartbeat(job.campaign_id, job.key, worker,
                                      ttl=ttl),
        label=job.label, key=job.key, worker=worker)
    renew.start()
    try:
        outcome = execute_unit(payload)
    except Exception as exc:  # the unit failed, not the worker
        renew.stop()
        _log.warning("unit %s (%s) failed on worker %s: %s", job.label,
                     job.key[:12], worker, exc)
        api.fail(job.campaign_id, job.key, worker, f"{type(exc).__name__}: {exc}")
        stats.failed += 1
        return False
    renew.stop()
    completed = api.complete(
        job.campaign_id, job.key, worker, spec=job.spec,
        result=outcome["result"], label=job.label,
        elapsed=outcome["elapsed"], resources=outcome.get("resources"))
    if completed:
        stats.completed += 1
        stats.keys.append(job.key)
    else:
        # Someone else finished first (our lease expired mid-unit and
        # the retry won the race).  Content addressing makes the bytes
        # identical either way; just account for it.
        stats.lease_lost += 1
        _log.info("unit %s (%s): lease lost mid-run; result already "
                  "completed elsewhere", job.label, job.key[:12])
    # Either way the result is in the store now (we just put it, or the
    # racing retry did) — callers may collect it.
    return True


def run_worker(api: QueueAPI, *, worker: str | None = None,
               campaign_id: str | None = None,
               lease_ttl: float = DEFAULT_LEASE_TTL,
               max_units: int | None = None,
               on_unit: Callable[[Job, bool], None] | None = None
               ) -> WorkerStats:
    """Pull and execute jobs until nothing is pending *or leased*.

    While in-flight work remains the worker sleeps
    :data:`DEFAULT_POLL_S` between lease attempts — this is how it
    waits out a *dead peer's* lease so it can reclaim the unit when the
    TTL expires.

    Parameters
    ----------
    api:
        A :class:`QueueAPI` — local queue client or HTTP service client.
    worker:
        Lease attribution id (default: ``hostname-pid``).
    campaign_id:
        Only pull this campaign's jobs (default: any campaign).
    lease_ttl:
        Lease seconds granted per claim; renewed every ``ttl / 3``.
    max_units:
        Stop after this many completed/failed units (``None``: no cap).
    on_unit:
        Optional ``on_unit(job, ok)`` hook, called after each unit
        finishes (``ok`` means the result is now in the store) — the
        in-process scheduler's per-unit bookkeeping rides on this.
    """
    require(lease_ttl > 0, "lease_ttl must be > 0")
    worker = worker or default_worker_id()
    stats = WorkerStats(worker=worker)
    start = time.perf_counter()
    with obs.span("service.worker", worker=worker,
                  campaign=campaign_id or ""):
        while True:
            if max_units is not None and \
                    stats.completed + stats.failed >= max_units:
                break
            job = api.lease(worker, campaign_id=campaign_id, ttl=lease_ttl)
            if job is None:
                if api.drained(campaign_id):
                    break
                time.sleep(DEFAULT_POLL_S)
                continue
            stats.leased += 1
            ok = _execute_leased(api, job, worker, lease_ttl, stats)
            if on_unit is not None:
                on_unit(job, ok)
    stats.elapsed = time.perf_counter() - start
    _log.debug("worker %s: %d leased, %d completed, %d failed in %.3fs",
               worker, stats.leased, stats.completed, stats.failed,
               stats.elapsed)
    return stats
