"""The pull worker: lease once, then execute → complete-and-lease-next.

One loop serves every deployment shape.  The *queue API* argument is
anything exposing the worker verbs —

* :class:`repro.campaign.jobs.JobQueue` for in-process / forked
  workers sharing the store's SQLite file, or
* :class:`repro.service.client.ServiceClient` for workers pulling from
  a campaign service over HTTP on another machine —

so the campaign scheduler's local fan-out and ``repro.campaign run
--worker URL`` execute units through literally the same code path,
and results are bit-identical by construction (the unit payload and
:func:`~repro.campaign.scheduler.execute_unit` are shared).

Each :func:`run_worker` call starts one lease-renewal thread, and it
is the worker's only liveness signal.  While a unit runs, that thread
renews its lease every ``ttl / 3`` seconds, the first renewal one
period after the lease (which already granted a full TTL); between
units it sleeps.  When tracing is on, each unit emits one
``campaign.heartbeat`` event before it starts and one per renewal, so
the ``watch`` dashboard's default stale threshold, three beat
intervals, is the lease TTL itself: a unit is flagged stale exactly
when the queue may hand it to someone else.  A worker that dies stops
renewing and beating; after the TTL the queue re-leases the unit, and
the store's bit-for-bit resume discipline makes the retry exact.  A
unit that *raises* is reported ``failed`` — the loop itself survives
and pulls the next job.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional, Protocol

from repro import obs
from repro.campaign.jobs import (DEFAULT_LEASE_TTL, Completion, Job,
                                 default_worker_id)
from repro.util.logging import get_logger
from repro.util.validation import require

__all__ = ["QueueAPI", "WorkerStats", "run_worker", "DEFAULT_POLL_S"]

_log = get_logger("service.worker")

#: Seconds an idle worker sleeps between lease attempts while the
#: queue still has leased (in-flight) work that might come back.
DEFAULT_POLL_S = 0.2


class QueueAPI(Protocol):
    """The worker-facing queue verbs (local queue or HTTP client).

    ``complete`` with ``lease_next`` also leases the worker its next
    job from *scope* (a campaign id, or ``None`` for any) and reports
    whether that scope is drained, all in one call: one transaction on
    the local queue, one request over HTTP.  So :func:`run_worker`
    calls ``lease`` once, then completes-and-takes-next per unit; it
    calls ``lease`` again only after a failed unit or when no next job
    came back, and ``drained`` only when such a ``lease`` is empty.
    """

    def lease(self, worker: str, *, campaign_id: str | None = ...,
              ttl: float = ...) -> Optional[Job]: ...

    def heartbeat(self, campaign_id: str, key: str, worker: str, *,
                  ttl: float = ...) -> bool: ...

    def complete(self, campaign_id: str, key: str, worker: str, *,
                 spec: Mapping[str, Any], result: Mapping[str, Any],
                 label: str = ..., elapsed: float | None = ...,
                 resources: Mapping[str, float] | None = ...,
                 lease_next: bool = ..., scope: str | None = ...,
                 ttl: float = ...) -> Completion: ...

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


class _LeaseRenewal:
    """One worker's lease-renewal thread, shared by all its units.

    Inside :meth:`renewing` it renews the given job's lease every
    *interval* seconds, the first renewal one interval in, and emits a
    ``campaign.heartbeat`` event with each renewal; :meth:`renewing`
    emits the first beat itself, before the unit runs.  Nothing
    wakes the thread when a unit starts or ends: it never sleeps longer
    than one interval, so it is awake again by the first renewal's due
    time, and the unit's hot path costs two uncontended lock grabs.  A
    renewal runs under the lock, so once the block exits no renewal of
    that job is in flight.  A failed renewal (a network blip, a busy
    database) is logged and swallowed: the next one may succeed, and a
    lease that is really lost shows as a ``False`` completion.  The
    thread ends when the ``with`` block does.
    """

    def __init__(self, api: QueueAPI, worker: str, ttl: float) -> None:
        self.interval = max(ttl / 3.0, 0.05)
        self._renew = lambda job: api.heartbeat(job.campaign_id, job.key,
                                                worker, ttl=ttl)
        self._worker = worker
        self._cv = threading.Condition()
        self._job: Job | None = None
        self._due = 0.0
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name=f"lease-renewal-{worker}", daemon=True)

    def __enter__(self) -> "_LeaseRenewal":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        with self._cv:
            self._closed, self._job = True, None
            self._cv.notify()
        self._thread.join()

    @contextmanager
    def renewing(self, job: Job) -> Iterator[None]:
        self._emit(job)
        with self._cv:
            self._job, self._due = job, time.monotonic() + self.interval
        try:
            yield
        finally:
            with self._cv:
                self._job = None

    def _run(self) -> None:
        with self._cv:
            while not self._closed:
                if self._job is None:
                    self._cv.wait(self.interval)
                    continue
                delay = self._due - time.monotonic()
                if delay > 0:
                    self._cv.wait(delay)
                else:
                    self._beat(self._job)
                    self._due = time.monotonic() + self.interval

    def _beat(self, job: Job) -> None:
        try:
            self._renew(job)
        except Exception:
            _log.warning("lease renewal failed for %s", job.label,
                         exc_info=True)
        self._emit(job)

    def _emit(self, job: Job) -> None:
        obs.event("campaign.heartbeat", label=job.label, key=job.key,
                  interval=self.interval, worker=self._worker)


def _execute_leased(api: QueueAPI, job: Job, worker: str,
                    renewal: _LeaseRenewal, stats: WorkerStats, *,
                    lease_next: bool, scope: str | None,
                    ttl: float) -> Completion | None:
    """Run one leased job to completion (or failure) under renewal.

    Returns the completion, whose ``job`` is the worker's next lease
    when *lease_next* asked for one, or ``None`` when the unit failed.
    """
    from repro.campaign.scheduler import execute_unit

    payload = dict(job.payload or {})
    payload["_obs"] = {"label": job.label, "key": job.key}
    try:
        with renewal.renewing(job):
            outcome = execute_unit(payload)
    except Exception as exc:  # the unit failed, not the worker
        _log.warning("unit %s (%s) failed on worker %s: %s", job.label,
                     job.key[:12], worker, exc)
        api.fail(job.campaign_id, job.key, worker, f"{type(exc).__name__}: {exc}")
        stats.failed += 1
        return None
    done = api.complete(
        job.campaign_id, job.key, worker, spec=job.spec,
        result=outcome["result"], label=job.label,
        elapsed=outcome["elapsed"], resources=outcome.get("resources"),
        lease_next=lease_next, scope=scope, ttl=ttl)
    if done.ok:
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
    return done


def run_worker(api: QueueAPI, *, worker: str | None = None,
               campaign_id: str | None = None,
               lease_ttl: float = DEFAULT_LEASE_TTL,
               max_units: int | None = None,
               on_unit: Callable[[Job, bool], None] | None = None
               ) -> WorkerStats:
    """Pull and execute jobs until nothing is pending *or leased*.

    Each completion also leases the next job while *max_units* allows
    another, so a worker that keeps finding work makes one queue call
    per unit.  While in-flight work remains the worker sleeps
    :data:`DEFAULT_POLL_S` between lease attempts — this is how it
    waits out a *dead peer's* lease so it can reclaim the unit when the
    TTL expires.

    Parameters
    ----------
    api:
        A :class:`QueueAPI` — a local ``JobQueue`` or an HTTP
        service client.
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
                  campaign=campaign_id or ""), \
            _LeaseRenewal(api, worker, lease_ttl) as renewal:
        job: Job | None = None
        while max_units is None or stats.completed + stats.failed < max_units:
            if job is None:
                job = api.lease(worker, campaign_id=campaign_id,
                                ttl=lease_ttl)
                if job is None:
                    if api.drained(campaign_id):
                        break
                    time.sleep(DEFAULT_POLL_S)
                    continue
            stats.leased += 1
            lease_next = (max_units is None or
                          stats.completed + stats.failed + 1 < max_units)
            done = _execute_leased(api, job, worker, renewal, stats,
                                   lease_next=lease_next, scope=campaign_id,
                                   ttl=lease_ttl)
            if on_unit is not None:
                on_unit(job, done is not None)
            if done is not None and done.job is None and done.drained:
                break
            job = None if done is None else done.job
    stats.elapsed = time.perf_counter() - start
    _log.debug("worker %s: %d leased, %d completed, %d failed in %.3fs",
               worker, stats.leased, stats.completed, stats.failed,
               stats.elapsed)
    return stats
