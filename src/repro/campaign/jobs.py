"""Worker-pull job queue over the store backend.

The queue inverts the scheduler's old push model: campaigns are
*submitted* as rows in the ``jobs`` table (one per work unit, keyed by
the unit's content address), and workers — local processes, or remote
machines behind the HTTP service — *lease* pending jobs, heartbeat
while executing, and complete them into the result store.

Lease state machine::

    pending ──lease──▶ leased ──complete──▶ done
       ▲                 │  │
       │   lease expired │  └──fail──▶ failed   (resubmit retries)
       └─────────────────┘

A lease is a promise with a deadline: the worker extends it by
heartbeating, and a worker that stops beating — SIGKILL, OOM, network
partition — simply lets it expire, after which the job is claimable
again (``lease`` treats an expired lease exactly like ``pending``).
The store's bit-for-bit resume discipline makes the retry exact, so a
re-leased unit reproduces what the dead worker would have produced.

A worker asks for its next job in the same call that completes the
current one (:meth:`LocalQueueClient.complete` with ``lease_next``):
its job's ``leased → done`` edge and the next job's ``pending →
leased`` edge commit together, so a worker that keeps finding work
pays one queue transaction per unit and still holds one lease at a
time.

Everything here runs inside the backend's transactions; every claim
(:func:`_claim`, shared by ``lease`` and ``complete``) runs in an
*immediate* transaction so two workers can never claim the same job,
no matter how many processes are pulling.

Submission is idempotent: a campaign's identity is the content address
of its unit-key set, so resubmitting an identical plan converges on
the same rows — units already in the store are marked ``done`` (cached)
on the spot and are never recomputed.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import os
import sqlite3
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro import obs
from repro.campaign.backend import SqliteWalBackend
from repro.campaign.store import (ResultStore, _register, canonical_json,
                                  unit_key)
from repro.util.logging import get_logger
from repro.util.validation import require

__all__ = ["Job", "JobQueue", "SubmitReceipt", "Completion",
           "LocalQueueClient",
           "default_worker_id", "DEFAULT_LEASE_TTL", "MAX_ATTEMPTS",
           "JOB_STATES", "PAYLOAD_CODECS"]

_log = get_logger("campaign.jobs")

#: Seconds a lease lives without a heartbeat before the job becomes
#: claimable again.  Workers beat every ``ttl / 3``, so three missed
#: beats forfeit the lease.
DEFAULT_LEASE_TTL = 30.0

#: Lease attempts after which a job is marked ``failed`` instead of
#: handed out again — the backstop against a unit that kills every
#: worker that touches it.
MAX_ATTEMPTS = 5

JOB_STATES = ("pending", "leased", "done", "failed")
PAYLOAD_CODECS = ("json", "pickle")

_JOB_COLUMNS = ("campaign_id", "key", "label", "kind", "spec", "payload",
                "codec", "state", "cached", "attempts", "worker",
                "lease_expires", "error", "submitted_at", "updated_at")
_JOB_SELECT = f"SELECT {', '.join(_JOB_COLUMNS)} FROM jobs"


def default_worker_id() -> str:
    """A worker identity unique enough for lease attribution."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _encode_payload(payload: Mapping[str, Any] | None) -> tuple[str | None, str]:
    """Payload -> ``(text, codec)``.

    JSON when the payload round-trips (experiment units — the only
    codec the HTTP service will serve to remote workers), pickle for
    local-only payloads that carry callables (sweep points).
    """
    if payload is None:
        return None, "json"
    clean = dict(payload)
    clean.pop("_obs", None)  # telemetry identity is re-attached at lease
    try:
        return json.dumps(clean, sort_keys=True), "json"
    except TypeError:
        return base64.b64encode(pickle.dumps(clean)).decode("ascii"), "pickle"


def _decode_payload(text: str | None, codec: str) -> dict[str, Any] | None:
    if text is None:
        return None
    require(codec in PAYLOAD_CODECS, f"unknown payload codec: {codec!r}")
    if codec == "json":
        return json.loads(text)
    return pickle.loads(base64.b64decode(text.encode("ascii")))


@dataclass(frozen=True)
class Job:
    """One queue row, payload decoded and ready to execute."""

    campaign_id: str
    key: str
    label: str
    kind: str
    spec: Mapping[str, Any]
    payload: Mapping[str, Any] | None
    codec: str
    state: str
    cached: bool
    attempts: int
    worker: str | None
    lease_expires: float | None
    error: str | None
    submitted_at: float
    updated_at: float

    @classmethod
    def from_row(cls, row: Sequence[Any]) -> "Job":
        values = dict(zip(_JOB_COLUMNS, row))
        values["spec"] = json.loads(values["spec"])
        values["payload"] = _decode_payload(values["payload"], values["codec"])
        values["cached"] = bool(values["cached"])
        return cls(**values)

    def status_row(self) -> dict[str, Any]:
        """The JSON-safe row the status APIs expose (no payload)."""
        return {
            "campaign_id": self.campaign_id, "key": self.key,
            "label": self.label, "kind": self.kind, "state": self.state,
            "cached": self.cached, "attempts": self.attempts,
            "worker": self.worker, "lease_expires": self.lease_expires,
            "error": self.error, "updated_at": self.updated_at,
        }


@dataclass(frozen=True)
class SubmitReceipt:
    """What a submission did: the campaign id plus per-state counts."""

    campaign_id: str
    total: int
    cached: int
    pending: int
    leased: int
    done: int
    failed: int

    @property
    def complete(self) -> bool:
        return self.done + self.failed == self.total


@dataclass(frozen=True)
class Completion:
    """What a ``complete`` call did (:meth:`LocalQueueClient.complete`,
    and the HTTP client's ``complete`` over the service).

    ``ok`` is ``True`` when this call flipped the job to ``done``
    (``False``: it already was, after a lost lease or a retried
    request).  ``job`` is the worker's next lease, taken in the same
    transaction when one was asked for and one was claimable.
    ``drained`` says the lease scope has nothing pending and nothing
    leased, so a worker handed no job can stop without asking again.
    """

    ok: bool
    job: Job | None
    drained: bool


def campaign_id_for(keys: Iterable[str]) -> str:
    """The campaign's content address: hash of its unit-key *set*.

    Identical plans — whatever order, whoever submits — share one id,
    which is what makes submission idempotent.
    """
    body = canonical_json({"keys": sorted(keys)})
    return unit_key({"campaign": body})[:16]


def _counts(db: sqlite3.Connection,
            campaign_id: str | None) -> dict[str, int]:
    """Per-state job counts (plus ``total`` and ``cached``)."""
    scope, args = "", []
    if campaign_id is not None:
        scope, args = " WHERE campaign_id = ?", [campaign_id]
    rows = db.execute(
        f"SELECT state, COUNT(*), SUM(cached) FROM jobs{scope} "
        f"GROUP BY state", args).fetchall()
    counts = {state: 0 for state in JOB_STATES}
    cached = 0
    for state, count, cached_count in rows:
        counts[state] = count
        cached += cached_count or 0
    counts["total"] = sum(counts[state] for state in JOB_STATES)
    counts["cached"] = cached
    return counts


def _drained(db: sqlite3.Connection, campaign_id: str | None) -> bool:
    """No job in scope is ``pending`` or ``leased``."""
    scope, args = "", []
    if campaign_id is not None:
        scope, args = " AND campaign_id = ?", [campaign_id]
    return db.execute(
        f"SELECT 1 FROM jobs WHERE state IN ('pending', 'leased'){scope} "
        f"LIMIT 1", args).fetchone() is None


def _claim(db: sqlite3.Connection, worker: str, now: float, ttl: float, *,
           campaign_id: str | None, codecs: Sequence[str]) -> Job | None:
    """Lease the oldest claimable job to *worker* inside the caller's
    immediate transaction; returns the row as it was before the claim
    (``None``: nothing claimable).

    Claimable means ``pending`` or ``leased`` with an expired lease,
    and a codec in *codecs*.  Jobs out of retry budget are flipped to
    ``failed`` instead of handed out.
    """
    placeholders = ", ".join("?" * len(codecs))
    claimable = ("state = 'pending' OR "
                 "(state = 'leased' AND lease_expires < ?)")
    scope, scope_args = "", []
    if campaign_id is not None:
        scope, scope_args = " AND campaign_id = ?", [campaign_id]
    db.execute(
        f"UPDATE jobs SET state = 'failed', worker = NULL, "
        f"lease_expires = NULL, updated_at = ?, "
        f"error = 'retry budget exhausted "
        f"({MAX_ATTEMPTS} lease attempts)' "
        f"WHERE ({claimable}) AND attempts >= ?{scope}",
        [now, now, MAX_ATTEMPTS, *scope_args])
    row = db.execute(
        f"{_JOB_SELECT} WHERE ({claimable}) "
        f"AND codec IN ({placeholders}){scope} "
        f"ORDER BY submitted_at, key LIMIT 1",
        [now, *codecs, *scope_args]).fetchone()
    if row is None:
        return None
    job = Job.from_row(row)
    db.execute(
        "UPDATE jobs SET state = 'leased', worker = ?, "
        "lease_expires = ?, attempts = attempts + 1, "
        "updated_at = ? WHERE campaign_id = ? AND key = ?",
        (worker, now + ttl, now, job.campaign_id, job.key))
    return job


def _handed_out(claimed: Job, worker: str, now: float, ttl: float) -> Job:
    """Announce a committed :func:`_claim`; returns the leased job."""
    if claimed.state == "leased":
        _log.warning("lease on %s (%s) expired under worker %s; "
                     "re-leased to %s", claimed.label, claimed.key[:12],
                     claimed.worker, worker)
        obs.event("campaign.lease", status="reclaimed", label=claimed.label,
                  key=claimed.key, worker=worker, previous=claimed.worker)
        obs.counter("campaign.lease.reclaimed")
    obs.event("campaign.unit", status="leased", label=claimed.label,
              key=claimed.key, worker=worker)
    return Job(**{**claimed.__dict__, "state": "leased", "worker": worker,
                  "lease_expires": now + ttl,
                  "attempts": claimed.attempts + 1, "updated_at": now})


def _mark_done(db: sqlite3.Connection, campaign_id: str, key: str,
               worker: str, now: float) -> bool:
    """Flip one job to ``done`` inside the caller's transaction;
    ``False`` when it already was."""
    cursor = db.execute(
        "UPDATE jobs SET state = 'done', worker = ?, "
        "lease_expires = NULL, error = NULL, updated_at = ? "
        "WHERE campaign_id = ? AND key = ? AND state != 'done'",
        (worker, now, campaign_id, key))
    return cursor.rowcount > 0


class JobQueue:
    """The jobs/campaigns tables in one :class:`SqliteWalBackend`.

    *clock* (seconds since the epoch) stamps every row and decides
    which leases have expired; tests pass a fake one to step time.
    """

    def __init__(self, backend: SqliteWalBackend, *,
                 clock: Callable[[], float] = time.time) -> None:
        self.backend = backend
        self.clock = clock

    # -- submission ---------------------------------------------------------

    def submit(self, units: Sequence[Any], store: ResultStore, *,
               name: str = "", source: str = "local",
               force: bool = False) -> SubmitReceipt:
        """Upsert one job per work unit; returns the campaign receipt.

        *units* is any sequence of objects with ``spec`` / ``payload``
        / ``label`` / ``key`` / ``kind`` attributes (a
        :class:`~repro.campaign.plan.CampaignPlan` qualifies).  Units
        whose key is already in *store* are recorded ``done`` (cached)
        immediately — the hot-result path that serves identical
        queries for free.  Resubmission converges: ``done`` rows whose
        object vanished reset to ``pending``, ``failed`` rows get a
        fresh retry budget, in-flight leases are left alone.
        """
        require(len(units) > 0, "a campaign needs at least one unit")
        cid = campaign_id_for([unit.key for unit in units])
        now = self.clock()
        planned: list[Any] = []
        with self.backend.transaction(immediate=True) as db:
            db.execute(
                "INSERT INTO campaigns VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(campaign_id) DO UPDATE SET "
                "last_submitted_at = excluded.last_submitted_at",
                (cid, name, source, len(units), now, now))
            for unit in units:
                cached = (not force) and unit.key in store
                payload_text, codec = _encode_payload(unit.payload)
                state = "done" if cached else "pending"
                row = db.execute(
                    "SELECT state FROM jobs WHERE campaign_id = ? AND key = ?",
                    (cid, unit.key)).fetchone()
                if row is None:
                    db.execute(
                        f"INSERT INTO jobs ({', '.join(_JOB_COLUMNS)}) "
                        f"VALUES ({', '.join('?' * len(_JOB_COLUMNS))})",
                        (cid, unit.key, unit.label, unit.kind,
                         canonical_json(unit.spec), payload_text, codec,
                         state, int(cached), 0, "cache" if cached else None,
                         None, None, now, now))
                    if not cached:
                        planned.append(unit)
                    continue
                previous = row[0]
                if force or (previous in ("done", "failed") and not cached):
                    # Recompute: forced, the store lost the object, or a
                    # failed unit is getting its resubmission retry.
                    db.execute(
                        "UPDATE jobs SET state = 'pending', cached = 0, "
                        "attempts = 0, worker = NULL, lease_expires = NULL, "
                        "error = NULL, updated_at = ? "
                        "WHERE campaign_id = ? AND key = ?",
                        (now, cid, unit.key))
                    planned.append(unit)
                elif cached:
                    # The store can serve it: mark done-from-cache (also
                    # flips the cached flag on previously *computed* rows
                    # — on resubmission they are cache hits).
                    db.execute(
                        "UPDATE jobs SET state = 'done', cached = 1, "
                        "worker = 'cache', lease_expires = NULL, "
                        "error = NULL, updated_at = ? "
                        "WHERE campaign_id = ? AND key = ? "
                        "AND state != 'leased'",
                        (now, cid, unit.key))
            receipt = SubmitReceipt(campaign_id=cid, **_counts(db, cid))
        for unit in planned:
            obs.event("campaign.unit", status="planned", label=unit.label,
                      key=unit.key)
        _log.debug("submit %s: %d units (%d cached, %d pending)", cid,
                   receipt.total, receipt.cached, receipt.pending)
        return receipt

    # -- the lease lifecycle ------------------------------------------------

    def lease(self, worker: str, *, campaign_id: str | None = None,
              ttl: float = DEFAULT_LEASE_TTL,
              codecs: Sequence[str] = PAYLOAD_CODECS) -> Job | None:
        """Atomically claim one claimable job for *worker*, or ``None``.

        Claimable means ``pending`` or ``leased`` with an expired
        lease; the oldest submission wins.  *codecs* restricts what the
        caller can execute — the HTTP service passes ``("json",)`` so
        remote workers are never handed a pickle.  Jobs out of retry
        budget are flipped to ``failed`` instead of handed out.
        """
        require(ttl > 0, "lease ttl must be > 0")
        now = self.clock()
        with self.backend.transaction(immediate=True) as db:
            claimed = _claim(db, worker, now, ttl, campaign_id=campaign_id,
                             codecs=codecs)
        return None if claimed is None \
            else _handed_out(claimed, worker, now, ttl)

    def heartbeat(self, campaign_id: str, key: str, worker: str, *,
                  ttl: float = DEFAULT_LEASE_TTL) -> bool:
        """Extend *worker*'s lease; ``False`` means the lease was lost
        (expired and re-claimed, or the job already completed)."""
        now = self.clock()
        with self.backend.transaction(immediate=True) as db:
            cursor = db.execute(
                "UPDATE jobs SET lease_expires = ?, updated_at = ? "
                "WHERE campaign_id = ? AND key = ? AND state = 'leased' "
                "AND worker = ?",
                (now + ttl, now, campaign_id, key, worker))
            return cursor.rowcount > 0

    def complete(self, campaign_id: str, key: str, worker: str) -> bool:
        """Mark a job ``done`` (the result must already be in the store).

        Idempotent and lease-tolerant: a worker whose lease expired
        mid-unit may still complete — the result is content-addressed,
        so whoever finishes first wins and later completions are
        harmless no-ops (``False``).
        """
        with self.backend.transaction(immediate=True) as db:
            return _mark_done(db, campaign_id, key, worker, self.clock())

    def fail(self, campaign_id: str, key: str, worker: str,
             error: str) -> bool:
        """Mark *worker*'s leased job ``failed`` (kept for forensics;
        resubmission or a later successful completion clears it).

        Fenced on the lease holder, like :meth:`heartbeat`: ``False``
        means *worker* no longer holds the lease (it expired and was
        re-claimed, or the job already finished), so a stale worker
        cannot fail a unit its successor is still running."""
        now = self.clock()
        with self.backend.transaction(immediate=True) as db:
            row = db.execute(
                "SELECT label FROM jobs WHERE campaign_id = ? AND key = ?",
                (campaign_id, key)).fetchone()
            cursor = db.execute(
                "UPDATE jobs SET state = 'failed', "
                "lease_expires = NULL, error = ?, updated_at = ? "
                "WHERE campaign_id = ? AND key = ? AND state = 'leased' "
                "AND worker = ?",
                (error, now, campaign_id, key, worker))
        if cursor.rowcount:
            obs.event("campaign.unit", status="error",
                      label=row[0] if row else key[:12],
                      key=key, worker=worker, error=error)
        return cursor.rowcount > 0

    def reap(self) -> list[Job]:
        """Flip expired leases back to ``pending``; returns what moved.

        ``lease`` already treats expired leases as claimable, so
        reaping is not required for progress — it exists so monitors
        (the scheduler's parent loop, the service) can surface dead
        workers promptly instead of at the next lease attempt.
        """
        now = self.clock()
        with self.backend.transaction(immediate=True) as db:
            rows = db.execute(
                f"{_JOB_SELECT} WHERE state = 'leased' AND lease_expires < ?",
                (now,)).fetchall()
            expired = [Job.from_row(row) for row in rows]
            if expired:
                db.execute(
                    "UPDATE jobs SET state = 'pending', worker = NULL, "
                    "lease_expires = NULL, updated_at = ? "
                    "WHERE state = 'leased' AND lease_expires < ?",
                    (now, now))
        for job in expired:
            _log.warning("reaped expired lease on %s (%s) from worker %s",
                         job.label, job.key[:12], job.worker)
            obs.event("campaign.lease", status="expired", label=job.label,
                      key=job.key, worker=job.worker)
        return expired

    # -- queries ------------------------------------------------------------

    def counts(self, campaign_id: str | None = None) -> dict[str, int]:
        """Per-state job counts (plus ``total`` and ``cached``)."""
        with self.backend.transaction() as db:
            return _counts(db, campaign_id)

    def drained(self, campaign_id: str | None = None) -> bool:
        """No work left to pull: nothing pending, nothing leased."""
        with self.backend.transaction() as db:
            return _drained(db, campaign_id)

    def campaign_drained(self, campaign_id: str) -> bool | None:
        """:meth:`drained` for one campaign, ``None`` when the id was
        never submitted; one transaction."""
        with self.backend.transaction() as db:
            if db.execute("SELECT 1 FROM campaigns WHERE campaign_id = ?",
                          (campaign_id,)).fetchone() is None:
                return None
            return _drained(db, campaign_id)

    def jobs(self, campaign_id: str | None = None, *,
             state: str | None = None) -> list[Job]:
        """Queue rows, oldest submission first."""
        clauses, args = [], []
        if campaign_id is not None:
            clauses.append("campaign_id = ?")
            args.append(campaign_id)
        if state is not None:
            require(state in JOB_STATES, f"unknown job state: {state!r}")
            clauses.append("state = ?")
            args.append(state)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with self.backend.transaction() as db:
            rows = db.execute(
                f"{_JOB_SELECT}{where} ORDER BY submitted_at, key",
                args).fetchall()
        return [Job.from_row(row) for row in rows]

    def job(self, campaign_id: str, key: str) -> Job | None:
        with self.backend.transaction() as db:
            row = db.execute(
                f"{_JOB_SELECT} WHERE campaign_id = ? AND key = ?",
                (campaign_id, key)).fetchone()
        return None if row is None else Job.from_row(row)

    def jobs_for_key(self, key: str) -> list[Job]:
        """Every campaign's job row for one content address."""
        with self.backend.transaction() as db:
            rows = db.execute(
                f"{_JOB_SELECT} WHERE key = ? ORDER BY submitted_at",
                (key,)).fetchall()
        return [Job.from_row(row) for row in rows]

    def campaigns(self) -> list[dict[str, Any]]:
        """Every submitted campaign, oldest first."""
        with self.backend.transaction() as db:
            rows = db.execute(
                "SELECT campaign_id, name, source, units, submitted_at, "
                "last_submitted_at FROM campaigns ORDER BY submitted_at"
            ).fetchall()
        return [dict(zip(("campaign_id", "name", "source", "units",
                          "submitted_at", "last_submitted_at"), row))
                for row in rows]

    def campaign_status(self, campaign_id: str) -> dict[str, Any] | None:
        """Counts plus per-unit rows for one campaign (``None`` when
        the id was never submitted)."""
        with self.backend.transaction() as db:
            row = db.execute(
                "SELECT campaign_id, name, source, units, submitted_at, "
                "last_submitted_at FROM campaigns WHERE campaign_id = ?",
                (campaign_id,)).fetchone()
        if row is None:
            return None
        status = dict(zip(("campaign_id", "name", "source", "units",
                           "submitted_at", "last_submitted_at"), row))
        status["counts"] = self.counts(campaign_id)
        status["units_detail"] = [job.status_row()
                                  for job in self.jobs(campaign_id)]
        return status


class LocalQueueClient:
    """Direct (in-process) queue access with store-backed completion.

    The local twin of :class:`repro.service.client.ServiceClient`: both
    expose the worker verbs (``lease`` / ``heartbeat`` / ``complete`` /
    ``fail`` / ``drained``), so :func:`repro.service.worker.run_worker`
    drives either without knowing whether the queue is a local SQLite
    file or an HTTP service.
    """

    def __init__(self, store: ResultStore,
                 queue: JobQueue | None = None) -> None:
        self.store = store
        self.queue = queue if queue is not None else JobQueue(store.backend)

    def lease(self, worker: str, *, campaign_id: str | None = None,
              ttl: float = DEFAULT_LEASE_TTL) -> Job | None:
        return self.queue.lease(worker, campaign_id=campaign_id, ttl=ttl)

    def heartbeat(self, campaign_id: str, key: str, worker: str, *,
                  ttl: float = DEFAULT_LEASE_TTL) -> bool:
        return self.queue.heartbeat(campaign_id, key, worker, ttl=ttl)

    def complete(self, campaign_id: str, key: str, worker: str, *,
                 spec: Mapping[str, Any], result: Mapping[str, Any],
                 label: str = "", elapsed: float | None = None,
                 resources: Mapping[str, float] | None = None,
                 lease_next: bool = False, scope: str | None = None,
                 ttl: float = DEFAULT_LEASE_TTL,
                 codecs: Sequence[str] = PAYLOAD_CODECS) -> Completion:
        """Checkpoint the result into the store, mark the job done and,
        with *lease_next*, lease *worker* its next job.

        The object file is published first; its index row, the job's
        ``done`` flip, the next claim (from *scope*, a campaign id or
        ``None`` for any, as :meth:`JobQueue.lease` takes it, for *ttl*
        seconds and only *codecs*) and the drained check of *scope*
        then commit in one immediate transaction.  A crash in between
        leaves the job leased (its lease expires and it is handed out
        again) and an object :meth:`ResultStore.reconcile`
        re-registers.
        """
        spec_key = unit_key(spec)
        require(spec_key == key, f"completion key mismatch: job {key[:12]} "
                f"vs spec {spec_key[:12]}")
        require(ttl > 0, "lease ttl must be > 0")
        with obs.span("store.put", key=key[:12], label=label):
            row = self.store._publish(key, spec, result, label=label,
                                      elapsed=elapsed, resources=resources)
            now = self.queue.clock()
            with self.queue.backend.transaction(immediate=True) as db:
                _register(db, row)
                completed = _mark_done(db, campaign_id, key, worker, now)
                claimed = None if not lease_next else _claim(
                    db, worker, now, ttl, campaign_id=scope, codecs=codecs)
                drained = claimed is None and _drained(db, scope)
        obs.counter("campaign.cache.miss")
        obs.event("campaign.unit", status="checkpointed", label=label,
                  key=key)
        if elapsed is not None:
            obs.histogram("campaign.unit_elapsed_s", elapsed, label=label)
        _log.debug("checkpointed %s (%s) in %.3fs", label, key[:12],
                   elapsed if elapsed is not None else float("nan"))
        job = None if claimed is None \
            else _handed_out(claimed, worker, now, ttl)
        return Completion(completed, job, drained)

    def fail(self, campaign_id: str, key: str, worker: str,
             error: str) -> bool:
        return self.queue.fail(campaign_id, key, worker, error)

    def drained(self, campaign_id: str | None = None) -> bool:
        return self.queue.drained(campaign_id)
