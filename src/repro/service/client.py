"""Python client for the campaign service (stdlib ``http.client``).

:class:`ServiceClient` speaks the JSON protocol of
:mod:`repro.service.api` and exposes two faces:

* the **caller verbs** — :meth:`submit_plan`, :meth:`status`,
  :meth:`fetch_result`, :meth:`wait` — for scripts that submit work
  and collect results, and
* the **worker verbs** — ``lease`` / ``heartbeat`` / ``complete`` /
  ``fail`` / ``drained`` — the same :class:`~repro.service.worker.QueueAPI`
  surface as :class:`~repro.campaign.jobs.JobQueue`, so
  :func:`repro.service.worker.run_worker` drives an HTTP queue and a
  local SQLite queue through identical code.

Each thread keeps one persistent (keep-alive) connection per process:
it lives in a :class:`threading.local` tagged with the pid that opened
it, so a worker's lease-renewal thread never shares a socket with the
main thread, and a forked child opens its own connection instead of
writing into its parent's.  A thread's connection closes when the thread ends,
on :meth:`ServiceClient.close`, or when the client is used as a
context manager and the block exits.

A request is retried exactly once, and only when it was sent on a
*reused* connection that turns out dropped (``RemoteDisconnected``,
``ConnectionResetError``, ``BrokenPipeError``): that is a server that
closed an idle connection.  A failure on a fresh connection raises.
A dropped connection does not say whether the server ran the request,
so the retry must be safe when it did.  Submission is
content-addressed, heartbeat and fail are fenced on the lease holder,
and the GETs are read-only.  A repeated ``complete`` finds its unit
already done and answers ``ok=False``; the result is content-addressed,
so the stored bytes are the same whichever request wrote them.  A
repeated ``lease``, or a repeated ``complete`` that asked for the next
unit, claims a second unit while the lost reply's claim stays leased
to this worker, unreported: that orphaned lease is never renewed, and
once its TTL passes the unit is re-leased, exactly like a dead
worker's.

Transient transport failures on the *renewal* path are the lease
holder's problem by design (a missed heartbeat just shortens the
lease); everything else raises :class:`ServiceError` with the server's
error envelope attached.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
import weakref
from typing import Any, Mapping, Sequence
from urllib.parse import urlsplit

from repro.campaign.jobs import DEFAULT_LEASE_TTL, Completion, Job
from repro.campaign.plan import CampaignPlan
from repro.service.api import job_from_wire
from repro.util.logging import get_logger
from repro.util.validation import require

__all__ = ["ServiceClient", "ServiceError", "DEFAULT_TIMEOUT_S"]

_log = get_logger("service.client")

#: Per-request socket timeout.  Lease/complete calls are quick — the
#: *unit execution* happens between requests, never inside one.
DEFAULT_TIMEOUT_S = 30.0

#: How a reused connection fails when the server closed it while idle.
_DROPPED = (http.client.RemoteDisconnected, ConnectionResetError,
            BrokenPipeError)

_HEADERS = {"Content-Type": "application/json"}


class ServiceError(RuntimeError):
    """A non-2xx service response (carries status + server message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class _Held:
    """One thread's connection and the pid that opened it.

    Dropping it closes the connection, so a thread's socket goes when
    the thread ends (a finalizer, not ``__del__``: it runs before the
    socket's own, even when a reference cycle holds the client).  In a
    forked child the inherited copy is closed unused: that releases
    only the child's descriptor, and the parent's connection stays open.
    """

    def __init__(self, conn: http.client.HTTPConnection) -> None:
        self.conn = conn
        self.pid = os.getpid()
        weakref.finalize(self, conn.close)


class ServiceClient:
    """One campaign service endpoint, e.g. ``http://127.0.0.1:8642``."""

    def __init__(self, base_url: str, *,
                 timeout: float = DEFAULT_TIMEOUT_S) -> None:
        require(base_url.startswith(("http://", "https://")),
                f"service URL must be http(s), got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.base_url)
        self._connection_class = (http.client.HTTPSConnection
                                  if parts.scheme == "https"
                                  else http.client.HTTPConnection)
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()

    def __getstate__(self) -> dict[str, Any]:
        # A connection never travels: an unpickled copy opens its own.
        return {"base_url": self.base_url, "timeout": self.timeout}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(state["base_url"], timeout=state["timeout"])

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Close the calling thread's connection (the next call opens a
        new one)."""
        held, self._local.held = getattr(self._local, "held", None), None
        if held is not None:
            held.conn.close()

    # -- transport ----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        held = getattr(self._local, "held", None)
        if held is None or held.pid != os.getpid():
            held = self._local.held = _Held(self._connection_class(
                self._netloc, timeout=self.timeout))
        return held.conn

    def _exchange(self, method: str, path: str,
                  data: bytes | None) -> tuple[int, bytes]:
        """One request/response on the thread's connection."""
        while True:
            conn = self._connection()
            reused = conn.sock is not None
            try:
                conn.request(method, self._prefix + path, body=data,
                             headers=_HEADERS)
                response = conn.getresponse()
                return response.status, response.read()
            except BaseException as exc:
                # Whatever broke, the socket's state is unknown now.
                self.close()
                if not (reused and isinstance(exc, _DROPPED)):
                    raise
                # A dropped idle connection: the loop retries once, on
                # a fresh connection, whose failure raises.

    def _request(self, method: str, path: str,
                 body: Mapping[str, Any] | None = None
                 ) -> tuple[int, dict[str, Any]]:
        data = None if body is None else json.dumps(
            body, default=str).encode("utf-8")
        status, raw = self._exchange(method, path, data)
        if status == 204:
            return status, {}
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ServiceError(
                status, f"non-JSON response from {self.base_url}{path}"
            ) from exc
        if status >= 400:
            raise ServiceError(status, str(payload.get("error", raw[:200])))
        return status, payload

    # -- caller verbs -------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/v1/health")[1]

    def submit_plan(self, plan: CampaignPlan | Sequence[Any], *,
                    name: str = "", source: str = "client",
                    force: bool = False) -> dict[str, Any]:
        """Submit a plan's units; returns the campaign receipt.

        Only JSON-expressible payloads can travel (experiment units);
        a plan holding pickle-only payloads (sweep closures) must run
        locally and is rejected here, before any bytes move.
        """
        units = []
        for unit in plan:
            payload = None if unit.payload is None else dict(unit.payload)
            if payload is not None:
                try:
                    json.dumps(payload)
                except TypeError:
                    raise ValueError(
                        f"unit {unit.label!r} has a non-JSON payload "
                        "(sweep closures are local-only); run it with "
                        "run_campaign instead") from None
            units.append({"spec": dict(unit.spec), "payload": payload,
                          "label": unit.label, "key": unit.key})
        return self._request("POST", "/v1/campaigns", {
            "units": units, "name": name, "source": source,
            "force": force})[1]

    def campaigns(self) -> list[dict[str, Any]]:
        return self._request("GET", "/v1/campaigns")[1]["campaigns"]

    def status(self, campaign_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/campaigns/{campaign_id}")[1]

    def fetch_result(self, key: str) -> dict[str, Any] | None:
        """The full stored payload for *key*, or ``None`` if absent."""
        try:
            return self._request("GET", f"/v1/results/{key}")[1]["unit"]
        except ServiceError as exc:
            if exc.status == 404:
                return None
            raise

    def unit(self, key: str) -> dict[str, Any] | None:
        try:
            return self._request("GET", f"/v1/units/{key}")[1]
        except ServiceError as exc:
            if exc.status == 404:
                return None
            raise

    def wait(self, campaign_id: str, *, timeout: float = 300.0,
             poll: float = 0.2) -> dict[str, Any]:
        """Block until the campaign has nothing pending or leased.

        Polls the cheap ``drained`` verb every *poll* seconds and
        fetches the full status once, at the end.  Returns that final
        status payload; raises ``TimeoutError`` if the campaign is
        still moving when *timeout* elapses.
        """
        deadline = time.monotonic() + timeout
        while not self.drained(campaign_id):
            if time.monotonic() >= deadline:
                counts = self.status(campaign_id)["counts"]
                raise TimeoutError(
                    f"campaign {campaign_id} still has "
                    f"{counts['pending']} pending / {counts['leased']} "
                    f"leased unit(s) after {timeout:.0f}s")
            time.sleep(poll)
        return self.status(campaign_id)

    # -- worker verbs (the QueueAPI surface) --------------------------------

    def lease(self, worker: str, *, campaign_id: str | None = None,
              ttl: float = DEFAULT_LEASE_TTL) -> Job | None:
        path = "/v1/lease" if campaign_id is None \
            else f"/v1/campaigns/{campaign_id}/lease"
        status, payload = self._request("POST", path,
                                        {"worker": worker, "ttl": ttl})
        if status == 204:
            return None
        return job_from_wire(payload["job"])

    def heartbeat(self, campaign_id: str, key: str, worker: str, *,
                  ttl: float = DEFAULT_LEASE_TTL) -> bool:
        try:
            return bool(self._request(
                "POST", f"/v1/campaigns/{campaign_id}/heartbeat",
                {"worker": worker, "key": key, "ttl": ttl})[1].get("ok"))
        except (ServiceError, http.client.HTTPException, OSError) as exc:
            # A failed renewal is not fatal — the lease just isn't
            # extended this beat (see module docstring).
            _log.warning("heartbeat for %s failed: %s", key[:12], exc)
            return False

    def complete(self, campaign_id: str, key: str, worker: str, *,
                 spec: Mapping[str, Any], result: Mapping[str, Any],
                 label: str = "", elapsed: float | None = None,
                 resources: Mapping[str, float] | None = None,
                 lease_next: bool = False, scope: str | None = None,
                 ttl: float = DEFAULT_LEASE_TTL) -> Completion:
        reply = self._request(
            "POST", f"/v1/campaigns/{campaign_id}/complete",
            {"worker": worker, "key": key, "spec": dict(spec),
             "result": dict(result), "label": label, "elapsed": elapsed,
             "resources": None if resources is None else dict(resources),
             "lease_next": lease_next, "scope": scope, "ttl": ttl})[1]
        job = reply.get("job")
        return Completion(bool(reply.get("ok")),
                          None if job is None else job_from_wire(job),
                          bool(reply.get("drained")))

    def fail(self, campaign_id: str, key: str, worker: str,
             error: str) -> bool:
        return bool(self._request(
            "POST", f"/v1/campaigns/{campaign_id}/fail",
            {"worker": worker, "key": key, "error": error})[1].get("ok"))

    def drained(self, campaign_id: str | None = None) -> bool:
        path = "/v1/drained" if campaign_id is None \
            else f"/v1/campaigns/{campaign_id}/drained"
        return bool(self._request("GET", path)[1].get("drained"))
