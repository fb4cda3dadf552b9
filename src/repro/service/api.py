"""The campaign service: a stdlib HTTP facade over store + job queue.

One :class:`CampaignService` wraps a result store and its job queue
and serves the whole campaign protocol to remote clients:

====== ================================== ================================
Verb   Path                               Meaning
====== ================================== ================================
GET    ``/v1/health``                     liveness + schema versions
POST   ``/v1/campaigns``                  submit a plan (idempotent)
GET    ``/v1/campaigns``                  list submitted campaigns
GET    ``/v1/campaigns/{id}``             counts + per-unit status rows
GET    ``/v1/campaigns/{id}/drained``     nothing pending or leased?
POST   ``/v1/campaigns/{id}/lease``       claim one unit (204 = none)
POST   ``/v1/campaigns/{id}/heartbeat``   renew a lease
POST   ``/v1/campaigns/{id}/complete``    checkpoint a result, and claim
                                          the worker's next unit
POST   ``/v1/campaigns/{id}/fail``        report a unit failure
POST   ``/v1/lease``                      claim across all campaigns
GET    ``/v1/drained``                    nothing pending or leased
                                          in any campaign?
GET    ``/v1/results/{key}``              fetch a stored payload by key
GET    ``/v1/units/{key}``                every campaign's row for a key
====== ================================== ================================

Every response is a JSON envelope stamped with the frozen
``repro.service.api`` schema markers (:mod:`repro.campaign.schema`).
The server is :class:`http.server.ThreadingHTTPServer` — no new
dependencies — and every request thread checks a connection out of
the backend's pool for each transaction (concurrent requests get
connections of their own), so request concurrency rides on WAL +
busy-timeout like every other store client.

Three deliberate protocol choices:

* **Leases only ever hand out JSON-codec payloads** (``codecs=
  ("json",)``): pickles never cross the wire, so a malicious or
  confused worker cannot be handed arbitrary code, and sweep closures
  stay local by construction.
* **Completion goes through the store on the server side**
  (:meth:`~repro.campaign.jobs.JobQueue.complete`), so the
  content-address check, the obs events, and the atomic object publish
  are identical whether a unit was computed in-process, in a forked
  worker, or on another machine.
* **A completion can carry the next lease.**  A ``complete`` body with
  ``"lease_next": true`` claims the worker's next unit from its
  ``"scope"`` (a campaign id, or ``null`` for any) in the transaction
  that marks the finished one done; the reply is ``{ok, job | null,
  drained}`` (:data:`~repro.campaign.schema.COMPLETION_FIELDS`).  A
  worker that keeps finding work makes one request per unit, and
  ``drained`` lets it stop without asking again.  The claim is the
  ``lease`` verb's own (JSON codec only), and a worker still holds one
  live lease at a time.

The server binds ``127.0.0.1`` by default: exposing it wider is an
explicit operator decision (there is no auth layer).
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping

from repro.campaign.jobs import (DEFAULT_LEASE_TTL, Job, JobQueue,
                                 KeyMismatch)
from repro.campaign.migrations import SCHEMA_VERSION, chain_fingerprint
from repro.campaign.plan import WorkUnit
from repro.campaign.schema import SERVICE_SCHEMA, SERVICE_SCHEMA_VERSION
from repro.campaign.store import ResultStore, unit_key
from repro.util.logging import get_logger
from repro.util.validation import require

__all__ = ["CampaignService", "ServiceServer", "serve", "job_to_wire",
           "job_from_wire", "DEFAULT_HOST", "DEFAULT_PORT"]

_log = get_logger("service.api")

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Submission size backstop: one request, not a bulk-loading protocol.
MAX_BODY_BYTES = 32 * 1024 * 1024


class _ApiError(Exception):
    """An error the handler turns into a JSON error envelope."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _envelope(body: Mapping[str, Any]) -> dict[str, Any]:
    return {"schema": SERVICE_SCHEMA,
            "schema_version": SERVICE_SCHEMA_VERSION, **body}


def job_to_wire(job: Job) -> dict[str, Any]:
    """A leased job as its JSON wire form (payload included)."""
    require(job.codec == "json",
            f"refusing to serialise a {job.codec!r}-codec payload "
            "over the wire")
    return {"campaign_id": job.campaign_id, "key": job.key,
            "label": job.label, "kind": job.kind, "spec": dict(job.spec),
            "payload": None if job.payload is None else dict(job.payload),
            "codec": job.codec, "state": job.state, "cached": job.cached,
            "attempts": job.attempts, "worker": job.worker,
            "lease_expires": job.lease_expires, "error": job.error,
            "submitted_at": job.submitted_at, "updated_at": job.updated_at}


def job_from_wire(wire: Mapping[str, Any]) -> Job:
    """Rebuild a :class:`Job` from its wire form (client side)."""
    return Job(**{name: wire[name] for name in (
        "campaign_id", "key", "label", "kind", "spec", "payload", "codec",
        "state", "cached", "attempts", "worker", "lease_expires", "error",
        "submitted_at", "updated_at")})


class CampaignService:
    """The service's verbs, independent of HTTP plumbing.

    Each method returns a JSON-safe dict (already enveloped) or raises
    :class:`_ApiError`; the HTTP handler is a thin router over them,
    which keeps the protocol testable without sockets.
    """

    def __init__(self, store: ResultStore, *,
                 default_lease_ttl: float = DEFAULT_LEASE_TTL) -> None:
        self.store = store
        self.queue = JobQueue(store)
        self.default_lease_ttl = default_lease_ttl

    # -- verbs --------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return _envelope({
            "status": "ok",
            "store": str(self.store.root),
            "store_schema_version": SCHEMA_VERSION,
            "migration_fingerprint": chain_fingerprint(),
            "objects": len(self.store),
        })

    def submit(self, body: Mapping[str, Any]) -> dict[str, Any]:
        raw_units = body.get("units")
        if not isinstance(raw_units, list) or not raw_units:
            raise _ApiError(400, "submission needs a non-empty 'units' list")
        units: list[WorkUnit] = []
        seen: set[str] = set()
        for raw in raw_units:
            if not isinstance(raw, dict) or "spec" not in raw:
                raise _ApiError(400, "each unit needs at least a 'spec'")
            spec = raw["spec"]
            if not isinstance(spec, dict) or "kind" not in spec:
                raise _ApiError(400, "unit spec must be an object with "
                                "a 'kind'")
            key = unit_key(spec)
            if raw.get("key") not in (None, key):
                raise _ApiError(409, f"unit key mismatch: client said "
                                f"{str(raw.get('key'))[:12]}, spec hashes "
                                f"to {key[:12]}")
            if key in seen:
                continue  # same spec twice is the same work
            seen.add(key)
            units.append(WorkUnit(spec=spec, payload=raw.get("payload"),
                                  label=str(raw.get("label", "")), key=key))
        receipt = self.queue.submit(
            units, name=str(body.get("name", "")),
            source=str(body.get("source", "http")),
            force=bool(body.get("force", False)))
        return _envelope({"campaign_id": receipt.campaign_id,
                          "total": receipt.total, "cached": receipt.cached,
                          "pending": receipt.pending,
                          "leased": receipt.leased, "done": receipt.done,
                          "failed": receipt.failed,
                          "complete": receipt.complete})

    def campaigns(self) -> dict[str, Any]:
        return _envelope({"campaigns": self.queue.campaigns()})

    def campaign(self, campaign_id: str) -> dict[str, Any]:
        status = self.queue.campaign_status(campaign_id)
        if status is None:
            raise _ApiError(404, f"unknown campaign {campaign_id!r}")
        return _envelope(status)

    def drained(self, campaign_id: str | None) -> dict[str, Any]:
        if campaign_id is None:
            return _envelope({"drained": self.queue.drained()})
        drained = self.queue.campaign_drained(campaign_id)
        if drained is None:
            raise _ApiError(404, f"unknown campaign {campaign_id!r}")
        return _envelope({"drained": drained})

    def lease(self, campaign_id: str | None,
              body: Mapping[str, Any]) -> dict[str, Any] | None:
        worker = str(body.get("worker") or "")
        if not worker:
            raise _ApiError(400, "lease needs a 'worker' id")
        ttl = float(body.get("ttl") or self.default_lease_ttl)
        if ttl <= 0:
            raise _ApiError(400, "lease ttl must be > 0")
        # JSON only: a pickle payload never crosses the wire.
        job = self.queue.lease(worker, campaign_id=campaign_id, ttl=ttl,
                               codecs=("json",))
        if job is None:
            return None  # -> 204
        return _envelope({"job": job_to_wire(job)})

    def heartbeat(self, campaign_id: str,
                  body: Mapping[str, Any]) -> dict[str, Any]:
        worker, key, ttl = self._worker_key(body)
        ok = self.queue.heartbeat(campaign_id, key, worker, ttl=ttl)
        return _envelope({"ok": ok})

    def complete(self, campaign_id: str,
                 body: Mapping[str, Any]) -> dict[str, Any]:
        worker, key, ttl = self._worker_key(body)
        spec, result = body.get("spec"), body.get("result")
        if not isinstance(spec, dict) or not isinstance(result, dict):
            raise _ApiError(400, "completion needs 'spec' and 'result' "
                            "objects")
        scope = body.get("scope")
        if scope is not None and not isinstance(scope, str):
            raise _ApiError(400, "completion 'scope' must be a campaign id "
                            "or null")
        if ttl <= 0:
            raise _ApiError(400, "lease ttl must be > 0")
        resources = body.get("resources")
        # JSON only, like the lease verb: a pickle never crosses the wire.
        # The queue hashes the spec once and refuses a mismatched key.
        try:
            done = self.queue.complete(
                campaign_id, key, worker, spec=spec, result=result,
                label=str(body.get("label", "")),
                elapsed=body.get("elapsed"),
                resources=resources if isinstance(resources, dict) else None,
                lease_next=bool(body.get("lease_next")), scope=scope,
                ttl=ttl, codecs=("json",))
        except KeyMismatch as exc:
            raise _ApiError(409, str(exc)) from exc
        return _envelope({
            "ok": done.ok, "drained": done.drained,
            "job": None if done.job is None else job_to_wire(done.job)})

    def fail(self, campaign_id: str,
             body: Mapping[str, Any]) -> dict[str, Any]:
        worker, key, _ = self._worker_key(body)
        ok = self.queue.fail(campaign_id, key, worker,
                             str(body.get("error", "unknown error")))
        return _envelope({"ok": ok})

    def result(self, key: str) -> dict[str, Any]:
        if not re.fullmatch(r"[0-9a-f]{64}", key):
            raise _ApiError(400, f"malformed result key {key!r}")
        payload = self.store.get(key)
        if payload is None:
            raise _ApiError(404, f"no stored result for {key[:12]}")
        return _envelope({"unit": payload})

    def unit(self, key: str) -> dict[str, Any]:
        if not re.fullmatch(r"[0-9a-f]{64}", key):
            raise _ApiError(400, f"malformed unit key {key!r}")
        rows = [job.status_row() for job in self.queue.jobs_for_key(key)]
        if not rows:
            raise _ApiError(404, f"no campaign references unit {key[:12]}")
        return _envelope({"jobs": rows, "stored": key in self.store})

    def _worker_key(self, body: Mapping[str, Any]) -> tuple[str, str, float]:
        worker = str(body.get("worker") or "")
        key = str(body.get("key") or "")
        if not worker or not key:
            raise _ApiError(400, "request needs 'worker' and 'key'")
        ttl = float(body.get("ttl") or self.default_lease_ttl)
        return worker, key, ttl


#: route table: (method, compiled path regex) -> handler name
_KEY = r"(?P<key>[0-9a-fA-F]+)"
_CID = r"(?P<cid>[0-9a-f]{1,64})"
_ROUTES: list[tuple[str, re.Pattern[str],
                    Callable[[CampaignService, re.Match[str], dict],
                             dict[str, Any] | None]]] = [
    ("GET", re.compile(r"/v1/health/?$"),
     lambda svc, m, body: svc.health()),
    ("POST", re.compile(r"/v1/campaigns/?$"),
     lambda svc, m, body: svc.submit(body)),
    ("GET", re.compile(r"/v1/campaigns/?$"),
     lambda svc, m, body: svc.campaigns()),
    ("GET", re.compile(rf"/v1/campaigns/{_CID}/?$"),
     lambda svc, m, body: svc.campaign(m.group("cid"))),
    ("GET", re.compile(rf"/v1/campaigns/{_CID}/drained/?$"),
     lambda svc, m, body: svc.drained(m.group("cid"))),
    ("POST", re.compile(rf"/v1/campaigns/{_CID}/lease/?$"),
     lambda svc, m, body: svc.lease(m.group("cid"), body)),
    ("POST", re.compile(rf"/v1/campaigns/{_CID}/heartbeat/?$"),
     lambda svc, m, body: svc.heartbeat(m.group("cid"), body)),
    ("POST", re.compile(rf"/v1/campaigns/{_CID}/complete/?$"),
     lambda svc, m, body: svc.complete(m.group("cid"), body)),
    ("POST", re.compile(rf"/v1/campaigns/{_CID}/fail/?$"),
     lambda svc, m, body: svc.fail(m.group("cid"), body)),
    ("POST", re.compile(r"/v1/lease/?$"),
     lambda svc, m, body: svc.lease(None, body)),
    ("GET", re.compile(r"/v1/drained/?$"),
     lambda svc, m, body: svc.drained(None)),
    ("GET", re.compile(rf"/v1/results/{_KEY}/?$"),
     lambda svc, m, body: svc.result(m.group("key").lower())),
    ("GET", re.compile(rf"/v1/units/{_KEY}/?$"),
     lambda svc, m, body: svc.unit(m.group("key").lower())),
]


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON router over the service's verbs.

    Connections are kept alive (HTTP/1.1), so every response goes out in
    one write with Nagle's algorithm off: a response split into a header
    write and a body write stalls ~40 ms per request on a kept-alive
    connection, when Nagle holds back the body until the client's
    delayed ACK of the headers arrives.
    """

    server_version = "repro-campaign-service/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    service: CampaignService  # injected by ServiceServer

    # -- plumbing -----------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        _log.debug("%s %s", self.address_string(), fmt % args)

    def _read_raw_body(self) -> bytes:
        """Consume the request body, so the next request on this
        connection starts where it should."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # A body that cannot be skipped: the connection ends here.
            self.close_connection = True
            if length > MAX_BODY_BYTES:
                raise _ApiError(413, f"request body over {MAX_BODY_BYTES} "
                                "bytes")
            raise _ApiError(400, "bad Content-Length header")
        return self.rfile.read(length)

    @staticmethod
    def _parse_body(raw: bytes) -> dict[str, Any]:
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _ApiError(400, f"request body is not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise _ApiError(400, "request body must be a JSON object")
        return body

    def _send(self, status: int, data: bytes = b"") -> None:
        """Status line, headers and body in one buffer, one write."""
        self.log_request(status, len(data))
        head = [f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}",
                f"Server: {self.version_string()}",
                f"Date: {self.date_time_string()}"]
        if data:
            head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(data)}")
        if self.close_connection:
            head.append("Connection: close")
        self.wfile.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                         + data)

    def _send_json(self, status: int, payload: Mapping[str, Any]) -> None:
        self._send(status, json.dumps(payload, default=str).encode("utf-8"))

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0]
        try:
            raw = self._read_raw_body()
            for route_method, pattern, handler in _ROUTES:
                match = pattern.fullmatch(path)
                if match is None:
                    continue
                if route_method != method:
                    continue
                body = self._parse_body(raw) if method == "POST" else {}
                result = handler(self.service, match, body)
                if result is None:
                    self._send(204)
                    return
                self._send_json(200, result)
                return
            raise _ApiError(404, f"no route for {method} {path}")
        except _ApiError as exc:
            self._send_json(exc.status, _envelope({"error": str(exc)}))
        except Exception as exc:  # a bug, not a bad request
            _log.exception("unhandled service error on %s %s", method, path)
            self._send_json(500, _envelope(
                {"error": f"{type(exc).__name__}: {exc}"}))

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")


class _Server(ThreadingHTTPServer):
    """A threaded HTTP server that can cut its open connections.

    A kept-alive connection's handler thread loops on its socket until
    the client hangs up, so stopping the accept loop alone would leave
    it serving.  :meth:`close_connections` shuts every open request
    socket down, which ends those loops.
    """

    daemon_threads = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A peer resetting its kept-alive connection is routine.
        if isinstance(sys.exc_info()[1], ConnectionError):
            _log.debug("connection from %s reset", client_address)
            return
        super().handle_error(request, client_address)

    def close_connections(self) -> None:
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:  # the peer already hung up
                    pass


class ServiceServer:
    """A running (threaded) HTTP server around one campaign service.

    ``port=0`` asks the OS for a free port — :attr:`port` reports the
    bound one, which is what the in-process tests and the quickstart
    example use.  Use as a context manager or call :meth:`start` /
    :meth:`stop`.
    """

    #: Seconds between the serve loop's checks for :meth:`stop` (stdlib 0.5).
    _POLL_INTERVAL = 0.05

    def __init__(self, service: CampaignService, *,
                 host: str = DEFAULT_HOST, port: int = DEFAULT_PORT) -> None:
        self.service = service
        handler = type("BoundHandler", (_Handler,), {"service": service})
        self.httpd = _Server((host, port), handler)
        self._thread: threading.Thread | None = None
        self._serving = False  # has a serve loop begun?

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        """Serve on a background thread; returns immediately."""
        self._serving = True
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        args=(self._POLL_INTERVAL,),
                                        name="repro-service", daemon=True)
        self._thread.start()
        _log.info("campaign service listening on %s (store %s)", self.url,
                  self.service.store.root)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``--serve`` CLI path)."""
        _log.info("campaign service listening on %s (store %s)", self.url,
                  self.service.store.root)
        self._serving = True
        self.httpd.serve_forever(self._POLL_INTERVAL)

    def stop(self) -> None:
        """Stop accepting, then cut every open connection: a stopped
        server answers no further request."""
        if self._serving:  # else shutdown() waits forever for a loop
            self.httpd.shutdown()
        self.httpd.server_close()
        self.httpd.close_connections()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def serve(store: ResultStore, *, host: str = DEFAULT_HOST,
          port: int = DEFAULT_PORT,
          lease_ttl: float = DEFAULT_LEASE_TTL) -> ServiceServer:
    """Build a :class:`ServiceServer` over *store* (not yet started)."""
    service = CampaignService(store, default_lease_ttl=lease_ttl)
    return ServiceServer(service, host=host, port=port)
