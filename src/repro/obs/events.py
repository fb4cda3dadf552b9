"""The trace event schema (``repro.obs/trace``).

A trace is a JSONL file: one event object per line.  The first line is
normally a ``manifest`` event carrying the run's provenance (git SHA,
machine fingerprint, argv); every further line is a ``span_start`` (a
timed region opening — what survives when a run is killed before the
region closes), a ``span`` (the region's close, carrying duration,
status, and an optional ``res`` resource payload), a ``metric``
(counter / gauge / histogram observation), or a point ``event`` (a
state transition such as a campaign unit moving from ``planned`` to
``checkpointed``).

Schema v2 added the ``span_start`` kind and the optional span ``res``
field (:data:`RESOURCE_FIELDS`: rusage CPU seconds, peak-RSS
high-watermark, tracemalloc counters — see :mod:`repro.obs.resources`).

The layout follows the ``repro.bench`` artifact discipline: it is
frozen by :func:`schema_fingerprint` (pinned in ``tests/obs``), so
adding, renaming, or dropping a field must bump :data:`SCHEMA_VERSION`
and historical traces stay parseable on their recorded version —
:data:`SUPPORTED_VERSIONS` lists what this build reads (v1 traces
simply carry no start events or resource payloads).  Unknown *extra*
fields are tolerated on read (forward compatibility within a version);
missing *required* fields are not.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.util.validation import require

__all__ = [
    "SCHEMA_NAME", "SCHEMA_VERSION", "SUPPORTED_VERSIONS", "EVENT_KINDS",
    "METRIC_TYPES", "SPAN_STATUSES", "RESOURCE_FIELDS", "build_manifest",
    "machine_fingerprint", "git_sha", "schema_fingerprint",
    "validate_event", "read_trace", "TraceRead", "parse_trace_line",
]

SCHEMA_NAME = "repro.obs/trace"
SCHEMA_VERSION = 2

#: Versions this build can read.  v1 (PR 6) lacks ``span_start``
#: events and span resource payloads but is otherwise identical.
SUPPORTED_VERSIONS = (1, 2)

#: Required fields per event kind.  ``attrs`` is a free-form mapping on
#: every kind — workload-specific labels live there, never as new top
#: level fields (which would change the fingerprint).
EVENT_KINDS: dict[str, tuple[str, ...]] = {
    "manifest": ("kind", "schema", "schema_version", "created_at",
                 "git_sha", "machine", "argv", "pid"),
    "span_start": ("kind", "name", "span_id", "parent_id", "pid", "ts",
                   "attrs"),
    "span": ("kind", "name", "span_id", "parent_id", "pid", "ts",
             "dur_s", "status", "attrs"),
    "metric": ("kind", "name", "metric", "value", "pid", "ts", "attrs"),
    "event": ("kind", "name", "status", "pid", "ts", "attrs"),
}

METRIC_TYPES = ("counter", "gauge", "histogram")
SPAN_STATUSES = ("ok", "error")

#: Keys allowed in a span's optional ``res`` resource payload (see
#: :mod:`repro.obs.resources`).  Part of the frozen layout: a new
#: resource field is a schema change, not a silent addition.
RESOURCE_FIELDS = ("cpu_s", "peak_rss_kb", "py_alloc_kb", "py_peak_kb")


def machine_fingerprint() -> dict[str, Any]:
    """Where a trace, bench result or campaign manifest was recorded —
    enough to judge comparability.

    The one definition: :mod:`repro.bench.results` re-exports it, and
    the campaign manifest records it.  It lives here because
    :mod:`repro.obs` sits below the engine's hot paths and must not
    drag the benchmark harness into their import graph.
    """
    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
    }


@functools.lru_cache(maxsize=1)
def git_sha() -> str | None:
    """Commit SHA of the checkout this package runs from, or ``None``
    when it is not in a git work tree or git fails or times out.

    Git runs in the package's own directory, not the caller's working
    directory, and the answer is memoised for the life of the process
    (``git_sha.cache_clear()`` forgets it).  Traces, bench results and
    campaign manifests all stamp this value.
    """
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              cwd=Path(__file__).resolve().parent,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha if len(sha) == 40 else None


def build_manifest(argv: list[str] | None = None) -> dict[str, Any]:
    """Assemble the provenance event that opens a trace."""
    import sys
    return {
        "kind": "manifest",
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "created_at": time.time(),
        "git_sha": git_sha(),
        "machine": machine_fingerprint(),
        "argv": list(sys.argv if argv is None else argv),
        "pid": os.getpid(),
    }


def schema_fingerprint() -> str:
    """SHA-256 over the schema's field layout (names, not values).

    Pinned by a test: any change to the trace shape fails loudly and
    forces a deliberate :data:`SCHEMA_VERSION` bump.
    """
    layout = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "kinds": {kind: sorted(fields)
                  for kind, fields in EVENT_KINDS.items()},
        "metric_types": sorted(METRIC_TYPES),
        "span_statuses": sorted(SPAN_STATUSES),
        "resource_fields": sorted(RESOURCE_FIELDS),
        "machine_fields": sorted(machine_fingerprint()),
    }
    canonical = json.dumps(layout, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _require_number(event: Mapping[str, Any], field: str) -> None:
    require(isinstance(event.get(field), (int, float))
            and not isinstance(event.get(field), bool),
            f"trace event field {field!r} must be a number: {event!r}")


def validate_event(event: Any) -> None:
    """Raise ``ValueError`` unless *event* is a schema-valid trace event."""
    require(isinstance(event, Mapping), f"trace event must be an object, "
            f"got {type(event).__name__}")
    kind = event.get("kind")
    require(kind in EVENT_KINDS,
            f"unknown trace event kind {kind!r} "
            f"(known: {', '.join(EVENT_KINDS)})")
    missing = [f for f in EVENT_KINDS[kind] if f not in event]
    require(not missing,
            f"{kind} event is missing required fields {missing}: {event!r}")
    if kind == "manifest":
        require(event["schema"] == SCHEMA_NAME,
                f"not a trace manifest (schema {event['schema']!r})")
        require(event["schema_version"] in SUPPORTED_VERSIONS,
                f"unsupported trace schema version "
                f"{event['schema_version']} (this build reads "
                f"v{', v'.join(map(str, SUPPORTED_VERSIONS))})")
        require(isinstance(event["machine"], Mapping),
                "manifest machine fingerprint must be an object")
        return
    require(isinstance(event["name"], str) and event["name"],
            f"trace event name must be a non-empty string: {event!r}")
    require(isinstance(event["attrs"], Mapping),
            f"trace event attrs must be an object: {event!r}")
    _require_number(event, "ts")
    if kind in ("span", "span_start"):
        require(isinstance(event["span_id"], str) and event["span_id"],
                "span_id must be a non-empty string")
        require(event["parent_id"] is None
                or isinstance(event["parent_id"], str),
                "parent_id must be null or a string")
    if kind == "span":
        _require_number(event, "dur_s")
        require(event["dur_s"] >= 0, "span duration must be >= 0")
        require(event["status"] in SPAN_STATUSES,
                f"span status must be one of {SPAN_STATUSES}")
        res = event.get("res")
        if res is not None:
            require(isinstance(res, Mapping),
                    f"span res must be an object: {event!r}")
            unknown = [k for k in res if k not in RESOURCE_FIELDS]
            require(not unknown,
                    f"span res has unknown resource fields {unknown} "
                    f"(known: {', '.join(RESOURCE_FIELDS)})")
            for field in res:
                _require_number(res, field)
    elif kind == "metric":
        require(event["metric"] in METRIC_TYPES,
                f"metric type must be one of {METRIC_TYPES}")
        _require_number(event, "value")


def validate_events(events: Iterable[Mapping[str, Any]]) -> None:
    """Validate a whole event stream (the in-memory sink's contents)."""
    for event in events:
        validate_event(event)


class TraceRead(tuple):
    """The result of :func:`read_trace`.

    Unpacks as the historical ``(manifest, events)`` pair, and
    additionally carries :attr:`partial_tail`: ``True`` when the file
    ended mid-record — a concurrent appender was torn mid-write (or the
    file was truncated) and the unparseable tail was dropped rather than
    raised as a located parse error.  Complete records before the tear
    are all present in ``events``.
    """

    def __new__(cls, manifest: dict[str, Any] | None,
                events: list[dict[str, Any]],
                partial_tail: bool = False) -> "TraceRead":
        obj = super().__new__(cls, (manifest, events))
        obj.partial_tail = partial_tail
        return obj

    @property
    def manifest(self) -> dict[str, Any] | None:
        return self[0]

    @property
    def events(self) -> list[dict[str, Any]]:
        return self[1]


def parse_trace_line(line: str, *, location: str = "") -> dict[str, Any]:
    """Decode and validate one JSONL trace line (sans newline).

    Raises ``ValueError`` with *location* prefixed (``path:lineno``)
    on malformed input — shared by :func:`read_trace` and the live
    follower in :mod:`repro.obs.stream`.
    """
    prefix = f"{location}: " if location else ""
    try:
        event = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{prefix}not valid JSON ({exc})") from exc
    try:
        validate_event(event)
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from exc
    return event


def read_trace(path: str | Path) -> TraceRead:
    """Read and validate a JSONL trace.

    Returns a :class:`TraceRead` — unpackable as ``(manifest, events)``
    where *manifest* is the leading manifest event (or ``None`` for
    header-less traces, e.g. a raw memory-sink dump) and *events* are
    the remaining span / metric / point events in file order.  Raises
    ``ValueError`` on the first malformed *terminated* line; a torn
    **final** line (a concurrent appender caught mid-write) is dropped
    and reported as ``partial_tail=True`` instead, because every
    ``os.write`` of the JSONL sink lands a whole line — an unterminated
    JSON fragment at EOF is an in-flight record, not corruption.
    """
    manifest: dict[str, Any] | None = None
    events: list[dict[str, Any]] = []
    text = Path(path).read_text(encoding="utf-8")
    terminated = text.endswith("\n")
    lines = text.split("\n")
    if terminated:
        lines = lines[:-1]  # drop the empty fragment after the last \n
    partial_tail = False
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        final_fragment = not terminated and lineno == len(lines)
        if final_fragment:
            try:
                json.loads(line)
            except json.JSONDecodeError:
                # A proper prefix of a JSON object is never valid JSON,
                # so an unparseable unterminated tail is a torn write:
                # keep what parsed, flag the tear.  (A tail that *does*
                # parse is a whole record missing only its newline —
                # schema violations in it are real errors, below.)
                partial_tail = True
                break
        event = parse_trace_line(line, location=f"{path}:{lineno}")
        if event["kind"] == "manifest":
            require(manifest is None,
                    f"{path}:{lineno}: duplicate trace manifest")
            manifest = event
        else:
            events.append(event)
    return TraceRead(manifest, events, partial_tail)
