"""Pluggable telemetry sinks.

A sink receives fully-formed trace events (plain dicts in the
:mod:`repro.obs.events` schema) from the emit layer in
:mod:`repro.obs.trace`.  Three implementations cover the intended
deployment spectrum:

:class:`NullSink`
    The default.  ``live`` is ``False``, which short-circuits every
    hot-path emit *before* an event dict is even built — instrumented
    code with the null sink costs one global load and one branch.
:class:`MemorySink`
    Collects events into a list; what tests use.
:class:`JsonlSink`
    Appends one JSON line per event to a file through an ``O_APPEND``
    file descriptor — a single ``os.write`` per event, so concurrent
    writers never interleave mid-line on POSIX.  Under the engine's
    Linux ``fork`` pool the descriptor is inherited by worker
    processes, which is how spans from ``fan_out_chunks`` workers land
    in the same trace file as the parent's.

:class:`TeeSink` fans one event stream out to several sinks (JSONL
file *and* an in-memory list).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping

from repro.obs.events import build_manifest

__all__ = ["Sink", "NullSink", "MemorySink", "JsonlSink", "TeeSink"]


class Sink:
    """Sink contract: :meth:`emit` one event dict at a time.

    ``live`` tells the emit layer whether instrumentation should build
    events at all; only :class:`NullSink` turns it off.
    """

    live: bool = True

    def emit(self, event: Mapping[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # noqa: B027 - optional hook, default no-op
        pass

    def trace_path(self) -> Path | None:
        """Where this sink persists events, when it persists them."""
        return None


class NullSink(Sink):
    """Discard everything; the default, near-zero-cost sink."""

    live = False

    def emit(self, event: Mapping[str, Any]) -> None:
        pass


class MemorySink(Sink):
    """Collect events into :attr:`events` (tests)."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, event: Mapping[str, Any]) -> None:
        self.events.append(dict(event))

    def clear(self) -> None:
        self.events.clear()


class JsonlSink(Sink):
    """Append events to a JSONL trace file.

    Parameters
    ----------
    path:
        The trace file.  Parent directories are created.
    manifest:
        Write the provenance manifest as the first line (default);
        pass ``False`` when appending to a trace another process
        opened.
    append:
        Keep an existing file's contents instead of truncating.
    argv:
        Recorded in the manifest (defaults to ``sys.argv``).
    """

    def __init__(self, path: str | Path, *, manifest: bool = True,
                 append: bool = False,
                 argv: list[str] | None = None) -> None:
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        if not append:
            flags |= os.O_TRUNC
        self._fd: int | None = os.open(self.path, flags, 0o644)
        # Only the opening process closes the descriptor: forked engine
        # workers inherit it and must leave it alone on their way out.
        self._owner_pid = os.getpid()
        if manifest:
            self.emit(build_manifest(argv=argv))

    def emit(self, event: Mapping[str, Any]) -> None:
        if self._fd is None:
            raise ValueError(f"trace sink for {self.path} is closed")
        line = json.dumps(event, separators=(",", ":"), default=str) + "\n"
        os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        if self._fd is not None and os.getpid() == self._owner_pid:
            os.close(self._fd)
            self._fd = None

    def trace_path(self) -> Path | None:
        return self.path


class TeeSink(Sink):
    """Forward every event to each of *sinks*, in order."""

    def __init__(self, *sinks: Sink) -> None:
        self.sinks = tuple(sinks)

    def emit(self, event: Mapping[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def trace_path(self) -> Path | None:
        for sink in self.sinks:
            path = sink.trace_path()
            if path is not None:
                return path
        return None
