"""CLI plumbing for the telemetry layer.

Both work-running CLIs (``python -m repro.experiments`` and
``python -m repro.campaign run``) accept the same two observability
flags; they are declared once here so the parsers cannot drift:

``--trace PATH``
    Write a schema-versioned JSONL trace (manifest first line) of the
    whole run, including spans emitted from forked worker processes.
``--metrics``
    Print the aggregated summary (phase times, counters, cache stats)
    to stderr after the run: the run's JSONL trace (the ``--trace``
    file, or a temporary one removed afterwards), forked workers'
    events included, folded line by line.
``--trace-malloc``
    Additionally sample Python-heap allocation (tracemalloc) into
    every span's resource payload.  Genuinely slows allocation-heavy
    code — strictly opt-in, for memory attribution sessions.

:func:`obs_session` is the matching context manager: it installs the
configured sink for the duration of the run, restores the previous
sink afterwards, and prints the ``--metrics`` summary on the way out.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

from repro.obs import resources
from repro.obs.events import parse_trace_line
from repro.obs.sinks import JsonlSink
from repro.obs.stream import TraceFold
from repro.obs.trace import configure

__all__ = ["add_obs_arguments", "obs_session", "session_from_args"]


def add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``--trace`` / ``--metrics`` / ``--trace-malloc``."""
    parser.add_argument("--trace", type=Path, default=None, metavar="PATH",
                        help="write a JSONL telemetry trace of the run "
                             "(render it with 'python -m repro.obs report', "
                             "'... profile', or diff two runs with "
                             "'... diff')")
    parser.add_argument("--metrics", action="store_true",
                        help="print an aggregated telemetry summary "
                             "(span times, counters, cache stats) to "
                             "stderr after the run")
    parser.add_argument("--trace-malloc", action="store_true",
                        help="also sample Python-heap allocation "
                             "(tracemalloc) into span resource payloads "
                             "— slows allocation-heavy code")


def _fold_trace(path: Path) -> tuple[dict | None, dict]:
    """The manifest and :class:`TraceFold` summary of a finished trace,
    read one line at a time (an unterminated last line is dropped)."""
    manifest, fold = None, TraceFold()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.endswith("\n"):
                break
            event = parse_trace_line(line.rstrip("\n"))
            if event["kind"] == "manifest":
                manifest = event
            else:
                fold.ingest((event,))
    return manifest, fold.summary()


@contextmanager
def obs_session(*, trace: Path | None = None, metrics: bool = False,
                trace_malloc: bool = False,
                argv: list[str] | None = None,
                stream: TextIO | None = None) -> Iterator[JsonlSink | None]:
    """Install the JSONL sink *trace*/*metrics* ask for, for one run."""
    if trace is None and not metrics:
        yield None
        return
    scratch = trace is None
    if scratch:
        fd, name = tempfile.mkstemp(prefix="repro-metrics-", suffix=".jsonl")
        os.close(fd)
        trace = Path(name)
    sink = JsonlSink(trace, argv=argv)
    previous = configure(sink)
    previous_mode = resources.set_mode("tracemalloc") if trace_malloc \
        else None
    try:
        yield sink
    finally:
        if previous_mode is not None:
            resources.set_mode(previous_mode)
        configure(previous)
        sink.close()
        try:
            if metrics:
                from repro.obs.report import render_summary
                print(render_summary(*_fold_trace(trace)),
                      file=stream if stream is not None else sys.stderr)
        finally:
            if scratch:
                trace.unlink()


def session_from_args(args: argparse.Namespace, *,
                      stream: TextIO | None = None):
    """The :func:`obs_session` an argparse namespace asks for."""
    return obs_session(trace=getattr(args, "trace", None),
                       metrics=bool(getattr(args, "metrics", False)),
                       trace_malloc=bool(getattr(args, "trace_malloc",
                                                 False)),
                       stream=stream)
