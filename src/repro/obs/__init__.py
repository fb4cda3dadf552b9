"""Structured telemetry for the engine, campaign, and protocol stack.

``repro.obs`` is the observability substrate: span-based tracing with
process-safe ids (worker spans stitch into one trace across the
engine's fork pool), counters/gauges/histograms, and pluggable sinks —
a near-zero-cost no-op sink by default, a schema-versioned JSONL sink
(``--trace``, also what ``--metrics`` folds), and an in-memory sink for
tests.

Quick tour::

    from repro import obs
    from repro.obs.sinks import JsonlSink

    obs.configure(JsonlSink("trace.jsonl"))
    with obs.span("my.phase", n=1024):
        obs.counter("my.items", 3)
    obs.configure(None)  # back to the no-op sink

    # later: python -m repro.obs report trace.jsonl

Instrumented layers: the engine (plan / fan-out / per-chunk spans with
backend and kernel attribution), the campaign scheduler and store
(unit lifecycle events, cache-hit counters, store read/write spans),
and the protocol runner (per-run transmit timing).  Spans carry a
``res`` resource payload (CPU seconds, peak-RSS high-watermark —
see :mod:`repro.obs.resources`); :mod:`repro.obs.profile` reconstructs
the span tree with self-vs-child attribution and
:mod:`repro.obs.diff` ranks what moved between two traces.

One fold reads every trace: :class:`~repro.obs.stream.TraceFold`
ingests records one at a time and serves both the post-hoc
:func:`summarize` aggregate and the live snapshot.  Live monitoring
rides the same trace: :mod:`repro.obs.stream` tails a JSONL file while
it is written, :mod:`repro.obs.live` renders the fold as the ``watch``
dashboard and the campaign progress line, and :mod:`repro.obs.history`
is the longitudinal perf store behind ``repro.bench history``.  A
running unit's liveness pulse is its worker's lease renewal
(:mod:`repro.service.worker`), which emits the ``campaign.heartbeat``
events the fold reads.  See the
DESIGN.md observability section for the event schema and the overhead
policy.
"""

from repro.obs import resources
from repro.obs.diff import diff_paths, diff_traces, render_diff
from repro.obs.events import (
    RESOURCE_FIELDS,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    TraceRead,
    build_manifest,
    parse_trace_line,
    read_trace,
    schema_fingerprint,
    validate_event,
)
from repro.obs.live import (
    CampaignProgress,
    render_dashboard,
    watch,
    watch_in_thread,
)
from repro.obs.profile import (
    aggregate_paths,
    build_span_tree,
    profile_fingerprint,
    profile_payload,
    profile_trace,
    render_profile,
)
from repro.obs.report import (
    render_summary,
    summarize,
    summary_fingerprint,
    summary_payload,
)
from repro.obs.stream import TraceFold, TraceFollower
from repro.obs.sinks import JsonlSink, MemorySink, NullSink, Sink, TeeSink
from repro.obs.trace import (
    configure,
    counter,
    current_sink,
    current_span_id,
    enabled,
    event,
    gauge,
    histogram,
    span,
    trace_path,
)

__all__ = [
    "SCHEMA_NAME", "SCHEMA_VERSION", "SUPPORTED_VERSIONS", "RESOURCE_FIELDS",
    "span", "event", "counter", "gauge", "histogram",
    "configure", "enabled", "current_sink", "current_span_id", "trace_path",
    "Sink", "NullSink", "MemorySink", "JsonlSink", "TeeSink",
    "build_manifest", "read_trace", "schema_fingerprint", "validate_event",
    "TraceRead", "parse_trace_line",
    "summarize", "render_summary", "summary_payload", "summary_fingerprint",
    "resources",
    "build_span_tree", "aggregate_paths", "profile_trace", "render_profile",
    "profile_payload", "profile_fingerprint",
    "diff_paths", "diff_traces", "render_diff",
    "TraceFollower", "TraceFold",
    "render_dashboard", "watch", "watch_in_thread", "CampaignProgress",
]
