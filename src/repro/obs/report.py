"""Turn a trace into numbers a human can act on.

:func:`summarize` folds an event stream (one
:class:`~repro.obs.stream.TraceFold`, run to the end) into per-phase span
statistics (with attached CPU / peak-RSS resource rollups), aggregated
counters / gauge rollups (``first``/``last``/``min``/``max``/``count``
— never last-write-wins) / histograms, campaign cache-hit accounting,
unit lifecycle tallies, the top-k slowest spans, and the spans whose
``span_start`` never saw its close — the signature of a killed run.
:func:`render_summary` renders that as ASCII tables — what
``python -m repro.obs report`` prints.  For tree-shaped attribution
(self vs child time per span *path*) see :mod:`repro.obs.profile`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Mapping

from repro.obs.stream import TraceFold

__all__ = ["summarize", "render_summary", "format_manifest",
           "summary_payload", "summary_fingerprint",
           "SUMMARY_SCHEMA_NAME", "SUMMARY_SCHEMA_VERSION"]

SUMMARY_SCHEMA_NAME = "repro.obs/summary"
SUMMARY_SCHEMA_VERSION = 1

#: The frozen key layout of ``summary --json`` (the repro.bench
#: artifact discipline): top-level payload keys, the summarize() keys,
#: and the keys of every nested fixed-shape entry.  A new key is a
#: deliberate schema bump, never a drive-by.
_PAYLOAD_KEYS = ("schema", "schema_version", "manifest", "partial_tail",
                 "summary")
_SUMMARY_KEYS = ("spans", "unclosed", "pids", "wall_s", "phases",
                 "counters", "gauges", "histograms", "lifecycle", "cache",
                 "slowest")
_PHASE_KEYS = ("count", "total_s", "max_s", "errors", "cpu_s",
               "peak_rss_kb", "mean_s")
_GAUGE_KEYS = ("first", "last", "min", "max", "count")
_HISTOGRAM_KEYS = ("count", "mean", "min", "p50", "max")
_CACHE_KEYS = ("hits", "misses", "rate")
_SLOWEST_KEYS = ("label", "dur_s", "pid", "status")
_UNCLOSED_KEYS = ("name", "span_id", "pid", "ts", "attrs")


def summarize(events: Iterable[Mapping[str, Any]], *,
              top: int = 10) -> dict[str, Any]:
    """Aggregate an event stream (see module docstring for the shape):
    the :class:`~repro.obs.stream.TraceFold` run to the end."""
    fold = TraceFold(top=top)
    fold.ingest(events)
    return fold.summary()


def summary_payload(manifest: Mapping[str, Any] | None,
                    summary: Mapping[str, Any], *,
                    partial_tail: bool = False) -> dict[str, Any]:
    """The ``summary --json`` object: provenance + the full aggregate."""
    return {
        "schema": SUMMARY_SCHEMA_NAME,
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "manifest": None if manifest is None else dict(manifest),
        "partial_tail": partial_tail,
        "summary": dict(summary),
    }


def summary_fingerprint() -> str:
    """SHA-256 over the ``summary --json`` key layout (names, not values).

    Pinned by a test, mirroring the trace/bench schema discipline: any
    shape change fails loudly and forces a deliberate
    :data:`SUMMARY_SCHEMA_VERSION` bump.
    """
    layout = {
        "schema": SUMMARY_SCHEMA_NAME,
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "payload": sorted(_PAYLOAD_KEYS),
        "summary": sorted(_SUMMARY_KEYS),
        "phase": sorted(_PHASE_KEYS),
        "gauge": sorted(_GAUGE_KEYS),
        "histogram": sorted(_HISTOGRAM_KEYS),
        "cache": sorted(_CACHE_KEYS),
        "slowest": sorted(_SLOWEST_KEYS),
        "unclosed": sorted(_UNCLOSED_KEYS),
    }
    canonical = json.dumps(layout, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def format_manifest(manifest: Mapping[str, Any] | None) -> str:
    """One-paragraph provenance header for a rendered report."""
    if manifest is None:
        return "trace: no manifest (header-less event stream)"
    machine = manifest.get("machine", {})
    sha = manifest.get("git_sha") or "unknown"
    return (f"trace: schema {manifest['schema']} "
            f"v{manifest['schema_version']}\n"
            f"  git {sha[:12]}  python {machine.get('python', '?')}  "
            f"{machine.get('platform', '?')}\n"
            f"  argv: {' '.join(map(str, manifest.get('argv', [])))}")


def _ms(seconds: float) -> float:
    return round(seconds * 1e3, 3)


def render_summary(manifest: Mapping[str, Any] | None,
                   summary: Mapping[str, Any]) -> str:
    """ASCII report: phases, slowest spans, counters, cache stats."""
    from repro.analysis.tables import render_table

    parts = [format_manifest(manifest)]
    cache = summary["cache"]
    wall = summary["wall_s"]
    head = (f"{summary['spans']} spans across "
            f"{len(summary['pids'])} process(es), {wall:.3f}s wall")
    if cache["rate"] is not None:
        head += (f"; cache {cache['hits']} hit / {cache['misses']} miss "
                 f"({cache['rate']:.0%})")
    parts.append(head)

    unclosed = summary.get("unclosed", [])
    if unclosed:
        rows = [{"unclosed span": u["name"], "span_id": u["span_id"],
                 "pid": u["pid"]} for u in unclosed]
        parts.append(f"{len(unclosed)} span(s) never closed — the run "
                     "was killed or the trace truncated:\n"
                     + render_table(rows))

    phases = summary["phases"]
    if phases:
        total = sum(p["total_s"] for p in phases.values()) or 1.0
        rows = [{"phase": name, "count": p["count"],
                 "total_ms": _ms(p["total_s"]), "mean_ms": _ms(p["mean_s"]),
                 "max_ms": _ms(p["max_s"]),
                 "share": f"{p['total_s'] / total:.0%}",
                 "cpu_ms": "" if p.get("cpu_s") is None
                 else _ms(p["cpu_s"]),
                 "rss_mb": "" if p.get("peak_rss_kb") is None
                 else round(p["peak_rss_kb"] / 1024, 1),
                 "errors": p["errors"]}
                for name, p in sorted(phases.items(),
                                      key=lambda kv: -kv[1]["total_s"])]
        parts.append("per-phase span time:\n" + render_table(rows))

    if summary["slowest"]:
        rows = [{"span": s["label"], "ms": _ms(s["dur_s"]),
                 "pid": s["pid"], "status": s["status"]}
                for s in summary["slowest"]]
        parts.append("slowest spans:\n" + render_table(rows))

    if summary["counters"]:
        rows = [{"counter": name, "total": value}
                for name, value in sorted(summary["counters"].items())]
        parts.append("counters:\n" + render_table(rows))

    if summary["gauges"]:
        rows = [{"gauge": name,
                 **{k: round(v, 6) if k != "count" else v
                    for k, v in roll.items()}}
                for name, roll in sorted(summary["gauges"].items())]
        parts.append("gauges:\n" + render_table(rows))

    if summary["histograms"]:
        rows = [{"histogram": name, **{k: round(v, 6) if k != "count" else v
                                       for k, v in stats.items()}}
                for name, stats in sorted(summary["histograms"].items())]
        parts.append("histograms:\n" + render_table(rows))

    if summary["lifecycle"]:
        # Uniform columns: the renderer takes its layout from row 0.
        statuses = sorted({status for by in summary["lifecycle"].values()
                           for status in by})
        rows = [{"event": name,
                 **{status: by.get(status, 0) for status in statuses}}
                for name, by in sorted(summary["lifecycle"].items())]
        parts.append("lifecycle events:\n" + render_table(rows))

    return "\n\n".join(parts)
