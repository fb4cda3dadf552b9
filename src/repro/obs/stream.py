"""Incremental trace following and the one fold over trace records.

:class:`TraceFollower` is the tail-with-offset half of live
monitoring: each :meth:`~TraceFollower.poll` reads whatever complete
lines landed since the last poll and returns them as validated event
dicts.  The offset contract is strict — the follower's byte offset
always points at the start of an unconsumed line:

* only **newline-terminated** lines are consumed; an unterminated tail
  (a concurrent appender torn mid-``os.write`` — cannot happen with the
  O_APPEND JSONL sink, but the follower does not assume its writer) is
  left in the file and re-read on the next poll, so no record is ever
  split or skipped;
* a file that **shrinks** below the offset was truncated or rotated:
  the follower restarts from byte 0 (and counts the restart);
* a file that does not exist yet simply yields nothing — the follower
  may be attached before the writer's first write.

Terminated-but-malformed lines are counted in :attr:`malformed` and
skipped rather than raised: a live dashboard must survive a corrupt
line that the post-hoc :func:`repro.obs.events.read_trace` would
report as a located error.

Multi-pid awareness is inherited from the trace format itself — every
record carries its writer's ``pid``, and forked engine workers append
to the same file through the shared O_APPEND descriptor — so one
follower sees the whole process tree's events interleaved in commit
order.  :class:`TraceFold` is the single incremental fold over that
stream: fed one record at a time, it answers both the post-hoc
:meth:`~TraceFold.summary` (what :func:`repro.obs.report.summarize`
returns) and the live :meth:`~TraceFold.snapshot` (what
:func:`repro.obs.live.render_dashboard` and the campaign progress line
draw).
"""

from __future__ import annotations

import heapq
import os
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.obs.events import parse_trace_line

__all__ = ["TraceFollower", "TraceFold", "RATE_WINDOW", "ETA_WINDOW"]

#: Seconds of trailing events that feed counter/throughput rates.
RATE_WINDOW = 10.0
#: Recent computed-unit completions that feed the rolling-rate ETA.
ETA_WINDOW = 8


class TraceFollower:
    """Tail a JSONL trace incrementally, torn-line tolerant.

    Every terminated line is schema-validated; *path* may not exist yet.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: Byte offset of the first unconsumed line.
        self.offset = 0
        #: The trace manifest, once its line has been seen.
        self.manifest: dict[str, Any] | None = None
        #: Terminated lines that failed to parse/validate (skipped).
        self.malformed = 0
        #: Times the file shrank under us (truncate/rotate restarts).
        self.restarts = 0

    def poll(self) -> list[dict[str, Any]]:
        """Return every complete event appended since the last poll."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []
        if size < self.offset:
            self.offset = 0
            self.manifest = None
            self.restarts += 1
        if size == self.offset:
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            data = handle.read()
        end = data.rfind(b"\n")
        if end < 0:
            return []  # only a torn tail so far; leave it for later
        consumed = data[:end + 1]
        self.offset += end + 1
        events: list[dict[str, Any]] = []
        for raw in consumed.split(b"\n"):
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                event = parse_trace_line(line)
            except ValueError:
                self.malformed += 1
                continue
            if event.get("kind") == "manifest":
                self.manifest = event
                continue
            events.append(event)
        return events


def _span_label(span: Mapping[str, Any]) -> str:
    attrs = span.get("attrs", {})
    for key in ("label", "experiment", "sweep", "key", "tier"):
        if attrs.get(key):
            return f"{span['name']}({attrs[key]})"
    return span["name"]


class _UnitState:
    """Live view of one campaign work unit."""

    __slots__ = ("label", "key", "status", "last_heartbeat",
                 "heartbeat_interval")

    def __init__(self, label: str, key: str | None) -> None:
        self.label = label
        self.key = key
        self.status = "planned"
        self.last_heartbeat: float | None = None
        self.heartbeat_interval: float | None = None


#: Lifecycle statuses that mean "this unit is finished".
_DONE_STATUSES = ("cached", "checkpointed")
#: Statuses that mean "a worker should currently be heartbeating".
_ACTIVE_STATUSES = ("leased", "running")


class TraceFold:
    """Fold a trace event stream, one record at a time.

    Feed it :meth:`ingest` batches — a whole trace, successive
    :class:`TraceFollower` polls, or single records — and read either
    view at any point; chunking never changes what they return.

    :meth:`summary`
        The post-hoc aggregate (the shape is documented in
        :mod:`repro.obs.report`).  Only the *top* slowest closed spans
        are retained, so memory stays flat however long the trace.
    :meth:`snapshot`
        Everything the dashboard draws: per-pid open-span stacks,
        counter totals with a :data:`RATE_WINDOW` per-second rate,
        campaign done/total/cache hits with a rolling-rate ETA, and
        per-unit heartbeat ages.  A unit in a leased/running state
        whose last heartbeat is older than *stale_after* (or 3x its
        advertised beat interval) is flagged ``stale`` — the live
        signature of a killed or wedged worker.
    """

    def __init__(self, *, top: int = 10, stale_after: float | None = None,
                 clock: Callable[[], float] = time.time) -> None:
        self.top = top
        self.stale_after = stale_after
        self.clock = clock
        self.events_seen = 0
        self.spans_closed = 0
        self.errors = 0
        #: event name -> status -> records seen.
        self.lifecycle: dict[str, dict[str, int]] = {}
        self._pids: set[int] = set()
        self._open: dict[str, Mapping[str, Any]] = {}
        self._stacks: dict[int, list[str]] = {}
        self._phases: dict[str, dict[str, Any]] = {}
        # Min-heap of (dur_s, -arrival, row): its root is the span the
        # next slower arrival evicts, and a later tie never displaces
        # an earlier one — the order of a stable descending sort.
        self._slowest: list[tuple[float, int, dict[str, Any]]] = []
        self._t_min: float | None = None
        self._t_max: float | None = None
        self._counters: dict[str, float] = {}
        self._counter_marks: dict[str, deque[tuple[float, float]]] = {}
        self._gauges: dict[str, dict[str, float]] = {}
        self._histograms: dict[str, list[float]] = {}
        self._units: dict[str, _UnitState] = {}
        self._eta_marks: deque[float] = deque(maxlen=ETA_WINDOW)
        self._last_event_ts: float | None = None

    # -- ingestion ----------------------------------------------------

    def ingest(self, events: Iterable[Mapping[str, Any]]) -> None:
        for ev in events:
            self.events_seen += 1
            self._pids.add(ev.get("pid", 0))
            ts = ev.get("ts")
            if isinstance(ts, (int, float)):
                self._last_event_ts = max(self._last_event_ts or ts, ts)
            kind = ev.get("kind")
            if kind == "span_start":
                self._open[ev["span_id"]] = ev
                self._stacks.setdefault(ev.get("pid", 0), []).append(
                    ev["span_id"])
            elif kind == "span":
                self._ingest_span(ev)
            elif kind == "metric":
                self._ingest_metric(ev)
            elif kind == "event":
                self._ingest_event(ev)

    def _ingest_span(self, ev: Mapping[str, Any]) -> None:
        self.spans_closed += 1
        error = ev.get("status") == "error"
        self.errors += error
        self._open.pop(ev["span_id"], None)
        stack = self._stacks.get(ev.get("pid", 0))
        if stack and ev["span_id"] in stack:
            stack.remove(ev["span_id"])

        dur = ev["dur_s"]
        phase = self._phases.setdefault(
            ev["name"], {"count": 0, "total_s": 0.0, "max_s": 0.0,
                         "errors": 0, "cpu_s": None, "peak_rss_kb": None})
        phase["count"] += 1
        phase["total_s"] += dur
        phase["max_s"] = max(phase["max_s"], dur)
        phase["errors"] += error
        res = ev.get("res") or {}
        if "cpu_s" in res:
            phase["cpu_s"] = (phase["cpu_s"] or 0.0) + res["cpu_s"]
        if "peak_rss_kb" in res:
            phase["peak_rss_kb"] = max(phase["peak_rss_kb"] or 0.0,
                                       res["peak_rss_kb"])
        start, stop = ev["ts"], ev["ts"] + dur
        self._t_min = start if self._t_min is None else min(self._t_min,
                                                            start)
        self._t_max = stop if self._t_max is None else max(self._t_max, stop)

        if self.top > 0:
            entry = (dur, -self.spans_closed,
                     {"label": _span_label(ev), "dur_s": dur,
                      "pid": ev["pid"], "status": ev["status"]})
            if len(self._slowest) < self.top:
                heapq.heappush(self._slowest, entry)
            else:
                heapq.heappushpop(self._slowest, entry)

    def _ingest_metric(self, ev: Mapping[str, Any]) -> None:
        name, value = ev["name"], ev["value"]
        if ev["metric"] == "counter":
            self._counters[name] = self._counters.get(name, 0.0) + value
            marks = self._counter_marks.setdefault(name, deque())
            marks.append((ev["ts"], value))
            # Marks older than the rate window can never contribute
            # again; prune so a long campaign's memory stays flat.
            cutoff = ev["ts"] - RATE_WINDOW
            while marks and marks[0][0] < cutoff:
                marks.popleft()
        elif ev["metric"] == "gauge":
            # Full rollup, not last-write-wins: a gauge that sagged
            # mid-run and recovered must not summarize as flat.
            roll = self._gauges.get(name)
            if roll is None:
                self._gauges[name] = {"first": value, "last": value,
                                      "min": value, "max": value,
                                      "count": 1}
            else:
                roll["last"] = value
                roll["min"] = min(roll["min"], value)
                roll["max"] = max(roll["max"], value)
                roll["count"] += 1
        else:
            self._histograms.setdefault(name, []).append(value)

    def _ingest_event(self, ev: Mapping[str, Any]) -> None:
        status = ev.get("status", "ok")
        by_status = self.lifecycle.setdefault(ev["name"], {})
        by_status[status] = by_status.get(status, 0) + 1
        attrs = ev.get("attrs", {})
        label = attrs.get("label")
        if not label or ev["name"] not in ("campaign.unit",
                                           "campaign.heartbeat"):
            return
        # One row per unit: an experiment unit's label is only its id,
        # so the same label recurs across seeds; the key never does.
        key = attrs.get("key")
        unit = self._units.setdefault(key or label, _UnitState(label, key))
        if ev["name"] == "campaign.unit":
            unit.status = status
            if status == "running":
                # Starting to run counts as a beat: a unit that dies
                # instantly still shows one, and its age starts honest.
                unit.last_heartbeat = ev["ts"]
            if status == "checkpointed":
                self._eta_marks.append(ev["ts"])
        else:
            unit.last_heartbeat = ev["ts"]
            interval = attrs.get("interval")
            if isinstance(interval, (int, float)):
                unit.heartbeat_interval = float(interval)

    # -- derived state ------------------------------------------------

    def eta_seconds(self, remaining: int) -> float | None:
        """Rolling-rate ETA over *remaining* pending units."""
        if remaining <= 0:
            return 0.0
        if len(self._eta_marks) < 2:
            return None
        elapsed = self._eta_marks[-1] - self._eta_marks[0]
        if elapsed <= 0:
            return None
        rate = (len(self._eta_marks) - 1) / elapsed
        return remaining / rate

    def summary(self) -> dict[str, Any]:
        """The post-hoc aggregate of every record ingested so far."""
        phases = {name: {**phase, "mean_s": phase["total_s"] / phase["count"]}
                  for name, phase in self._phases.items()}

        # Open records whose close never landed: the signature of a
        # killed or truncated run.  Surfaced instead of silently dropped.
        unclosed = [{"name": ev["name"], "span_id": span_id,
                     "pid": ev.get("pid", 0), "ts": ev["ts"],
                     "attrs": dict(ev.get("attrs", {}))}
                    for span_id, ev in self._open.items()]

        hist_stats = {}
        for name, values in self._histograms.items():
            ordered = sorted(values)
            hist_stats[name] = {
                "count": len(ordered),
                "mean": sum(ordered) / len(ordered),
                "min": ordered[0],
                "p50": ordered[len(ordered) // 2],
                "max": ordered[-1],
            }

        hits = self._counters.get("campaign.cache.hit", 0.0)
        misses = self._counters.get("campaign.cache.miss", 0.0)
        return {
            "spans": self.spans_closed,
            "unclosed": unclosed,
            "pids": sorted(self._pids),
            "wall_s": 0.0 if self._t_min is None
            else self._t_max - self._t_min,
            "phases": phases,
            "counters": dict(self._counters),
            "gauges": {name: dict(roll)
                       for name, roll in self._gauges.items()},
            "histograms": hist_stats,
            "lifecycle": {name: dict(by)
                          for name, by in self.lifecycle.items()},
            "cache": {
                "hits": int(hits),
                "misses": int(misses),
                "rate": hits / (hits + misses) if hits + misses else None,
            },
            "slowest": [dict(row) for _dur, _order, row
                        in sorted(self._slowest, reverse=True)],
        }

    def _unit_row(self, unit: _UnitState, now: float) -> dict[str, Any]:
        age = None if unit.last_heartbeat is None \
            else max(0.0, now - unit.last_heartbeat)
        threshold = self.stale_after
        if threshold is None:
            beat = unit.heartbeat_interval
            threshold = max(3.0 * beat, 2.0) if beat else None
        stale = (unit.status in _ACTIVE_STATUSES and age is not None
                 and threshold is not None and age > threshold)
        return {"label": unit.label, "key": unit.key,
                "status": unit.status, "heartbeat_age_s": age,
                "stale": stale}

    def snapshot(self, now: float | None = None) -> dict[str, Any]:
        """Everything the dashboard draws, as one plain dict."""
        now = self.clock() if now is None else now
        pids = {}
        for pid, stack in sorted(self._stacks.items()):
            frames = []
            for span_id in stack:
                ev = self._open.get(span_id)
                if ev is None:
                    continue
                frames.append({"name": ev["name"],
                               "attrs": dict(ev.get("attrs", {})),
                               "age_s": max(0.0, now - ev["ts"])})
            if frames:
                pids[pid] = frames

        counters = {}
        for name, total in sorted(self._counters.items()):
            recent = sum(value for ts, value in self._counter_marks[name]
                         if ts >= now - RATE_WINDOW)
            counters[name] = {"total": total, "rate": recent / RATE_WINDOW}

        units = [self._unit_row(u, now) for u in self._units.values()]
        done = sum(1 for u in units if u["status"] in _DONE_STATUSES)
        cached = sum(1 for u in units if u["status"] == "cached")
        running = [u for u in units if u["status"] in _ACTIVE_STATUSES]
        stale = [u for u in units if u["stale"]]
        total = len(units)
        campaign = {
            "total": total,
            "done": done,
            "cached": cached,
            "computed": done - cached,
            "running": len(running),
            "stale": len(stale),
            "hit_rate": cached / done if done else None,
            "eta_s": self.eta_seconds(total - done) if total else None,
        }
        return {
            "now": now,
            "last_event_ts": self._last_event_ts,
            "events": self.events_seen,
            "open_spans": len(self._open),
            "spans": self.spans_closed,
            "errors": self.errors,
            "pids": pids,
            "counters": counters,
            "campaign": campaign,
            "units": units,
        }

    @property
    def idle(self) -> bool:
        """No span is currently open (between runs, or run finished)."""
        return not self._open
