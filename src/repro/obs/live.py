"""The renderers of the live :class:`~repro.obs.stream.TraceFold`.

:func:`render_dashboard` turns one fold snapshot into the fixed-layout
text frame behind ``python -m repro.obs watch``: campaign progress
(done/total, cache hits, ETA), the active span stack of every traced
pid, windowed counter rates, and a per-unit heartbeat table where
stalled workers — leased/running units whose last beat has aged past
the staleness threshold — are flagged ``STALE``.

:func:`watch` is the refresh loop: poll the follower, ingest, render.
On a TTY each frame repaints in place (ANSI home+clear); elsewhere
frames are separated by a rule so logs stay readable.  The loop ends
when the trace goes idle (every span closed — a finished run renders
exactly one final frame and exits, which is what ``--once`` forces) or
when ``stop`` is set by the embedding caller
(``repro.campaign run --watch`` runs this loop in a thread beside the
scheduler).

:class:`CampaignProgress` is the second renderer: the scheduler's
progress callback, printing one done/total/hits/ETA line per landed
unit from a fold it feeds itself.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Mapping, TextIO

from repro.obs.stream import TraceFold, TraceFollower
from repro.util.timing import format_seconds

__all__ = ["render_dashboard", "watch", "watch_in_thread",
           "CampaignProgress", "DEFAULT_INTERVAL"]

#: Seconds between dashboard refreshes.
DEFAULT_INTERVAL = 0.5

#: Clear screen + cursor home — repaint-in-place on TTYs.
_ANSI_REPAINT = "\x1b[H\x1b[2J"

_STACK_LIMIT = 6  # deepest frames shown per pid
_UNIT_LIMIT = 20  # unit rows shown (running/stale first)


def _fmt_age(age_s: float | None) -> str:
    if age_s is None:
        return "-"
    return f"{age_s:.1f}s"


def _fmt_attrs(attrs: Mapping[str, Any], limit: int = 40) -> str:
    text = " ".join(f"{k}={v}" for k, v in attrs.items())
    return text if len(text) <= limit else text[:limit - 1] + "…"


def render_dashboard(snapshot: Mapping[str, Any], *,
                     title: str = "") -> str:
    """One text frame from a fold snapshot."""
    lines: list[str] = []
    if title:
        lines.append(title)

    campaign = snapshot["campaign"]
    total = campaign["total"]
    if total:
        done = campaign["done"]
        width = 24
        filled = round(width * done / total) if total else 0
        bar = "#" * filled + "." * (width - filled)
        eta = campaign["eta_s"]
        hit = campaign["hit_rate"]
        line = (f"campaign [{bar}] {done}/{total}"
                f"  cached {campaign['cached']}"
                f"  computed {campaign['computed']}"
                f"  running {campaign['running']}")
        if hit is not None:
            line += f"  hits {hit:.0%}"
        line += "  eta " + ("?" if eta is None else format_seconds(eta))
        if campaign["stale"]:
            line += f"  !! {campaign['stale']} STALE"
        lines.append(line)

    lines.append(f"events {snapshot['events']}  spans "
                 f"{snapshot['spans']} closed / "
                 f"{snapshot['open_spans']} open  errors "
                 f"{snapshot['errors']}")

    pids = snapshot["pids"]
    if pids:
        lines.append("")
        lines.append("active spans (per pid, outermost first):")
        for pid, frames in pids.items():
            shown = frames[-_STACK_LIMIT:] if len(frames) > _STACK_LIMIT \
                else frames
            hidden = len(frames) - len(shown)
            prefix = f"  pid {pid}: "
            indent = " " * len(prefix)
            for depth, frame in enumerate(shown):
                head = prefix if depth == 0 else indent
                extra = f" [{_fmt_attrs(frame['attrs'])}]" \
                    if frame["attrs"] else ""
                more = f"  (+{hidden} outer)" \
                    if depth == 0 and hidden else ""
                lines.append(f"{head}{'  ' * depth}{frame['name']}"
                             f" {_fmt_age(frame['age_s'])}{extra}{more}")

    counters = snapshot["counters"]
    if counters:
        lines.append("")
        lines.append("counters (total, /s over rolling window):")
        for name, stats in counters.items():
            lines.append(f"  {name:<32} {stats['total']:>12g}"
                         f"  {stats['rate']:>8.1f}/s")

    units = snapshot["units"]
    if units:
        # Stalled and running units float to the top; done units sink.
        order = {"leased": 0, "running": 0, "planned": 1,
                 "checkpointed": 2, "cached": 2}
        ranked = sorted(
            units, key=lambda u: (not u["stale"],
                                  order.get(u["status"], 1), u["label"]))
        shown = ranked[:_UNIT_LIMIT]
        lines.append("")
        lines.append(f"units ({len(units)}; heartbeat age):")
        for u in shown:
            flag = "  <-- STALE (no heartbeat)" if u["stale"] else ""
            lines.append(f"  {u['label']:<24} {u['status']:<13} "
                         f"beat {_fmt_age(u['heartbeat_age_s'])}{flag}")
        if len(units) > len(shown):
            lines.append(f"  ... {len(units) - len(shown)} more")

    return "\n".join(lines)


def watch(path: str | Path, *,
          interval: float = DEFAULT_INTERVAL,
          once: bool = False,
          stale_after: float | None = None,
          idle_timeout: float | None = None,
          stream: TextIO | None = None,
          stop: threading.Event | None = None,
          clock: Callable[[], float] = time.time,
          sleep: Callable[[float], None] = time.sleep,
          max_frames: int | None = None) -> TraceFold:
    """Follow *path* and repaint the dashboard until the run ends.

    Exit conditions, in order of precedence: *stop* set (embedded
    mode), *once* after the first frame, *max_frames* reached, the
    trace **idle** (at least one span seen and every span closed — a
    completed run renders one frame and returns), or no new events for
    *idle_timeout* seconds (guards against watching a killed run's
    frozen trace forever; ``None`` waits indefinitely).

    Returns the fold so callers (and tests) can inspect the final
    state.
    """
    out = stream if stream is not None else sys.stdout
    follower = TraceFollower(path)
    fold = TraceFold(stale_after=stale_after, clock=clock)
    repaint = hasattr(out, "isatty") and out.isatty()
    title = f"watching {path}"
    frames = 0
    last_growth = clock()
    while True:
        events = follower.poll()
        if events:
            fold.ingest(events)
            last_growth = clock()
        frame = render_dashboard(fold.snapshot(), title=title)
        print((_ANSI_REPAINT if repaint else "") + frame, file=out,
              flush=True)
        frames += 1
        if stop is not None and stop.is_set():
            return fold
        if once or (max_frames is not None and frames >= max_frames):
            return fold
        if fold.events_seen and fold.idle:
            return fold
        if idle_timeout is not None and clock() - last_growth > idle_timeout:
            print(f"(no trace activity for {idle_timeout:.0f}s — "
                  f"stopping watch)", file=out, flush=True)
            return fold
        if not repaint:
            print("-" * 72, file=out, flush=True)
        sleep(interval)


def watch_in_thread(path: str | Path, *,
                    interval: float = DEFAULT_INTERVAL,
                    stale_after: float | None = None,
                    stream: TextIO | None = None
                    ) -> tuple[threading.Thread, threading.Event]:
    """Run :func:`watch` beside a campaign in this process.

    Returns ``(thread, stop_event)``; the embedding CLI sets the event
    once the scheduler returns, and the loop paints one final frame on
    its way out (the ``stop``-checked-after-render ordering above).
    """
    stop = threading.Event()
    thread = threading.Thread(
        target=watch,
        args=(path,),
        kwargs={"interval": interval, "stale_after": stale_after,
                "stream": stream, "stop": stop},
        name="obs-watch", daemon=True)
    thread.start()
    return thread, stop


class CampaignProgress:
    """Rolling-rate progress lines for ``run_campaign``.

    Implements the scheduler's ``progress(done, total, unit, cached)``
    callback: each call feeds :attr:`fold` the ``campaign.unit`` record
    the scheduler emits for that unit (stamped ``clock()``) and prints
    done/total, the cache-hit share and the fold's ETA.  Cached units
    land effectively for free, so only computed ones feed the rate;
    until two have landed the line reads ``eta ?``.

    Parameters
    ----------
    stream:
        Where lines go (default ``sys.stderr``, resolved at call time
        so test harnesses that swap stderr are honoured).
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(self, stream: TextIO | None = None, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._stream = stream
        self._clock = clock
        self.fold = TraceFold()

    @property
    def hits(self) -> int:
        return self.fold.lifecycle.get("campaign.unit", {}).get("cached", 0)

    def render(self, done: int, total: int, label: str,
               cached: bool) -> str:
        eta = self.fold.eta_seconds(total - done)
        hit_rate = self.hits / done if done else 0.0
        eta_text = "?" if eta is None else format_seconds(eta)
        source = "cached" if cached else "computed"
        return (f"[{done}/{total}] {label}: {source}  "
                f"hits {hit_rate:.0%}  eta {eta_text}")

    def __call__(self, done: int, total: int, unit, cached: bool) -> None:
        self.fold.ingest([{
            "kind": "event", "name": "campaign.unit",
            "status": "cached" if cached else "checkpointed",
            "pid": os.getpid(), "ts": self._clock(),
            "attrs": {"label": unit.label, "key": unit.key}}])
        print(self.render(done, total, unit.label, cached),
              file=self._stream if self._stream is not None else sys.stderr)
