"""Per-unit heartbeats: the liveness signal under live monitoring.

A work unit is opaque while it runs — an experiment may spend minutes
inside one numpy call — so the scheduler cannot emit progress from the
unit's own control flow.  :func:`unit_heartbeat` instead emits a
``campaign.heartbeat`` point event immediately and then runs a
:class:`Heartbeat` daemon thread in the *executing* process that emits
one every ``interval`` seconds until the unit completes.  The JSONL
sink writes each event in a single ``os.write`` on an O_APPEND
descriptor, so beats from many worker processes interleave cleanly in
the shared trace.

The signal is designed around failure, not success:

* a worker that is **SIGKILLed** stops beating instantly (the thread
  dies with the process), so the dashboard's per-unit heartbeat age
  grows past the staleness threshold and the unit is flagged;
* a worker **wedged in a syscall / C extension** that releases the GIL
  keeps beating (the thread is alive) but its unit's span never
  closes — visible as a running unit whose span age keeps growing;
* a worker wedged while *holding* the GIL stops beating too, which is
  exactly the verdict we want.

This is the observability substrate the ROADMAP's worker-pull sharding
leans on: a lease reaper needs precisely "last beat older than k·
interval" to reclaim a unit, and the store's bit-for-bit resume
discipline already makes the retry safe.

Disabled-path discipline: when no live sink is installed the context
manager yields without starting a thread — the cost is one global
check, preserving the <5% no-op overhead gate.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs import trace as _trace
from repro.util.logging import get_logger

__all__ = ["HEARTBEAT_INTERVAL", "unit_heartbeat", "Heartbeat"]

_log = get_logger("obs.heartbeat")

#: Default seconds between beats.  Chosen so quick units (milliseconds)
#: still record one beat — the first fires immediately — while long
#: units cost a negligible one event per second.
HEARTBEAT_INTERVAL = 1.0


class Heartbeat:
    """Emit ``name`` point events on a timer until :meth:`stop`.

    The emitting thread is a daemon: if the process is killed the
    thread simply dies, which is the point — the *absence* of beats is
    the failure signal.

    *on_beat*, when given, is called on every beat *in addition to* the
    trace event — the hook the job queue's lease renewal rides on
    (:mod:`repro.service.worker`).  Unlike the trace event it must fire
    even when tracing is disabled (a lease expires regardless), so
    hook-bearing heartbeats always run their thread.  Hook exceptions
    are logged and swallowed: one failed renewal (a network blip, a
    busy database) must not stop the beat — the *lease holder* decides
    what to do when renewal keeps failing, not the timer.
    """

    def __init__(self, name: str = "campaign.heartbeat", *,
                 interval: float = HEARTBEAT_INTERVAL,
                 on_beat: Callable[[], object] | None = None,
                 **attrs) -> None:
        self.name = name
        self.interval = float(interval)
        self.on_beat = on_beat
        self.attrs = attrs
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _beat(self) -> None:
        if self.on_beat is not None:
            try:
                self.on_beat()
            except Exception:
                _log.warning("heartbeat hook failed for %s",
                             self.attrs.get("label", self.name),
                             exc_info=True)
        _trace.event(self.name, interval=self.interval, **self.attrs)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._beat()

    def start(self) -> "Heartbeat":
        """Start the timer; the first beat fires one ``interval`` in."""
        self._thread = threading.Thread(
            target=self._run, name=f"obs-heartbeat-{self.attrs.get('label')}",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2 * self.interval)
            self._thread = None


@contextmanager
def unit_heartbeat(label: str, *, key: str | None = None,
                   interval: float = HEARTBEAT_INTERVAL) -> Iterator[None]:
    """Beat for one campaign unit while its body runs.

    No-op (no thread, no events) when tracing is disabled.
    """
    if not _trace.enabled():
        yield
        return
    hb = Heartbeat(label=label, key=key, interval=interval)
    hb._beat()  # first beat is synchronous: every unit records >= 1
    hb.start()
    try:
        yield
    finally:
        hb.stop()
