"""Golden pins for every fold over trace records.

Three outputs are reduced to SHA-256 digests over a seeded corpus of
event streams and pinned: the post-hoc ``summarize`` aggregate, the
live dashboard ``snapshot`` after chunked ingestion, and the lines the
campaign progress renderer prints for a fixed callback sequence.  The
corpus covers several pids, unclosed and error spans, ``res`` payloads,
a gauge that sags and recovers, histograms, tied span durations, every
``campaign.unit`` status and heartbeats with intervals.

Any change to what a fold reports — a reordered float sum, a tie broken
the other way, a reworded progress line — moves a digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from types import SimpleNamespace

from repro.obs.report import summarize

# The live fold and the progress renderer have lived in different
# modules over time; resolve whichever this tree provides so the pins
# hold on both sides of that move.
try:
    from repro.obs.stream import TraceFold as _Fold
except ImportError:
    from repro.obs.stream import LiveAggregator as _Fold
try:
    from repro.obs.live import CampaignProgress
except ImportError:
    from repro.obs.progress import CampaignProgress

SEEDS = range(6)
TOP = 7

_PIDS = (4101, 4102, 4103)
_SPAN_NAMES = ("engine.chunk", "campaign.unit.run", "store.put",
               "engine.plan", "protocol.run")
_ATTR_CHOICES = ({}, {"label": "E1/quick"}, {"experiment": "E8"},
                 {"sweep": "density"}, {"key": "ab12cd"}, {"tier": "chain"},
                 {"n": 64, "backend": "native"})
_COUNTERS = ("campaign.cache.hit", "campaign.cache.miss", "engine.rounds",
             "store.txn")
_UNIT_PATHS = (("planned", "leased", "running", "checkpointed"),
               ("planned", "cached"),
               ("planned", "leased", "running", "error"),
               ("planned", "leased", "running"),
               ("planned", "leased"),
               ("planned",))


def _corpus(seed: int) -> list[dict]:
    """One deterministic, schema-shaped event stream."""
    rng = random.Random(seed)
    events: list[dict] = []
    ts = 1000.0 + seed
    stacks: dict[int, list[dict]] = {pid: [] for pid in _PIDS}
    serial = 0
    sag = iter((0.50, 0.90, 0.20, 0.85, 0.95, 0.40, 1.0))
    units = [{"label": f"U{seed}.{i}", "key": f"k{seed}{i:03d}",
              "path": list(_UNIT_PATHS[i % len(_UNIT_PATHS)])}
             for i in range(9)]

    def tick() -> float:
        nonlocal ts
        ts += rng.choice((0.0, 0.01, 0.125, 0.5, rng.uniform(0.0, 2.0)))
        return ts

    for _ in range(260):
        pid = rng.choice(_PIDS)
        roll = rng.random()
        if roll < 0.24:
            serial += 1
            parent = stacks[pid][-1]["span_id"] if stacks[pid] else None
            start = {"kind": "span_start", "name": rng.choice(_SPAN_NAMES),
                     "span_id": f"{pid}.{serial}", "parent_id": parent,
                     "pid": pid, "ts": tick(),
                     "attrs": dict(rng.choice(_ATTR_CHOICES))}
            stacks[pid].append(start)
            events.append(start)
        elif roll < 0.46 and stacks[pid]:
            start = stacks[pid].pop()
            # A small duration alphabet forces ties among the slowest.
            dur = rng.choice((0.25, 0.5, 1.0, rng.uniform(0.0, 3.0)))
            close = {"kind": "span", "name": start["name"],
                     "span_id": start["span_id"],
                     "parent_id": start["parent_id"], "pid": pid,
                     "ts": start["ts"], "dur_s": dur,
                     "status": "error" if rng.random() < 0.2 else "ok",
                     "attrs": dict(start["attrs"])}
            res_roll = rng.random()
            if res_roll < 0.35:
                close["res"] = {"cpu_s": rng.uniform(0.0, dur),
                                "peak_rss_kb": rng.choice((51200.0, 98304.5,
                                                           rng.uniform(1e4,
                                                                       2e5)))}
            elif res_roll < 0.5:
                close["res"] = {"cpu_s": rng.uniform(0.0, dur)}
            elif res_roll < 0.6:
                close["res"] = {"peak_rss_kb": rng.uniform(1e4, 2e5)}
            tick()
            events.append(close)
        elif roll < 0.62:
            events.append({"kind": "metric", "name": rng.choice(_COUNTERS),
                           "metric": "counter",
                           "value": rng.choice((1.0, 2.0, 0.1,
                                                rng.uniform(0.0, 5.0))),
                           "pid": pid, "ts": tick(), "attrs": {}})
        elif roll < 0.68:
            value = next(sag, None)
            if value is None:
                value = rng.uniform(0.0, 1.0)
            events.append({"kind": "metric", "name": "engine.informed",
                           "metric": "gauge", "value": value, "pid": pid,
                           "ts": tick(), "attrs": {}})
        elif roll < 0.76:
            events.append({"kind": "metric",
                           "name": rng.choice(("campaign.unit_elapsed_s",
                                               "protocol.transmit_s")),
                           "metric": "histogram",
                           "value": rng.uniform(0.0, 4.0), "pid": pid,
                           "ts": tick(), "attrs": {}})
        else:
            live = [u for u in units if u["path"]]
            if not live:
                continue
            unit = rng.choice(live)
            attrs = {"label": unit["label"], "key": unit["key"]}
            if unit["path"][0] == "running" and rng.random() < 0.3:
                # A worker that beats before it reports running.
                events.append({"kind": "event", "name": "campaign.heartbeat",
                               "status": "ok", "pid": pid, "ts": tick(),
                               "attrs": {**attrs, "interval": 0.5}})
            status = unit["path"].pop(0)
            events.append({"kind": "event", "name": "campaign.unit",
                           "status": status, "pid": pid, "ts": tick(),
                           "attrs": attrs})
            if status == "running":
                for _beat in range(rng.randint(1, 3)):
                    events.append({"kind": "event",
                                   "name": "campaign.heartbeat",
                                   "status": "ok", "pid": pid, "ts": tick(),
                                   "attrs": {**attrs,
                                             "interval": rng.choice(
                                                 (0.5, 1.0, 2.0))}})
    # Whatever is still on a stack stays open: a killed run's tail.
    return events


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _chunks(events: list[dict], seed: int):
    rng = random.Random(10_000 + seed)
    at = 0
    while at < len(events):
        step = rng.randint(0, 17)
        yield events[at:at + step]
        at += step


def test_corpus_covers_the_record_shapes():
    kinds, statuses, res, errors = set(), set(), 0, 0
    unclosed = 0
    for seed in SEEDS:
        events = _corpus(seed)
        opened = {e["span_id"] for e in events if e["kind"] == "span_start"}
        closed = {e["span_id"] for e in events if e["kind"] == "span"}
        unclosed += len(opened - closed)
        for ev in events:
            kinds.add((ev["kind"], ev.get("metric")))
            if ev["kind"] == "event" and ev["name"] == "campaign.unit":
                statuses.add(ev["status"])
            res += "res" in ev
            errors += ev.get("status") == "error" and ev["kind"] == "span"
        assert len({e["pid"] for e in events}) == len(_PIDS)
    assert {("metric", "counter"), ("metric", "gauge"),
            ("metric", "histogram"), ("span_start", None), ("span", None),
            ("event", None)} <= kinds
    assert statuses == {"planned", "leased", "running", "cached",
                        "checkpointed", "error"}
    assert res and errors and unclosed


def test_summarize_digest():
    outputs = [summarize(_corpus(seed), top=TOP) for seed in SEEDS]
    assert _digest(outputs) == (
        "6a225e7d777a3999c7853b1149166a6bfc4435bd8e8224eb98e9bf25307df5de")


def test_snapshot_digest_after_chunked_ingestion():
    outputs = []
    for seed in SEEDS:
        events = _corpus(seed)
        fold = _Fold(clock=lambda: 0.0)
        for chunk in _chunks(events, seed):
            fold.ingest(chunk)
        outputs.append(fold.snapshot(now=events[-1]["ts"] + 3.0))
    assert _digest(outputs) == (
        "81bb02deff370d3b06f4ebe4b89fda04435b3aaa11faf9cbb26a8ea0588456e6")


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_campaign_progress_lines_digest():
    rng = random.Random(77)
    clock = _FakeClock()
    stream = io.StringIO()
    progress = CampaignProgress(stream, clock=clock)
    total = 40
    for done in range(1, total + 1):
        # Repeated instants (no elapsed time), slow and fast stretches.
        clock.now += rng.choice((0.0, 0.25, 1.0, 7.5, rng.uniform(0, 30)))
        unit = SimpleNamespace(label=f"E{rng.randint(1, 16)}/s{done}",
                               key=f"{done:064x}")
        progress(done, total, unit, rng.random() < 0.3)
    lines = stream.getvalue().splitlines()
    assert len(lines) == total
    assert _digest(lines) == (
        "9060861ce56de248ef691d65bd5256709012c8031a8f7702c53fe58ee2790e92")
