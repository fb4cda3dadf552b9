"""TraceFold: chunking invariance, the bounded slowest-span heap."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.stream import TraceFold

_DURS = (0.0, 0.5, 1.0, 1.0, 2.5)  # repeats force ties


def _build(steps) -> list[dict]:
    """A well-formed stream from hypothesis-drawn steps."""
    events: list[dict] = []
    stacks: dict[int, list[str]] = {}
    ts = 0.0
    for serial, (action, pid, value, status) in enumerate(steps):
        ts += value / 4
        stack = stacks.setdefault(pid, [])
        if action == "open" or (action == "close" and not stack):
            span_id = f"{pid}.{serial}"
            stack.append(span_id)
            events.append({"kind": "span_start", "name": f"s{serial % 3}",
                           "span_id": span_id, "parent_id": None,
                           "pid": pid, "ts": ts, "attrs": {"n": serial}})
        elif action == "close":
            span_id = stack.pop()
            events.append({"kind": "span", "name": f"s{serial % 3}",
                           "span_id": span_id, "parent_id": None,
                           "pid": pid, "ts": ts,
                           "dur_s": _DURS[serial % len(_DURS)],
                           "status": status, "attrs": {"label": span_id},
                           "res": {"cpu_s": value, "peak_rss_kb": value}})
        elif action in ("counter", "gauge", "histogram"):
            events.append({"kind": "metric", "name": "campaign.cache.hit",
                           "metric": action, "value": value, "pid": pid,
                           "ts": ts, "attrs": {}})
        else:
            events.append({"kind": "event", "name": action,
                           "status": status, "pid": pid, "ts": ts,
                           "attrs": {"label": f"U{pid}", "interval": 1.0}})
    return events


_steps = st.lists(st.tuples(
    st.sampled_from(("open", "close", "close", "counter", "gauge",
                     "histogram", "campaign.unit", "campaign.heartbeat")),
    st.integers(1, 3),
    st.floats(0.0, 4.0, allow_nan=False),
    st.sampled_from(("ok", "error", "running", "checkpointed", "cached",
                     "leased"))), max_size=60)


@settings(max_examples=150, deadline=None)
@given(steps=_steps, data=st.data())
def test_chunking_never_changes_the_fold(steps, data):
    events = _build(steps)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(events)),
                                     max_size=8)))
    whole, chunked = TraceFold(top=4), TraceFold(top=4)
    whole.ingest(events)
    for lo, hi in zip([0] + cuts, cuts + [len(events)]):
        chunked.ingest(events[lo:hi])
    assert chunked.summary() == whole.summary()
    assert chunked.snapshot(now=50.0) == whole.snapshot(now=50.0)


@settings(max_examples=150, deadline=None)
@given(steps=_steps, top=st.integers(0, 12))
def test_slowest_heap_matches_a_stable_descending_sort(steps, top):
    events = _build(steps)
    fold = TraceFold(top=top)
    fold.ingest(events)
    spans = [ev for ev in events if ev["kind"] == "span"]
    expected = sorted(spans, key=lambda s: s["dur_s"], reverse=True)[:top]
    assert [(row["label"], row["dur_s"])
            for row in fold.summary()["slowest"]] == \
        [(f"{s['name']}({s['span_id']})", s["dur_s"]) for s in expected]


def test_fold_retains_at_most_top_closed_spans():
    fold = TraceFold(top=5)
    for i in range(10_000):
        fold.ingest([
            {"kind": "span_start", "name": "unit", "span_id": f"1.{i}",
             "parent_id": None, "pid": 1, "ts": float(i), "attrs": {}},
            {"kind": "span", "name": "unit", "span_id": f"1.{i}",
             "parent_id": None, "pid": 1, "ts": float(i),
             "dur_s": (i * 7919 % 10_007) / 1e3, "status": "ok",
             "attrs": {}}])
    assert len(fold._slowest) <= 5
    assert not fold._open and fold.idle
    summary = fold.summary()
    assert summary["spans"] == 10_000
    assert [s["dur_s"] for s in summary["slowest"]] == \
        sorted(((i * 7919 % 10_007) / 1e3 for i in range(10_000)),
               reverse=True)[:5]
