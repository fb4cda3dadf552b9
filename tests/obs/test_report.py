"""Report aggregation and the ``python -m repro.obs`` CLI."""

from __future__ import annotations

import json

from repro import obs
from repro.obs.cli import main
from repro.obs.report import render_summary, summarize
from repro.obs.sinks import JsonlSink


def _span(name, dur, *, pid=1, ts=0.0, status="ok", attrs=None):
    return {"kind": "span", "name": name, "span_id": f"{pid}.{ts}",
            "parent_id": None, "pid": pid, "ts": ts, "dur_s": dur,
            "status": status, "attrs": attrs or {}}


def _metric(metric, name, value):
    return {"kind": "metric", "name": name, "metric": metric,
            "value": value, "pid": 1, "ts": 0.0, "attrs": {}}


class TestSummarize:
    def test_phase_aggregation(self):
        events = [_span("a", 1.0), _span("a", 3.0), _span("b", 0.5)]
        s = summarize(events)
        assert s["spans"] == 3
        assert s["phases"]["a"] == {"count": 2, "total_s": 4.0,
                                    "max_s": 3.0, "errors": 0,
                                    "mean_s": 2.0, "cpu_s": None,
                                    "peak_rss_kb": None}
        assert s["phases"]["b"]["count"] == 1

    def test_phase_resource_rollup(self):
        events = [_span("a", 1.0), _span("a", 3.0)]
        events[0]["res"] = {"cpu_s": 0.5, "peak_rss_kb": 1000.0}
        events[1]["res"] = {"cpu_s": 1.5, "peak_rss_kb": 3000.0}
        phase = summarize(events)["phases"]["a"]
        assert phase["cpu_s"] == 2.0  # summed
        assert phase["peak_rss_kb"] == 3000.0  # high-watermark

    def test_wall_clock_spans_processes(self):
        events = [_span("a", 2.0, pid=1, ts=10.0),
                  _span("a", 1.0, pid=2, ts=13.0)]
        s = summarize(events)
        assert s["wall_s"] == 4.0  # 10.0 .. 14.0
        assert s["pids"] == [1, 2]

    def test_counters_sum_gauges_roll_up(self):
        events = [_metric("counter", "c", 2), _metric("counter", "c", 3),
                  _metric("gauge", "g", 0.1), _metric("gauge", "g", 0.9)]
        s = summarize(events)
        assert s["counters"]["c"] == 5
        assert s["gauges"]["g"] == {"first": 0.1, "last": 0.9,
                                    "min": 0.1, "max": 0.9, "count": 2}

    def test_gauge_sag_is_not_flattened(self):
        """A gauge that dipped mid-run must not summarize as flat."""
        events = [_metric("gauge", "g", 1.0), _metric("gauge", "g", 0.2),
                  _metric("gauge", "g", 1.0)]
        roll = summarize(events)["gauges"]["g"]
        assert roll == {"first": 1.0, "last": 1.0, "min": 0.2,
                        "max": 1.0, "count": 3}

    def test_unclosed_spans_surface(self):
        def _start(name, span_id, ts=0.0):
            return {"kind": "span_start", "name": name, "span_id": span_id,
                    "parent_id": None, "pid": 1, "ts": ts,
                    "attrs": {"label": name}}

        closed = dict(_span("fine", 1.0), span_id="1.1")
        s = summarize([_start("fine", "1.1"),
                       _start("doomed", "1.9", ts=5.0), closed])
        assert [u["name"] for u in s["unclosed"]] == ["doomed"]
        assert s["unclosed"][0]["span_id"] == "1.9"
        assert s["unclosed"][0]["attrs"] == {"label": "doomed"}

    def test_histogram_stats(self):
        events = [_metric("histogram", "h", v) for v in (1.0, 3.0, 2.0)]
        stats = summarize(events)["histograms"]["h"]
        assert stats["count"] == 3
        assert stats["min"] == 1.0 and stats["max"] == 3.0
        assert stats["mean"] == 2.0

    def test_cache_rate_from_campaign_counters(self):
        events = [_metric("counter", "campaign.cache.hit", 3),
                  _metric("counter", "campaign.cache.miss", 1)]
        cache = summarize(events)["cache"]
        assert cache == {"hits": 3, "misses": 1, "rate": 0.75}

    def test_cache_rate_none_without_campaign(self):
        assert summarize([_span("a", 1.0)])["cache"]["rate"] is None

    def test_slowest_spans_ranked_and_labelled(self):
        events = [_span("unit", 0.1, attrs={"label": "E1"}),
                  _span("unit", 0.9, attrs={"label": "E2"}),
                  _span("other", 0.5)]
        slowest = summarize(events, top=2)["slowest"]
        assert [s["label"] for s in slowest] == ["unit(E2)", "other"]

    def test_slowest_engine_chunks_name_their_tier(self):
        events = [_span("engine.chunk", 0.2, attrs={"tier": "kernel"}),
                  _span("engine.chunk", 0.1, ts=1.0,
                        attrs={"tier": "counts"})]
        slowest = summarize(events)["slowest"]
        assert [s["label"] for s in slowest] == ["engine.chunk(kernel)",
                                                  "engine.chunk(counts)"]

    def test_error_spans_counted(self):
        s = summarize([_span("a", 1.0, status="error")])
        assert s["phases"]["a"]["errors"] == 1

    def test_lifecycle_tally(self):
        events = [{"kind": "event", "name": "campaign.unit", "status": st,
                   "pid": 1, "ts": 0.0, "attrs": {}}
                  for st in ("planned", "planned", "checkpointed")]
        s = summarize(events)
        assert s["lifecycle"]["campaign.unit"] == {"planned": 2,
                                                   "checkpointed": 1}


class TestRender:
    def test_render_contains_the_load_bearing_sections(self):
        events = [_span("engine.chunk", 0.2),
                  _metric("counter", "campaign.cache.hit", 1),
                  _metric("counter", "campaign.cache.miss", 1),
                  _metric("histogram", "h", 0.5),
                  {"kind": "event", "name": "campaign.unit",
                   "status": "cached", "pid": 1, "ts": 0.0, "attrs": {}}]
        text = render_summary(None, summarize(events))
        for needle in ("per-phase span time", "engine.chunk",
                       "cache 1 hit / 1 miss", "counters",
                       "histograms", "lifecycle events"):
            assert needle in text, needle

    def test_render_empty_trace(self):
        text = render_summary(None, summarize([]))
        assert "0 spans" in text

    def test_render_flags_unclosed_spans(self):
        start = {"kind": "span_start", "name": "doomed", "span_id": "1.9",
                 "parent_id": None, "pid": 1, "ts": 5.0, "attrs": {}}
        text = render_summary(None, summarize([start]))
        assert "never closed" in text and "doomed" in text

    def test_render_gauge_rollup_table(self):
        events = [_metric("gauge", "depth", 0.25),
                  _metric("gauge", "depth", 0.75)]
        text = render_summary(None, summarize(events))
        assert "gauges" in text and "depth" in text


class TestCli:
    def _write_trace(self, path):
        sink = JsonlSink(path, argv=["prog"])
        previous = obs.configure(sink)
        try:
            with obs.span("phase.x"):
                obs.counter("campaign.cache.hit")
        finally:
            obs.configure(previous if previous.live else None)
            sink.close()

    def test_report_renders(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "phase.x" in out and "repro.obs/trace" in out

    def test_summary_is_compact(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        assert main(["summary", str(path)]) == 0
        assert "1 spans" in capsys.readouterr().out

    def test_validate_accepts_good_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        assert main(["validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_rejects_bad_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "span"}\n')
        assert main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_validate_rejects_headerless_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(
            {"kind": "event", "name": "x", "status": "ok", "pid": 1,
             "ts": 0.0, "attrs": {}}) + "\n")
        assert main(["validate", str(path)]) == 1
        assert "no manifest" in capsys.readouterr().err

    def test_validate_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.jsonl")]) == 1

    def test_validate_warns_about_unclosed_spans(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        # Simulate a kill: append an open record whose close never lands.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"kind": "span_start", "name": "killed.phase",
                 "span_id": "1.99", "parent_id": None, "pid": 1,
                 "ts": 0.0, "attrs": {}}) + "\n")
        assert main(["validate", str(path)]) == 0  # schema-valid
        captured = capsys.readouterr()
        assert "1 unclosed span(s)" in captured.err
        assert "killed.phase" in captured.err
        assert "ok:" in captured.out

    def test_profile_renders_tree(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, argv=["prog"])
        previous = obs.configure(sink)
        try:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        finally:
            obs.configure(previous if previous.live else None)
            sink.close()
        assert main(["profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "  inner" in out and "self_ms" in out

    def test_diff_runs_on_two_traces(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_trace(a)
        self._write_trace(b)
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "phase.x" in out and "self-time delta" in out
