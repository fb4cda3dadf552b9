"""The live fold, heartbeats, and the watch dashboard."""

from __future__ import annotations

import io
import threading

from repro import obs
from repro.obs.live import render_dashboard, watch, watch_in_thread
from repro.obs.sinks import JsonlSink, MemorySink
from repro.obs.stream import TraceFold


def _span_start(name, span_id, ts, pid=1, parent=None, attrs=None):
    return {"kind": "span_start", "name": name, "span_id": span_id,
            "parent_id": parent, "pid": pid, "ts": ts,
            "attrs": attrs or {}}


def _span(name, span_id, ts, dur, pid=1, parent=None, status="ok"):
    return {"kind": "span", "name": name, "span_id": span_id,
            "parent_id": parent, "pid": pid, "ts": ts, "dur_s": dur,
            "status": status, "attrs": {}}


def _counter(name, value, ts, pid=1):
    return {"kind": "metric", "name": name, "metric": "counter",
            "value": value, "pid": pid, "ts": ts, "attrs": {}}


def _unit_event(status, label, ts, pid=1, key=None):
    return {"kind": "event", "name": "campaign.unit", "status": status,
            "pid": pid, "ts": ts,
            "attrs": {"label": label, "key": key or label}}


def _heartbeat(label, ts, interval=1.0, pid=1, key=None):
    return {"kind": "event", "name": "campaign.heartbeat", "status": "ok",
            "pid": pid, "ts": ts,
            "attrs": {"label": label, "key": key or label,
                      "interval": interval}}


class TestLiveFold:
    def test_open_span_stacks_per_pid(self):
        agg = TraceFold(clock=lambda: 10.0)
        agg.ingest([_span_start("outer", "1.1", 1.0),
                    _span_start("inner", "1.2", 2.0, parent="1.1"),
                    _span_start("worker", "2.1", 3.0, pid=2)])
        snap = agg.snapshot()
        assert [f["name"] for f in snap["pids"][1]] == ["outer", "inner"]
        assert snap["pids"][1][0]["age_s"] == 9.0
        assert [f["name"] for f in snap["pids"][2]] == ["worker"]
        assert snap["open_spans"] == 3 and not agg.idle

    def test_span_close_pops_the_stack(self):
        agg = TraceFold(clock=lambda: 10.0)
        agg.ingest([_span_start("outer", "1.1", 1.0),
                    _span_start("inner", "1.2", 2.0, parent="1.1"),
                    _span("inner", "1.2", 2.0, 1.5, parent="1.1")])
        snap = agg.snapshot()
        assert [f["name"] for f in snap["pids"][1]] == ["outer"]
        assert snap["spans"] == 1
        agg.ingest([_span("outer", "1.1", 1.0, 4.0)])
        assert agg.idle
        assert agg.snapshot()["pids"] == {}

    def test_error_spans_counted(self):
        agg = TraceFold()
        agg.ingest([_span("bad", "1.1", 0.0, 0.1, status="error")])
        assert agg.snapshot()["errors"] == 1

    def test_counter_totals_and_windowed_rate(self):
        agg = TraceFold(clock=lambda: 100.0)
        agg.ingest([_counter("items", 5, ts=50.0),   # far outside window
                    _counter("items", 3, ts=95.0),
                    _counter("items", 2, ts=99.0)])
        stats = agg.snapshot()["counters"]["items"]
        assert stats["total"] == 10.0
        assert stats["rate"] == (3 + 2) / 10.0

    def test_campaign_progress_and_hit_rate(self):
        agg = TraceFold(clock=lambda: 10.0)
        agg.ingest([_unit_event("planned", "E1", 0.0),
                    _unit_event("planned", "E2", 0.0),
                    _unit_event("cached", "E3", 0.1),
                    _unit_event("leased", "E1", 0.2),
                    _unit_event("running", "E1", 0.3),
                    _unit_event("checkpointed", "E1", 1.0)])
        campaign = agg.snapshot()["campaign"]
        assert campaign["total"] == 3
        assert campaign["done"] == 2
        assert campaign["cached"] == 1
        assert campaign["computed"] == 1
        assert campaign["running"] == 0
        assert campaign["hit_rate"] == 0.5

    def test_eta_from_checkpoint_rate(self):
        agg = TraceFold(clock=lambda: 30.0)
        events = [_unit_event("planned", f"E{i}", 0.0) for i in range(6)]
        # three checkpoints, 10s apart -> rate 0.1/s, 3 remaining -> 30s
        for i, ts in enumerate([10.0, 20.0, 30.0]):
            events.append(_unit_event("checkpointed", f"E{i}", ts))
        agg.ingest(events)
        campaign = agg.snapshot()["campaign"]
        assert campaign["done"] == 3
        assert campaign["eta_s"] == 30.0

    def test_heartbeat_staleness(self):
        now = 100.0
        agg = TraceFold(clock=lambda: now)
        agg.ingest([_unit_event("running", "E1", 90.0),
                    _heartbeat("E1", 99.0, interval=1.0),
                    _unit_event("running", "E2", 90.0),
                    _heartbeat("E2", 92.0, interval=1.0)])
        units = {u["label"]: u for u in agg.snapshot()["units"]}
        assert units["E1"]["stale"] is False  # beat 1s ago
        assert units["E2"]["stale"] is True   # beat 8s ago > 3x interval
        assert units["E2"]["heartbeat_age_s"] == 8.0
        assert agg.snapshot()["campaign"]["stale"] == 1

    def test_done_units_are_never_stale(self):
        agg = TraceFold(clock=lambda: 100.0)
        agg.ingest([_unit_event("running", "E1", 0.0),
                    _heartbeat("E1", 0.5),
                    _unit_event("checkpointed", "E1", 1.0)])
        [unit] = agg.snapshot()["units"]
        assert unit["stale"] is False

    def test_explicit_stale_after_overrides_interval(self):
        agg = TraceFold(stale_after=60.0, clock=lambda: 100.0)
        agg.ingest([_unit_event("running", "E1", 90.0),
                    _heartbeat("E1", 92.0, interval=1.0)])
        [unit] = agg.snapshot()["units"]
        assert unit["stale"] is False  # 8s < 60s

    def test_running_event_counts_as_a_beat(self):
        agg = TraceFold(clock=lambda: 10.0)
        agg.ingest([_unit_event("running", "E1", 9.5)])
        [unit] = agg.snapshot()["units"]
        assert unit["heartbeat_age_s"] == 0.5


class TestRenderDashboard:
    def _snapshot(self):
        agg = TraceFold(clock=lambda: 10.0)
        agg.ingest([_span_start("campaign.run", "1.1", 0.0),
                    _counter("campaign.cache.miss", 1, ts=9.0),
                    _unit_event("planned", "E1", 0.0),
                    _unit_event("running", "E1", 1.0),
                    _heartbeat("E1", 9.5),
                    _unit_event("planned", "E2", 0.0),
                    _unit_event("running", "E2", 1.0),
                    _heartbeat("E2", 2.0)])
        return agg.snapshot()

    def test_renders_campaign_bar_units_and_stacks(self):
        frame = render_dashboard(self._snapshot(), title="watching t")
        assert "watching t" in frame
        assert "campaign [" in frame and "0/2" in frame
        assert "campaign.run" in frame
        assert "campaign.cache.miss" in frame
        assert "E1" in frame and "E2" in frame
        assert "STALE" in frame  # E2's beat is 8s old

    def test_stale_units_float_to_the_top(self):
        frame = render_dashboard(self._snapshot())
        lines = [l for l in frame.splitlines() if l.strip().startswith("E")]
        assert lines[0].strip().startswith("E2")

    def test_empty_snapshot_renders(self):
        frame = render_dashboard(TraceFold().snapshot())
        assert "events 0" in frame


class TestWatch:
    def _write_trace(self, path, *, close_all=True):
        sink = JsonlSink(path, argv=["t"])
        previous = obs.configure(sink)
        try:
            with obs.span("campaign.run"):
                obs.event("campaign.unit", status="planned", label="E1")
                obs.event("campaign.unit", status="running", label="E1")
                obs.counter("campaign.cache.miss")
                obs.event("campaign.unit", status="checkpointed",
                          label="E1")
        finally:
            obs.configure(previous if previous.live else None)
            sink.close()

    def test_once_renders_a_single_frame(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        self._write_trace(trace)
        out = io.StringIO()
        agg = watch(trace, once=True, stream=out)
        frame = out.getvalue()
        assert "campaign [" in frame and "1/1" in frame
        assert agg.events_seen > 0

    def test_completed_trace_exits_on_idle(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        self._write_trace(trace)
        out = io.StringIO()
        agg = watch(trace, interval=0.0, stream=out,
                    sleep=lambda _t: None)
        assert agg.idle  # returned because every span closed

    def test_stop_event_ends_the_loop_with_a_final_frame(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        stop = threading.Event()
        stop.set()
        out = io.StringIO()
        watch(trace, stream=out, stop=stop, sleep=lambda _t: None)
        assert "events 0" in out.getvalue()

    def test_idle_timeout_stops_a_frozen_trace(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        # span_start with no close: a killed run's frozen trace
        trace.write_text(
            '{"kind": "span_start", "name": "campaign.run", '
            '"span_id": "1.1", "parent_id": null, "pid": 1, '
            '"ts": 0.0, "attrs": {}}\n')
        ticks = iter([0.0, 0.0, 10.0, 20.0, 30.0, 40.0, 50.0])
        out = io.StringIO()
        agg = watch(trace, interval=0.0, idle_timeout=15.0, stream=out,
                    clock=lambda: next(ticks), sleep=lambda _t: None)
        assert not agg.idle
        assert "no trace activity" in out.getvalue()

    def test_watch_in_thread_stops_on_event(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        self._write_trace(trace)
        out = io.StringIO()
        thread, stop = watch_in_thread(trace, interval=0.01, stream=out)
        stop.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_cli_once(self, tmp_path, capsys):
        from repro.obs.cli import main as obs_cli

        trace = tmp_path / "t.jsonl"
        self._write_trace(trace)
        assert obs_cli(["watch", str(trace), "--once"]) == 0
        out = capsys.readouterr().out
        assert "campaign [" in out and "watching" in out

    def test_cli_once_on_missing_trace(self, tmp_path, capsys):
        from repro.obs.cli import main as obs_cli

        assert obs_cli(["watch", str(tmp_path / "nope.jsonl"),
                        "--once"]) == 0
        assert "events 0" in capsys.readouterr().out


class TestHeartbeat:
    def test_scheduler_units_beat(self, tmp_path, memory_sink):
        from repro.campaign.plan import plan_experiments
        from repro.campaign.scheduler import run_campaign
        from repro.campaign.store import ResultStore
        from repro.experiments.common import ExperimentConfig

        plan = plan_experiments(["E1"], ExperimentConfig(scale="quick"))
        run_campaign(plan, ResultStore(tmp_path / "store"))
        beats = [e for e in memory_sink.events
                 if e["name"] == "campaign.heartbeat"]
        assert beats, "execute_unit ran without a heartbeat"
        assert beats[0]["attrs"]["label"] == "E1"
