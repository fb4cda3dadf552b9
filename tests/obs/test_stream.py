"""Streaming trace following: the tail-with-offset contract.

The follower's invariant under test: ``offset`` always points at the
start of an unconsumed line, only newline-terminated lines are ever
consumed, and a torn tail (any proper prefix of a record — simulated
here at *every* byte offset) is re-read intact on a later poll, so the
incremental reader sees exactly the events the post-hoc reader sees.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro import obs
from repro.obs.events import read_trace
from repro.obs.sinks import JsonlSink
from repro.obs.stream import TraceFollower


def _write(path, lines):
    with open(path, "ab") as handle:
        handle.write("".join(lines).encode("utf-8"))


def _event_line(name, ts=0.0, pid=1):
    return json.dumps({"kind": "event", "name": name, "status": "ok",
                       "pid": pid, "ts": ts, "attrs": {}}) + "\n"


class TestFollowerOffsets:
    def test_missing_file_yields_nothing(self, tmp_path):
        follower = TraceFollower(tmp_path / "absent.jsonl")
        assert follower.poll() == []
        assert follower.offset == 0

    def test_incremental_polls_return_each_event_once(self, tmp_path):
        path = tmp_path / "t.jsonl"
        follower = TraceFollower(path)
        _write(path, [_event_line("a")])
        assert [e["name"] for e in follower.poll()] == ["a"]
        assert follower.poll() == []
        _write(path, [_event_line("b"), _event_line("c")])
        assert [e["name"] for e in follower.poll()] == ["b", "c"]
        assert follower.offset == os.path.getsize(path)

    def test_torn_tail_left_for_the_next_poll(self, tmp_path):
        path = tmp_path / "t.jsonl"
        whole = _event_line("torn")
        _write(path, [whole[:10]])  # writer caught mid-append
        follower = TraceFollower(path)
        assert follower.poll() == []
        assert follower.offset == 0
        _write(path, [whole[10:]])
        assert [e["name"] for e in follower.poll()] == ["torn"]

    def test_torn_at_every_byte_offset(self, tmp_path):
        """No split point loses or duplicates a record."""
        lines = [_event_line("first"), _event_line("second")]
        payload = "".join(lines)
        for cut in range(len(payload) + 1):
            path = tmp_path / f"cut{cut}.jsonl"
            follower = TraceFollower(path)
            _write(path, [payload[:cut]])
            seen = [e["name"] for e in follower.poll()]
            _write(path, [payload[cut:]])
            seen += [e["name"] for e in follower.poll()]
            assert seen == ["first", "second"], f"split at byte {cut}"
            assert follower.malformed == 0

    def test_manifest_is_captured_not_returned(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, argv=["prog"])
        sink.emit({"kind": "event", "name": "x", "status": "ok",
                   "pid": 1, "ts": 0.0, "attrs": {}})
        sink.close()
        follower = TraceFollower(path)
        events = follower.poll()
        assert [e["name"] for e in events] == ["x"]
        assert follower.manifest is not None
        assert follower.manifest["argv"] == ["prog"]

    def test_truncated_file_restarts_from_zero(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write(path, [_event_line("a"), _event_line("b")])
        follower = TraceFollower(path)
        follower.poll()
        path.write_text(_event_line("fresh"))  # rotate/truncate
        events = follower.poll()
        assert [e["name"] for e in events] == ["fresh"]
        assert follower.restarts == 1

    def test_malformed_terminated_line_is_counted_and_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write(path, [_event_line("ok"), "not json\n", _event_line("more")])
        follower = TraceFollower(path)
        assert [e["name"] for e in follower.poll()] == ["ok", "more"]
        assert follower.malformed == 1


class TestReadTraceTornTail:
    def _trace_bytes(self, tmp_path):
        path = tmp_path / "whole.jsonl"
        sink = JsonlSink(path, argv=["t"])
        previous = obs.configure(sink)
        try:
            with obs.span("phase", n=1):
                obs.counter("c", 2)
        finally:
            obs.configure(previous if previous.live else None)
            sink.close()
        return path.read_bytes()

    def test_truncation_at_every_byte_offset(self, tmp_path):
        """``read_trace`` never raises on a prefix of a valid trace:
        records before the tear parse, the tear sets ``partial_tail``."""
        payload = self._trace_bytes(tmp_path)
        whole = read_trace(tmp_path / "whole.jsonl")
        assert not whole.partial_tail
        for cut in range(1, len(payload) + 1):
            path = tmp_path / "cut.jsonl"
            path.write_bytes(payload[:cut])
            read = read_trace(path)
            complete = sum(1 for b in payload[:cut] if b == ord("\n"))
            # A cut landing exactly before a newline leaves a whole
            # record missing only its terminator — kept, not torn.
            tail = payload[:cut].rpartition(b"\n")[2]
            tail_is_whole = False
            if tail:
                try:
                    json.loads(tail)
                    tail_is_whole = True
                except ValueError:
                    pass
            n_read = len(read.events) + (read.manifest is not None)
            assert n_read == complete + tail_is_whole, \
                f"truncated at byte {cut}"
            assert read.partial_tail == (bool(tail) and not tail_is_whole), \
                f"truncated at byte {cut}"

    def test_unterminated_but_complete_record_is_kept(self, tmp_path):
        path = tmp_path / "t.jsonl"
        line = _event_line("last")
        _write(path, [_event_line("first"), line[:-1]])  # no trailing \n
        read = read_trace(path)
        assert [e["name"] for e in read.events] == ["first", "last"]
        assert not read.partial_tail

    def test_unterminated_schema_violation_still_raises(self, tmp_path):
        """A parseable tail is a whole record, so bad schema is real."""
        path = tmp_path / "t.jsonl"
        _write(path, ['{"kind": "span"}'])  # valid JSON, invalid event
        with pytest.raises(ValueError, match="missing required fields"):
            read_trace(path)

    def test_unpacks_as_the_historical_pair(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write(path, [_event_line("x")])
        manifest, events = read_trace(path)
        assert manifest is None
        assert [e["name"] for e in events] == ["x"]


def _traced_campaign_child(trace_path, results_dir, barrier):
    """Run a traced quick campaign in a separate process."""
    from repro.campaign.plan import plan_experiments
    from repro.campaign.scheduler import run_campaign
    from repro.campaign.store import ResultStore
    from repro.experiments.common import ExperimentConfig

    sink = JsonlSink(trace_path, argv=["child"])
    previous = obs.configure(sink)
    barrier.wait()  # watcher attached before the first span lands
    try:
        plan = plan_experiments(["E1"], ExperimentConfig(scale="quick"))
        run_campaign(plan, ResultStore(results_dir))
    finally:
        obs.configure(previous if previous.live else None)
        sink.close()


class TestLiveWriter:
    def test_follower_sees_every_event_the_reader_sees(self, tmp_path):
        """Follow a trace while another process writes it: the
        incremental union equals the post-hoc ``read_trace`` view."""
        trace = tmp_path / "live.jsonl"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        child = ctx.Process(target=_traced_campaign_child,
                            args=(trace, tmp_path / "store", barrier))
        child.start()
        follower = TraceFollower(trace)
        barrier.wait()
        streamed: list[dict] = []
        while child.is_alive():
            streamed.extend(follower.poll())
        child.join(timeout=60)
        assert child.exitcode == 0
        streamed.extend(follower.poll())  # drain the final lines

        manifest, events = read_trace(trace)
        assert manifest is not None and follower.manifest == manifest
        assert streamed == events
        span_ids = {e["span_id"] for e in events if e["kind"] == "span"}
        assert {e["span_id"] for e in streamed
                if e["kind"] == "span"} == span_ids
        assert {"campaign.run", "campaign.unit.run"} <= {
            e["name"] for e in streamed if e["kind"] == "span"}
        assert follower.malformed == 0
