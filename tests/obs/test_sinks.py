"""Sink contracts: null, memory, JSONL, and tee."""

from __future__ import annotations

import json

import pytest

from repro.obs.sinks import JsonlSink, MemorySink, NullSink, TeeSink


def _event(name="x"):
    return {"kind": "event", "name": name, "status": "ok", "pid": 1,
            "ts": 0.0, "attrs": {}}


class TestNullSink:
    def test_not_live_and_discards(self):
        sink = NullSink()
        assert sink.live is False
        sink.emit(_event())
        sink.close()
        assert sink.trace_path() is None


class TestMemorySink:
    def test_collects_copies(self):
        sink = MemorySink()
        ev = _event()
        sink.emit(ev)
        ev["name"] = "mutated"
        assert sink.events[0]["name"] == "x"

    def test_clear(self):
        sink = MemorySink()
        sink.emit(_event())
        sink.clear()
        assert sink.events == []


class TestJsonlSink:
    def test_writes_manifest_first(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, argv=["a"])
        sink.emit(_event())
        sink.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["kind"] == "manifest"
        assert lines[1]["kind"] == "event"
        assert sink.trace_path() == path

    def test_manifest_false_appends_raw(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, manifest=False)
        sink.emit(_event())
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1

    def test_truncates_by_default_appends_on_request(self, tmp_path):
        path = tmp_path / "t.jsonl"
        first = JsonlSink(path, manifest=False)
        first.emit(_event("one"))
        first.close()
        appender = JsonlSink(path, manifest=False, append=True)
        appender.emit(_event("two"))
        appender.close()
        names = [json.loads(l)["name"] for l in path.read_text().splitlines()]
        assert names == ["one", "two"]
        truncater = JsonlSink(path, manifest=False)
        truncater.emit(_event("three"))
        truncater.close()
        names = [json.loads(l)["name"] for l in path.read_text().splitlines()]
        assert names == ["three"]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "t.jsonl"
        JsonlSink(path).close()
        assert path.exists()

    def test_emit_after_close_is_an_error(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit(_event())

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()


class TestTeeSink:
    def test_fans_out_in_order(self, tmp_path):
        mem_a, mem_b = MemorySink(), MemorySink()
        tee = TeeSink(mem_a, mem_b)
        tee.emit(_event())
        assert len(mem_a.events) == len(mem_b.events) == 1

    def test_trace_path_finds_the_persistent_member(self, tmp_path):
        path = tmp_path / "t.jsonl"
        jsonl = JsonlSink(path)
        tee = TeeSink(MemorySink(), jsonl)
        assert tee.trace_path() == path
        tee.close()
