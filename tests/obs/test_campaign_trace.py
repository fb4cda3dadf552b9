"""End-to-end: a traced campaign emits a valid, useful trace —
and tracing never changes the results."""

from __future__ import annotations

from repro import obs
from repro.campaign.plan import CampaignPlan, plan_experiments
from repro.campaign.scheduler import run_campaign
from repro.campaign.store import ResultStore
from repro.experiments.common import ExperimentConfig
from repro.obs.cli import main as obs_cli
from repro.obs.sinks import JsonlSink, MemorySink
from repro.obs.stream import TraceFold

QUICK = ExperimentConfig(scale="quick")


def _traced_campaign(tmp_path, sink, *, warm=False, store=None):
    if store is None:
        store = ResultStore(tmp_path / "store")
    plan = plan_experiments(["E1"], QUICK)
    if warm:
        run_campaign(plan, store)  # populate the cache untraced
    previous = obs.configure(sink)
    try:
        report = run_campaign(plan, store)
    finally:
        obs.configure(previous if previous.live else None)
    return report, store


class TestTraceContent:
    def test_cold_run_emits_lifecycle_and_miss_counter(self, tmp_path):
        sink = MemorySink()
        _traced_campaign(tmp_path, sink)
        statuses = [e["status"] for e in sink.events
                    if e["kind"] == "event" and e["name"] == "campaign.unit"]
        assert statuses == ["planned", "leased", "running", "checkpointed"]
        counters = [e["name"] for e in sink.events if e["kind"] == "metric"
                    and e["metric"] == "counter"]
        assert "campaign.cache.miss" in counters
        assert "campaign.cache.hit" not in counters

    def test_warm_run_emits_cached_and_hit_counter(self, tmp_path):
        sink = MemorySink()
        _traced_campaign(tmp_path, sink, warm=True)
        statuses = {e["status"] for e in sink.events
                    if e["kind"] == "event" and e["name"] == "campaign.unit"}
        assert statuses == {"cached"}
        counters = [e["name"] for e in sink.events if e["kind"] == "metric"
                    and e["metric"] == "counter"]
        assert "campaign.cache.hit" in counters

    def test_campaign_span_wraps_unit_spans(self, tmp_path):
        sink = MemorySink()
        _traced_campaign(tmp_path, sink)
        spans = [e for e in sink.events if e["kind"] == "span"]
        by_id = {s["span_id"]: s for s in spans}
        names = {s["name"] for s in spans}
        assert "store.put" in names
        run_span = next(s for s in spans if s["name"] == "campaign.run")
        assert run_span["attrs"]["computed"] == 1
        unit = next(s for s in spans if s["name"] == "campaign.unit.run")
        assert unit["attrs"]["label"] == "E1"
        # The unit span's ancestry (through the dispatch fan-out) ends
        # at the campaign.run root.
        ancestors = []
        cursor = unit
        while cursor["parent_id"] is not None:
            cursor = by_id[cursor["parent_id"]]
            ancestors.append(cursor["name"])
        assert ancestors[-1] == "campaign.run"

    def test_every_event_is_schema_valid(self, tmp_path):
        sink = MemorySink()
        _traced_campaign(tmp_path, sink)
        for ev in sink.events:
            obs.validate_event(ev)


class TestFoldOfACampaign:
    def test_units_sharing_a_label_keep_their_own_rows(self, tmp_path):
        """E1 and E15 at seeds 0-2: six units, but only two labels."""
        units = [unit for seed in range(3) for unit in plan_experiments(
            ["E1", "E15"], ExperimentConfig(scale="quick", seed=seed))]
        plan = CampaignPlan(tuple(units))
        sink = MemorySink()
        previous = obs.configure(sink)
        try:
            run_campaign(plan, ResultStore(tmp_path / "store"), jobs=1)
        finally:
            obs.configure(previous if previous.live else None)
        fold = TraceFold()
        fold.ingest(sink.events)
        snapshot = fold.snapshot()
        assert snapshot["campaign"]["total"] == 6
        assert snapshot["campaign"]["done"] == 6
        assert sorted(u["key"] for u in snapshot["units"]) \
            == sorted(unit.key for unit in plan)


class TestJsonlEndToEnd:
    def test_trace_file_validates_and_reports(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        sink = JsonlSink(trace, argv=["repro.campaign", "run", "E1"])
        _, store = _traced_campaign(tmp_path, sink)
        sink.close()

        assert obs_cli(["validate", str(trace)]) == 0
        assert obs_cli(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "campaign.run" in out
        assert "campaign.unit.run(E1)" in out

    def test_manifest_records_the_trace_path(self, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        sink = JsonlSink(trace)
        _, store = _traced_campaign(tmp_path, sink)
        sink.close()
        manifest = json.loads((store.root / "manifest.json").read_text())
        assert manifest["trace"] == str(trace)
        assert "machine" in manifest

    def test_untraced_manifest_has_null_trace(self, tmp_path):
        import json

        store = ResultStore(tmp_path / "store")
        run_campaign(plan_experiments(["E1"], QUICK), store)
        manifest = json.loads((store.root / "manifest.json").read_text())
        assert manifest["trace"] is None


class TestBitIdentity:
    def test_results_identical_traced_and_untraced(self, tmp_path):
        plan = plan_experiments(["E1"], QUICK)
        baseline = run_campaign(plan, ResultStore(tmp_path / "a"))

        sink = MemorySink()
        previous = obs.configure(sink)
        try:
            traced = run_campaign(plan, ResultStore(tmp_path / "b"))
        finally:
            obs.configure(previous if previous.live else None)
        assert traced.results == baseline.results
        assert sink.events
