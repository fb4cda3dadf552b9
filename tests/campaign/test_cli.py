"""Tests for the campaign CLI and the runner's campaign flags."""

from __future__ import annotations

import pytest

from repro.campaign.cli import build_parser, main as campaign_main
from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import main as runner_main, run_many


class TestCampaignCli:
    def test_run_then_cached_run(self, tmp_path, capsys):
        results = str(tmp_path / "r")
        assert campaign_main(["run", "E1", "--results-dir", results,
                              "--scale", "quick", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "1 computed" in out and "verdict" in out
        assert campaign_main(["run", "E1", "--results-dir", results,
                              "--scale", "quick", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "1 cached, 0 computed" in out
        assert "hit rate 100%" in out

    def test_force_recomputes(self, tmp_path, capsys):
        results = str(tmp_path / "r")
        campaign_main(["run", "E1", "--results-dir", results,
                       "--scale", "quick", "--quiet"])
        capsys.readouterr()
        assert campaign_main(["run", "E1", "--results-dir", results,
                              "--scale", "quick", "--quiet", "--force"]) == 0
        assert "0 cached, 1 computed" in capsys.readouterr().out

    def test_status(self, tmp_path, capsys):
        results = str(tmp_path / "r")
        campaign_main(["run", "E1", "--results-dir", results,
                       "--scale", "quick", "--quiet"])
        capsys.readouterr()
        assert campaign_main(["status", "E1", "E13", "--results-dir", results,
                              "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "1/2 units cached" in out

    def test_show_missing_unit_fails(self, tmp_path, capsys):
        results = str(tmp_path / "r")
        assert campaign_main(["show", "E1", "--results-dir", results,
                              "--scale", "quick"]) == 1

    def test_show_prints_stored_table(self, tmp_path, capsys):
        results = str(tmp_path / "r")
        campaign_main(["run", "E1", "--results-dir", results,
                       "--scale", "quick", "--quiet"])
        capsys.readouterr()
        assert campaign_main(["show", "E1", "--results-dir", results,
                              "--scale", "quick"]) == 0
        assert "== E1:" in capsys.readouterr().out

    def test_output_artifacts(self, tmp_path, capsys):
        results = str(tmp_path / "r")
        artifacts = tmp_path / "a"
        campaign_main(["run", "E1", "--results-dir", results, "--scale",
                       "quick", "--quiet", "--output", str(artifacts)])
        assert (artifacts / "e1.txt").exists()
        assert (artifacts / "e1.csv").exists()

    def test_run_requires_experiments(self, tmp_path):
        with pytest.raises(SystemExit):
            campaign_main(["run", "--results-dir", str(tmp_path / "r")])

    def test_run_requires_results_dir_or_worker(self, capsys):
        # --results-dir became optional (a --worker pull needs none),
        # but a local run without one is still a usage error.
        assert campaign_main(["run", "E1"]) == 2
        assert "--results-dir" in capsys.readouterr().err

    def test_parallel_backend_jobs_reach_the_payload(self):
        """--jobs must drive the inner parallel backend, not be dropped."""
        from repro.campaign.cli import _build_plan
        args = build_parser().parse_args(
            ["run", "E8", "--results-dir", "unused", "--backend", "parallel",
             "--jobs", "4"])
        (unit,) = _build_plan(args).units
        assert unit.payload["config"]["jobs"] == 4
        # jobs never leak into the cache identity.
        assert "jobs" not in unit.spec


class TestWatch:
    def test_watch_writes_a_trace_with_heartbeats(self, tmp_path, capsys):
        from repro.obs.cli import main as obs_main
        from repro.obs.events import read_trace

        results = tmp_path / "r"
        assert campaign_main(["run", "E1", "--results-dir", str(results),
                              "--scale", "quick", "--watch"]) == 0
        frames = capsys.readouterr().err
        assert "campaign [" in frames  # the dashboard painted
        trace = results / "trace.jsonl"
        assert trace.exists()  # --watch implies --trace into the store
        assert obs_main(["validate", str(trace)]) == 0
        _, events = read_trace(trace)
        beats = [e for e in events if e.get("kind") == "event"
                 and e["name"] == "campaign.heartbeat"]
        assert beats and beats[0]["attrs"]["label"] == "E1"
        statuses = [e["status"] for e in events if e.get("kind") == "event"
                    and e["name"] == "campaign.unit"]
        assert statuses == ["planned", "leased", "running", "checkpointed"]

    def test_watch_respects_an_explicit_trace_path(self, tmp_path, capsys):
        results, trace = tmp_path / "r", tmp_path / "elsewhere.jsonl"
        assert campaign_main(["run", "E1", "--results-dir", str(results),
                              "--scale", "quick", "--watch",
                              "--trace", str(trace)]) == 0
        assert trace.exists()
        assert not (results / "trace.jsonl").exists()

    def test_watched_results_bit_identical_to_unwatched(self, tmp_path,
                                                        capsys):
        from repro.campaign.plan import plan_experiments
        from repro.campaign.store import ResultStore
        from repro.experiments.common import ExperimentConfig

        plain, watched = tmp_path / "plain", tmp_path / "watched"
        assert campaign_main(["run", "E1", "--results-dir", str(plain),
                              "--scale", "quick", "--quiet"]) == 0
        assert campaign_main(["run", "E1", "--results-dir", str(watched),
                              "--scale", "quick", "--watch"]) == 0
        plan = plan_experiments(["E1"], ExperimentConfig(scale="quick"))
        for unit in plan:
            a = ResultStore(plain).get(unit.key)["result"]
            b = ResultStore(watched).get(unit.key)["result"]
            assert a == b


class TestRunnerCampaignFlags:
    def test_results_dir_caches(self, tmp_path, capsys):
        results = str(tmp_path / "r")
        assert runner_main(["E1", "--scale", "quick",
                            "--results-dir", results]) == 0
        first = capsys.readouterr().out
        assert runner_main(["E1", "--scale", "quick",
                            "--results-dir", results]) == 0
        second = capsys.readouterr().out
        # Identical rendering, cached timing included.
        assert first == second
        assert "verdict" in second

    def test_force_without_results_dir_rejected(self, capsys):
        assert runner_main(["E1", "--scale", "quick", "--force"]) == 2

    def test_output_written_even_on_cache_hit(self, tmp_path, capsys):
        results = str(tmp_path / "r")
        runner_main(["E1", "--scale", "quick", "--results-dir", results])
        out_dir = tmp_path / "artifacts"
        runner_main(["E1", "--scale", "quick", "--results-dir", results,
                     "--output", str(out_dir)])
        assert (out_dir / "e1.txt").exists()

    def test_run_many_jobs_fan_out_matches_serial(self, capsys):
        import io
        ids = ["E1", "E13"]
        serial_stream, fan_stream = io.StringIO(), io.StringIO()
        config = ExperimentConfig(scale="quick")
        assert run_many(ids, config, stream=serial_stream) == 0
        fan_config = ExperimentConfig(scale="quick", jobs=2)
        assert run_many(ids, fan_config, stream=fan_stream) == 0

        def tables(text: str) -> list[str]:
            # Strip the timing lines; they legitimately differ.
            return [line for line in text.splitlines()
                    if not line.strip().startswith("[")]

        assert tables(serial_stream.getvalue()) == tables(fan_stream.getvalue())

    def test_store_less_run_prints_the_stored_tables(self, tmp_path):
        """One scheduler path: without a results dir run_many prints
        what a store-backed run prints (E7's rows hold numpy booleans,
        which render differently before the JSON codec)."""
        import io
        config = ExperimentConfig(scale="quick")
        bare, stored = io.StringIO(), io.StringIO()
        run_many(["E7"], config, stream=bare)
        run_many(["E7"], config, stream=stored, results_dir=tmp_path / "r")

        def tables(text: str) -> list[str]:
            return [line for line in text.splitlines()
                    if not line.strip().startswith("[")]

        assert tables(bare.getvalue()) == tables(stored.getvalue())
        assert "within_shape" in bare.getvalue()

    def test_duplicate_ids_print_like_the_serial_loop(self, tmp_path):
        """The plan dedups work, but output stays per requested id."""
        import io
        config = ExperimentConfig(scale="quick")
        stream = io.StringIO()
        run_many(["E1", "e1"], config, stream=stream,
                 results_dir=tmp_path / "r")
        assert stream.getvalue().count("== E1:") == 2

    def test_run_many_results_dir_round_trip(self, tmp_path):
        import io
        config = ExperimentConfig(scale="quick")
        cold, warm = io.StringIO(), io.StringIO()
        assert run_many(["E1"], config, stream=cold,
                        results_dir=tmp_path / "r") == 0
        assert run_many(["E1"], config, stream=warm,
                        results_dir=tmp_path / "r") == 0
        assert cold.getvalue() == warm.getvalue()
