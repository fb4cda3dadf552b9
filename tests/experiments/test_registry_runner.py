"""Tests for the experiment registry, config, and CLI runner."""

from __future__ import annotations

import io

import pytest

from repro.analysis.records import rows_to_json
from repro.core.flooding import flooding_trials
from repro.edgemeg.meg import EdgeMEG
from repro.experiments.common import BACKEND_CHOICES, ExperimentConfig
from repro.experiments.registry import EXPERIMENTS, all_ids, load_experiment, normalize_id
from repro.experiments.runner import build_parser, main, run_many, run_one
from repro.geometric.meg import GeometricMEG
from repro.protocols import spreading_trials

#: The ``flooding_trials`` keyword arguments each CLI backend stands for
#: (``jobs`` as the configs below set it).
BACKEND_MAPPING = {
    "serial": {"backend": "serial"},
    "batched": {"backend": "batched"},
    "native": {"backend": "batched", "rng_mode": "native"},
    "parallel": {"backend": "parallel", "jobs": 2},
}


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.scale == "standard"

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale="huge")

    def test_pick(self):
        config = ExperimentConfig(scale="quick")
        assert config.pick(1, 2, 3) == 1
        assert ExperimentConfig(scale="full").pick(1, 2, 3) == 3


class TestRegistry:
    def test_sixteen_experiments(self):
        assert len(EXPERIMENTS) == 16
        assert list(all_ids()) == [f"E{i}" for i in range(1, 17)]

    @pytest.mark.parametrize("raw,expected", [
        ("e4", "E4"), ("E04", "E4"), (" e10 ", "E10"), ("E1", "E1"),
    ])
    def test_normalize(self, raw, expected):
        assert normalize_id(raw) == expected

    @pytest.mark.parametrize("bad", ["X1", "E99", "4", ""])
    def test_normalize_rejects(self, bad):
        with pytest.raises(ValueError):
            normalize_id(bad)

    def test_every_module_loads_with_contract(self):
        for experiment_id in all_ids():
            module = load_experiment(experiment_id)
            assert module.EXPERIMENT_ID == experiment_id
            assert isinstance(module.TITLE, str)
            assert callable(module.run)


class TestRunner:
    def test_run_one_quick(self):
        result = run_one("E1", ExperimentConfig(scale="quick"))
        assert result.experiment_id == "E1"
        assert result.rows
        assert result.verdict in ("consistent", "inconsistent", "informational")

    def test_run_many_counts_inconsistent(self):
        stream = io.StringIO()
        bad = run_many(["E1"], ExperimentConfig(scale="quick"), stream=stream)
        assert bad == 0
        assert "E1" in stream.getvalue()

    def test_output_dir_artifacts(self, tmp_path):
        config = ExperimentConfig(scale="quick", output_dir=tmp_path)
        run_one("E1", config)
        assert (tmp_path / "e1.txt").exists()
        assert (tmp_path / "e1.csv").exists()

    def test_cli_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E14" in out

    def test_cli_no_args_errors(self, capsys):
        assert main([]) == 2

    def test_cli_runs_experiment(self, capsys):
        assert main(["E1", "--scale", "quick"]) == 0
        assert "verdict" in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["E1"])
        assert args.scale == "standard"
        assert args.trials is None
        assert args.backend == "serial"
        assert args.jobs is None

    def test_parser_engine_flags(self):
        args = build_parser().parse_args(
            ["E8", "--trials", "32", "--backend", "native", "--jobs", "4"])
        assert args.trials == 32
        assert args.backend == "native"
        assert args.jobs == 4

    def test_parser_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["E8", "--backend", "gpu"])

    def test_cli_trials_and_backend(self, capsys):
        assert main(["E8", "--scale", "quick", "--trials", "2",
                     "--backend", "batched"]) == 0
        assert "verdict" in capsys.readouterr().out

    def test_batched_backend_bit_identical_tables(self):
        """serial and batched backends must produce identical tables."""
        serial = run_one("E8", ExperimentConfig(scale="quick", trials=3))
        batched = run_one("E8", ExperimentConfig(scale="quick", trials=3,
                                                 backend="batched"))
        # json text comparison: nan-valued cells compare equal by spelling
        assert rows_to_json(serial.rows) == rows_to_json(batched.rows)
        assert serial.verdict == batched.verdict


class TestConfigEngineKnobs:
    def test_trial_count_override(self):
        assert ExperimentConfig().trial_count(7) == 7
        assert ExperimentConfig(trials=3).trial_count(7) == 3

    @pytest.mark.parametrize("model", [
        pytest.param(EdgeMEG(40, 0.05, 0.5), id="edge"),
        pytest.param(GeometricMEG(36, move_radius=1.0, radius=2.0),
                     id="geometric"),
    ])
    @pytest.mark.parametrize("backend", BACKEND_CHOICES)
    def test_ensemble_runs_the_backend_mapping(self, backend, model):
        """``ensemble`` runs what the CLI backend always meant, and keeps
        no histories or masks."""
        config = ExperimentConfig(backend=backend, jobs=2)
        ensemble = config.ensemble(model, trials=5, seed=11)
        runs = flooding_trials(model, trials=5, seed=11,
                               **BACKEND_MAPPING[backend])
        assert ensemble.sources == tuple(r.source for r in runs)
        assert ensemble.times.tolist() == [r.time for r in runs]
        assert ensemble.completed.tolist() == [r.completed for r in runs]
        assert ensemble.histories == ()
        assert ensemble.informed is None

    @pytest.mark.parametrize("backend", BACKEND_CHOICES)
    def test_ensemble_rng_mode_override(self, backend):
        """E14's call: a protocol on the replay layout from a fixed
        source, whatever the backend."""
        meg = EdgeMEG(24, 0.1, 0.5)
        ensemble = ExperimentConfig(backend=backend, jobs=2).ensemble(
            meg, trials=4, seed=3, protocol="push-pull", source=0,
            rng_mode="replay")
        runs = spreading_trials("push-pull", meg, trials=4, seed=3, source=0,
                                **{**BACKEND_MAPPING[backend],
                                   "rng_mode": "replay"})
        assert ensemble.times.tolist() == [r.time for r in runs]
        assert ensemble.completed.tolist() == [r.completed for r in runs]

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(backend="gpu")
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(jobs=0)
