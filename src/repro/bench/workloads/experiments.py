"""``experiments`` suite — quick-scale regeneration of every table.

One case per registered experiment: each regenerates one
experiment's table at quick scale and validates the result (non-empty
table, verdict not ``"inconsistent"``).  Rounds are calibrated like
every other suite's (at least three, so a median is never a single
call).
"""

from __future__ import annotations

from repro.bench.case import BenchCase, register
from repro.util.validation import require

SUITE = "experiments"


def _check(result) -> None:
    require(bool(result.rows), "experiment produced no table")
    require(result.verdict != "inconsistent", result.to_text())


def _setup(experiment_id: str):
    def setup():
        from repro.experiments import ExperimentConfig, run_one
        config = ExperimentConfig(scale="quick")
        return lambda: run_one(experiment_id, config)
    return setup


def case_name(experiment_id: str) -> str:
    """``"E4"`` -> ``"experiments/e04_geometric_flooding"``."""
    from repro.experiments.registry import EXPERIMENTS, normalize_id
    module_path, _ = EXPERIMENTS[normalize_id(experiment_id)]
    return f"{SUITE}/{module_path.rsplit('.', 1)[1]}"


def _register_all() -> None:
    from repro.experiments.registry import EXPERIMENTS
    for experiment_id, (module_path, title) in EXPERIMENTS.items():
        register(BenchCase(
            name=case_name(experiment_id), suite=SUITE,
            scale=f"{experiment_id} quick: {title}",
            setup=_setup(experiment_id), check=_check))


_register_all()
