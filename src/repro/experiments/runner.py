"""Command-line experiment runner.

Usage::

    python -m repro.experiments E4 --scale quick
    python -m repro.experiments all --scale full --output results/
    python -m repro.experiments E8 --trials 64 --backend native
    python -m repro.experiments E8 --backend parallel --jobs 4
    python -m repro.experiments all --results-dir results/ --jobs 8
    python -m repro.experiments all --results-dir results/ --force
    python -m repro.experiments --list

Every run routes through the campaign scheduler
(:mod:`repro.campaign`).  With ``--results-dir`` completed experiments
are checkpointed into a content-addressed store and later invocations
fetch them instead of recomputing (``--force`` overrides); a killed
``all`` run resumes from whatever it already stored.  Without it the
same path runs against a throwaway store.  ``--jobs`` fans independent
experiment ids out over worker processes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import obs
from repro.experiments.common import (
    ExperimentConfig,
    add_run_arguments,
    expand_ids,
    positive_int,
)
from repro.experiments.registry import EXPERIMENTS, all_ids, load_experiment

__all__ = ["main", "run_one", "run_many"]


def run_one(experiment_id: str, config: ExperimentConfig):
    """Load and run one experiment, saving its artifacts into
    ``config.output_dir`` when set; returns its ExperimentResult."""
    module = load_experiment(experiment_id)
    # The experiment-level span covers even experiments whose internals
    # bypass the instrumented engine (deterministic ladders, legacy
    # serial helpers), so --trace/--metrics always shows per-id timing.
    with obs.span("experiment.run", experiment=experiment_id,
                  scale=config.scale) as sp:
        result = module.run(config)
        sp.set(verdict=result.verdict)
    if config.output_dir:
        result.save(config.output_dir)
    return result


def run_many(ids: list[str], config: ExperimentConfig, *, stream=None,
             results_dir: Path | None = None, force: bool = False) -> int:
    """Run several experiments through the campaign scheduler, printing
    each table; returns the number of experiments whose verdict is
    ``inconsistent``.

    With *results_dir* stored results are fetched instead of
    recomputed and fresh ones are checkpointed as they land; without
    it the scheduler runs against a throwaway store.  ``config.jobs``
    pull workers drain the queue (one by default), except under
    ``--backend parallel``, where the parallelism lives *inside* each
    experiment and one worker avoids nested pools.
    """
    from repro.campaign.plan import plan_experiments
    from repro.campaign.query import print_experiment_report
    from repro.campaign.scheduler import run_campaign
    from repro.campaign.store import ResultStore
    from repro.experiments.registry import normalize_id

    store = None if results_dir is None else ResultStore(results_dir)
    plan = plan_experiments(ids, config)
    jobs = 1 if config.backend == "parallel" else (config.jobs or 1)
    report = run_campaign(plan, store, jobs=jobs, force=force)
    # Print per *requested* id: the plan collapses duplicates.
    unit_for = {unit.spec["experiment"]: unit for unit in plan}
    ordered = [unit_for[normalize_id(experiment_id)] for experiment_id in ids]
    return print_experiment_report(report, ordered, stream=stream,
                                   output_dir=config.output_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=("Regenerate the experiment tables of the reproduction of "
                     "'Information Spreading in Stationary Markovian Evolving "
                     "Graphs' (IPDPS 2009)."),
    )
    add_run_arguments(parser)
    parser.add_argument("--output", type=Path, default=None,
                        help="directory for .txt/.csv/.json artifacts")
    parser.add_argument("--jobs", type=positive_int, default=None,
                        help="worker processes: for --backend parallel the "
                             "trial chunks (default: one per CPU), "
                             "otherwise the experiment ids themselves fan "
                             "out (default: one at a time)")
    parser.add_argument("--results-dir", type=Path, default=None,
                        help="campaign result store: completed experiments "
                             "are cached here and reused on re-runs")
    parser.add_argument("--resume", action="store_true", default=True,
                        help="reuse results already in --results-dir "
                             "(the default; kept explicit for scripts)")
    parser.add_argument("--force", action="store_true",
                        help="with --results-dir: recompute and overwrite "
                             "cached results")
    parser.add_argument("--list", action="store_true", dest="list_experiments",
                        help="list experiments and exit")
    from repro.obs.bootstrap import add_obs_arguments
    add_obs_arguments(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_experiments:
        for experiment_id in all_ids():
            _, title = EXPERIMENTS[experiment_id]
            print(f"{experiment_id:>4}  {title}")
        return 0
    if not args.experiments:
        print("no experiments given (use ids like E4, or 'all'; --list to see all)",
              file=sys.stderr)
        return 2
    if args.force and args.results_dir is None:
        print("--force requires --results-dir", file=sys.stderr)
        return 2
    ids = expand_ids(args.experiments)
    config = ExperimentConfig(seed=args.seed, scale=args.scale,
                              output_dir=args.output, trials=args.trials,
                              backend=args.backend, jobs=args.jobs,
                              protocol=args.protocol)
    from repro.obs.bootstrap import session_from_args
    with session_from_args(args):
        inconsistent = run_many(ids, config, results_dir=args.results_dir,
                                force=args.force)
    return 1 if inconsistent else 0


if __name__ == "__main__":
    raise SystemExit(main())
