"""``python -m repro.campaign`` — persistent, resumable experiment runs.

Usage::

    python -m repro.campaign run all --results-dir results/
    python -m repro.campaign run E4 E8 --results-dir results/ --scale full --jobs 8
    python -m repro.campaign run all --results-dir results/ --force
    python -m repro.campaign run all --results-dir results/ --serve --port 8642
    python -m repro.campaign run --worker http://127.0.0.1:8642
    python -m repro.campaign status --results-dir results/ all --scale full
    python -m repro.campaign show E4 --results-dir results/

``run`` diffs the requested campaign against the store and executes
only the missing work units (kill it, re-run it, and it picks up where
it left off); ``status`` shows which units of a campaign are cached;
``show`` prints a stored experiment table without running anything.

Two service modes turn the same command into a distributed campaign:
``run ... --serve`` submits the plan to the store's job queue and
serves it over HTTP (executing nothing locally), and ``run --worker
URL`` pulls and executes units from such a server until it drains.
Exit codes follow :mod:`repro.util.exitcodes`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.tables import render_table
from repro.campaign.plan import CampaignPlan, plan_experiments
from repro.obs.bootstrap import add_obs_arguments, session_from_args
from repro.obs.live import CampaignProgress
from repro.campaign.query import (
    campaign_status,
    fetch_result,
    print_experiment_report,
)
from repro.campaign.schema import STATUS_SCHEMA, STATUS_SCHEMA_VERSION
from repro.campaign.scheduler import run_campaign
from repro.campaign.store import ResultStore
from repro.experiments.common import (
    ExperimentConfig,
    add_run_arguments,
    expand_ids,
    positive_int,
)
from repro.util.exitcodes import CONFIG, FAILURE, OK
from repro.util.timing import format_seconds

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description=("Run experiment campaigns against a content-addressed "
                     "result store: completed work units are fetched, "
                     "never recomputed, and a killed campaign resumes "
                     "from what it already stored."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a campaign (resumes by default)")
    add_run_arguments(run)
    run.add_argument("--results-dir", type=Path, default=None,
                     help="the campaign's result store (required except "
                          "with --worker)")
    run.add_argument("--resume", action="store_true", default=True,
                     help="reuse stored results (the default; kept explicit "
                          "for scripts)")
    run.add_argument("--force", action="store_true",
                     help="recompute every unit, overwriting stored results")
    run.add_argument("--jobs", type=positive_int, default=None,
                     help="worker processes: campaign units by default "
                          "(one per CPU when omitted), or the trial chunks "
                          "inside each unit with --backend parallel")
    run.add_argument("--output", type=Path, default=None,
                     help="also save per-experiment .txt/.csv/.json artifacts")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-unit progress lines")
    run.add_argument("--watch", action="store_true",
                     help="repaint a live dashboard (progress/ETA, active "
                          "span stacks, per-unit heartbeats) on stderr "
                          "while the campaign runs; implies --trace into "
                          "the results dir when no trace path is given")
    run.add_argument("--serve", action="store_true",
                     help="submit the plan to the store's job queue and "
                          "serve it over HTTP instead of executing "
                          "locally; workers connect with --worker URL")
    run.add_argument("--worker", metavar="URL", default=None,
                     help="pull and execute units from a campaign service "
                          "at URL until it drains (no local store, no "
                          "experiment ids)")
    run.add_argument("--campaign", metavar="ID", default=None,
                     help="with --worker: only pull this campaign's units")
    run.add_argument("--host", default="127.0.0.1",
                     help="with --serve: bind address (default 127.0.0.1)")
    run.add_argument("--port", type=int, default=8642,
                     help="with --serve: TCP port (0 picks a free one; "
                          "default 8642)")
    run.add_argument("--lease-ttl", type=float, default=30.0,
                     help="seconds a worker's job lease survives without "
                          "a heartbeat (default 30)")
    run.add_argument("--max-units", type=positive_int, default=None,
                     help="with --worker: stop after this many units")
    add_obs_arguments(run)

    status = sub.add_parser("status",
                            help="show which units of a campaign are cached")
    add_run_arguments(status)
    status.add_argument("--results-dir", type=Path, required=True)
    status.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable summary (unit/cached counts "
                             "derived from the plan — what CI scripts "
                             "should consume instead of grepping logs)")

    show = sub.add_parser("show", help="print a stored experiment table")
    add_run_arguments(show)
    show.add_argument("--results-dir", type=Path, required=True)
    show.add_argument("--json", action="store_true", dest="as_json",
                      help="machine-readable: the stored result sections, "
                           "one object per requested unit")
    return parser


def _build_plan(args: argparse.Namespace) -> CampaignPlan:
    if not args.experiments:
        raise SystemExit("no experiments given (use ids like E4, or 'all')")
    config = ExperimentConfig(seed=args.seed, scale=args.scale,
                              trials=args.trials, backend=args.backend,
                              jobs=getattr(args, "jobs", None),
                              protocol=args.protocol)
    return plan_experiments(expand_ids(args.experiments), config)


def _cmd_serve(args: argparse.Namespace) -> int:
    """``run ... --serve``: submit the plan, then serve the queue."""
    from repro.campaign.jobs import JobQueue
    from repro.service.api import serve

    store = ResultStore(args.results_dir)
    store.reconcile()
    if args.experiments:
        plan = _build_plan(args)
        receipt = JobQueue(store).submit(
            plan, name=" ".join(args.experiments), source="serve",
            force=args.force)
        print(f"campaign {receipt.campaign_id}: {receipt.total} units "
              f"({receipt.cached} cached, {receipt.pending} pending)",
              flush=True)
    server = serve(store, host=args.host, port=args.port,
                   lease_ttl=args.lease_ttl)
    # The bound port on its own line, so scripts wrapping --serve with
    # --port 0 can parse where to point their workers.
    print(f"serving {store.root} on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.httpd.server_close()
    return OK


def _cmd_worker(args: argparse.Namespace) -> int:
    """``run --worker URL``: pull units from a service until drained."""
    from repro.service.client import ServiceClient
    from repro.service.worker import run_worker

    if args.experiments:
        print("--worker pulls its units from the service; experiment ids "
              "are chosen by the submitter", file=sys.stderr)
        return CONFIG
    if args.results_dir is not None:
        print("--worker needs no --results-dir: results live on the "
              "service side", file=sys.stderr)
        return CONFIG
    with ServiceClient(args.worker) as client, session_from_args(args):
        stats = run_worker(client, campaign_id=args.campaign,
                           lease_ttl=args.lease_ttl,
                           max_units=args.max_units)
    print(f"worker {stats.worker}: {stats.completed} completed, "
          f"{stats.failed} failed, {stats.lease_lost} lease(s) lost in "
          f"{format_seconds(stats.elapsed)}")
    return OK if stats.failed == 0 else FAILURE


def _cmd_run(args: argparse.Namespace) -> int:
    if args.worker is not None:
        return _cmd_worker(args)
    if args.results_dir is None:
        print("run needs --results-dir (or --worker URL)", file=sys.stderr)
        return CONFIG
    if args.serve:
        return _cmd_serve(args)
    plan = _build_plan(args)
    store = ResultStore(args.results_dir)

    # Telemetry-backed default renderer: done/total, cache-hit %, and
    # an ETA from a rolling per-unit rate.  --quiet drops it entirely,
    # --watch replaces it with the full dashboard (which would otherwise
    # fight the progress lines for the same stderr).
    progress = None if args.quiet or args.watch else CampaignProgress()

    watcher = None
    if args.watch:
        # The dashboard reads the run's own trace, so watching forces
        # one on; results_dir is where a resumable campaign's artifacts
        # already live.  The trace carries every event the follower
        # needs — results stay bit-identical to an untraced run.
        if args.trace is None:
            args.trace = args.results_dir / "trace.jsonl"
        from repro.obs.live import watch_in_thread

    # With --backend parallel the parallelism lives *inside* each
    # experiment; run units one at a time to avoid nested process pools.
    jobs = 1 if args.backend == "parallel" else args.jobs
    with session_from_args(args):
        if args.watch:
            watcher = watch_in_thread(args.trace, stream=sys.stderr)
        try:
            report = run_campaign(plan, store, jobs=jobs, force=args.force,
                                  progress=progress,
                                  lease_ttl=args.lease_ttl)
        finally:
            if watcher is not None:
                thread, stop = watcher
                stop.set()
                thread.join(timeout=10.0)
    inconsistent = print_experiment_report(report, plan,
                                           output_dir=args.output)
    print(f"campaign: {report.total} units, {len(report.fetched)} cached, "
          f"{len(report.computed)} computed in "
          f"{format_seconds(report.elapsed)} "
          f"(hit rate {report.cache_hit_rate:.0%})")
    return FAILURE if inconsistent else OK


def _cmd_status(args: argparse.Namespace) -> int:
    plan = _build_plan(args)
    store = ResultStore(args.results_dir)
    store.reconcile()
    rows = campaign_status(store, plan)
    cached = sum(bool(row["cached"]) for row in rows)
    if args.as_json:
        print(json.dumps({"schema": STATUS_SCHEMA,
                          "schema_version": STATUS_SCHEMA_VERSION,
                          "units": len(rows), "cached": cached,
                          "missing": len(rows) - cached,
                          "rows": rows}, sort_keys=True))
        return OK
    print(render_table(rows))
    print(f"{cached}/{len(rows)} units cached")
    return OK


def _cmd_show(args: argparse.Namespace) -> int:
    plan = _build_plan(args)
    store = ResultStore(args.results_dir)
    missing = 0
    sections = []
    for unit in plan:
        if unit.key not in store:
            print(f"{unit.label}: not in store (run the campaign first)",
                  file=sys.stderr)
            missing += 1
            continue
        if args.as_json:
            sections.append({"unit": unit.label, "key": unit.key,
                             "result": store.get_result(unit.key)})
            continue
        print(fetch_result(store, unit).to_text())
        print()
    if args.as_json:
        print(json.dumps(sections, sort_keys=True))
    return FAILURE if missing else OK


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    command = {"run": _cmd_run, "status": _cmd_status, "show": _cmd_show}
    return command[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
