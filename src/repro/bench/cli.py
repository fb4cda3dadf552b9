"""``python -m repro.bench`` — run, gate, and render benchmarks.

Usage::

    python -m repro.bench list
    python -m repro.bench run --suite micro
    python -m repro.bench run --suite engine --out artifacts/BENCH_engine.json
    python -m repro.bench compare BENCH_micro.json
    python -m repro.bench compare BENCH_engine.json --baseline other.json
    python -m repro.bench report BENCH_micro.json old/BENCH_micro.json
    python -m repro.bench history record BENCH_micro.json
    python -m repro.bench history trend micro --case "*flood*"
    python -m repro.bench history check BENCH_micro.json

``run`` measures a suite and writes its schema-versioned
``BENCH_<suite>.json`` artifact (nonzero exit when an asserted speedup
floor is violated); ``compare`` gates an artifact against the stored
baseline under ``benchmarks/baselines/`` and exits nonzero on any
regression or missing case; ``report`` renders artifacts as an ASCII
table plus, given several runs, a per-case trend canvas; ``history``
is the longitudinal layer — ``record`` appends artifacts into the
SQLite perf-history store, ``trend`` renders per-case trajectories as
sparklines/canvases, and ``check`` runs rolling-median + MAD drift
detection, failing a case that crept past the threshold even though
every individual run passed ``compare``'s per-run tolerance (see
:mod:`repro.obs.history`).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.analysis.tables import render_table
from repro.bench.case import iter_cases, suite_names
from repro.bench.compare import compare_results
from repro.bench.report import render_report
from repro.bench.results import load_result, result_filename
from repro.bench.runner import floor_failures, run_suite
from repro.bench.timer import MeasureConfig
from repro.util.exitcodes import CONFIG
from repro.util.timing import format_seconds

__all__ = ["main", "build_parser", "DEFAULT_BASELINE_DIR",
           "DEFAULT_HISTORY_DB"]

#: Where ``compare`` looks for a suite's baseline unless told otherwise
#: (relative to the working directory — CI runs at the repo root).
DEFAULT_BASELINE_DIR = Path("benchmarks") / "baselines"

#: Default perf-history database (``history record|trend|check``).
#: Machine-local by nature (absolute times only form a series on one
#: host) — CI keeps its own copy in a restored cache, never in git.
DEFAULT_HISTORY_DB = Path("benchmarks") / "history.sqlite"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=("Machine-readable benchmark harness: calibrated "
                     "suite runs, schema-versioned BENCH_<suite>.json "
                     "artifacts, and baseline regression gates."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure a suite, write its artifact")
    run.add_argument("--suite", required=True,
                     help="suite to run (see 'list')")
    run.add_argument("--out", type=Path, default=None,
                     help="artifact path (default: BENCH_<suite>.json)")
    run.add_argument("--case", action="append", default=None,
                     metavar="GLOB",
                     help="only cases matching this fnmatch pattern; "
                          "repeat to run the cases matching any of them")
    run.add_argument("--target-seconds", type=float, default=0.4,
                     help="per-case calibration budget (default 0.4)")
    run.add_argument("--min-rounds", type=int, default=3,
                     help="minimum calibrated rounds (default 3)")
    run.add_argument("--max-rounds", type=int, default=25,
                     help="maximum calibrated rounds (default 25)")
    run.add_argument("--no-floors", action="store_true",
                     help="report speedup-floor violations without "
                          "failing (baseline bootstrap on slow hosts)")
    run.add_argument("--trace", type=Path, default=None, metavar="DIR",
                     help="write one JSONL telemetry trace per case "
                          "into DIR (TRACE_<suite>_<case>.jsonl) — "
                          "profile with 'python -m repro.obs profile', "
                          "diff runs with 'python -m repro.obs diff'")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-case progress lines")

    compare = sub.add_parser(
        "compare", help="gate an artifact against its stored baseline")
    compare.add_argument("result", type=Path,
                         help="a BENCH_<suite>.json artifact")
    compare.add_argument("--baseline", type=Path, default=None,
                         help=f"baseline file (default: "
                              f"{DEFAULT_BASELINE_DIR}/BENCH_<suite>.json)")
    compare.add_argument("--max-ratio", type=float, default=None,
                         help="override every case's absolute-time "
                              "tolerance multiplier")
    compare.add_argument("--trace-dir", type=Path, default=None,
                         metavar="DIR",
                         help="per-case traces of the CURRENT run (from "
                              "'run --trace'); regressions then print "
                              "the span paths that moved")
    compare.add_argument("--baseline-trace-dir", type=Path, default=None,
                         metavar="DIR",
                         help="per-case traces of the BASELINE run to "
                              "diff failing cases against")
    compare.add_argument("--quiet", action="store_true",
                         help="only print failures")

    report = sub.add_parser("report", help="render artifacts for humans")
    report.add_argument("results", type=Path, nargs="+",
                        help="one or more BENCH_<suite>.json files "
                             "(same suite; several files -> trend)")
    report.add_argument("--case", default=None, metavar="GLOB",
                        help="restrict the trend canvas to matching cases")
    report.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable: the loaded artifacts "
                             "(schema-versioned), one object per file")

    history = sub.add_parser(
        "history", help="append-only perf history + longitudinal "
                        "drift gate")
    hsub = history.add_subparsers(dest="history_command", required=True)

    record = hsub.add_parser(
        "record", help="append BENCH_<suite>.json artifacts to the "
                       "history store (idempotent)")
    record.add_argument("results", type=Path, nargs="+",
                        help="one or more BENCH_<suite>.json artifacts")
    record.add_argument("--db", type=Path, default=DEFAULT_HISTORY_DB,
                        help=f"history database "
                             f"(default: {DEFAULT_HISTORY_DB})")

    trend = hsub.add_parser(
        "trend", help="render a suite's recorded per-case trajectories")
    trend.add_argument("suite", help="suite name (see 'list --suites')")
    trend.add_argument("--db", type=Path, default=DEFAULT_HISTORY_DB)
    trend.add_argument("--case", default=None, metavar="GLOB",
                       help="only cases matching this fnmatch pattern "
                            "(<= 4 matches also get a full plot canvas)")
    trend.add_argument("--machine", default=None, metavar="ID",
                       help="restrict to one machine id (default: the "
                            "current machine's; 'all' mixes machines)")
    trend.add_argument("--limit", type=int, default=None,
                       help="only the most recent N runs per case")
    trend.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable per-case series instead of "
                            "sparklines")

    check = hsub.add_parser(
        "check", help="rolling-median + MAD drift gate: fail cases "
                      "that crept past the threshold across runs even "
                      "though each run passed 'compare'")
    check.add_argument("results", type=Path, nargs="+",
                       help="current BENCH_<suite>.json artifact(s)")
    check.add_argument("--db", type=Path, default=DEFAULT_HISTORY_DB)
    check.add_argument("--window", type=int, default=None,
                       help="history runs in the rolling window "
                            "(default 10)")
    check.add_argument("--min-runs", type=int, default=None,
                       help="history runs required before a case can "
                            "fail (default 4; fewer reports "
                            "'insufficient' and passes)")
    check.add_argument("--z-threshold", type=float, default=None,
                       help="robust z-score a drift must exceed "
                            "(default 4.0)")
    check.add_argument("--min-rel", type=float, default=None,
                       help="relative excess over the rolling median a "
                            "drift must exceed (default 0.15)")
    check.add_argument("--quiet", action="store_true",
                       help="only print drift failures")

    list_parser = sub.add_parser("list",
                                 help="list suites and registered cases")
    list_parser.add_argument("--suites", action="store_true",
                             help="print just the suite names, one per "
                                  "line (what CI iterates over, so a "
                                  "new suite is gated automatically)")
    list_parser.add_argument("--json", action="store_true", dest="as_json",
                             help="machine-readable case rows")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    out = args.out or Path(result_filename(args.suite))
    if out.is_dir():  # refuse before measuring, not after
        print(f"--out {out} is a directory; give the artifact's file path",
              file=sys.stderr)
        return CONFIG
    config = MeasureConfig(target_seconds=args.target_seconds,
                           min_rounds=args.min_rounds,
                           max_rounds=args.max_rounds)

    def progress(case, measurement) -> None:
        if not args.quiet:
            print(f"  {case.name}: median "
                  f"{format_seconds(measurement.median)} over "
                  f"{measurement.rounds} round(s)", file=sys.stderr)

    result = run_suite(args.suite, config=config, pattern=args.case,
                       progress=progress, trace_dir=args.trace)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(result.to_json())

    from repro.bench.report import suite_table
    print(suite_table(result))
    print(f"wrote {out} ({len(result.cases)} cases, "
          f"git {(result.git_sha or 'unknown')[:12]})")
    if args.trace is not None:
        print(f"wrote {len(result.cases)} per-case trace(s) under "
              f"{args.trace}")

    failures = floor_failures(result)
    for failure in failures:
        print(f"FLOOR: {failure}", file=sys.stderr)
    if failures and not args.no_floors:
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    current = load_result(args.result)
    baseline_path = args.baseline or \
        DEFAULT_BASELINE_DIR / result_filename(current.suite)
    if not Path(baseline_path).exists():
        print(f"no baseline at {baseline_path} — nothing to gate "
              f"(store one to enable the regression gate)",
              file=sys.stderr)
        return 2
    baseline = load_result(baseline_path)
    report = compare_results(current, baseline, max_ratio=args.max_ratio)

    if not args.quiet:
        print(f"suite {report.suite}: current "
              f"{(current.git_sha or 'unknown')[:12]} vs baseline "
              f"{(baseline.git_sha or 'unknown')[:12]}")
        print(render_table(report.rows()))
    for failure in report.failures:
        print(f"REGRESSION: {failure.name}: {failure.note}",
              file=sys.stderr)
        _print_failure_diff(failure.name, args.baseline_trace_dir,
                            args.trace_dir)
    if report.ok:
        print(f"{len(report.comparisons)} cases within tolerance")
    return 0 if report.ok else 1


def _print_failure_diff(case_name: str, baseline_trace_dir: Path | None,
                        trace_dir: Path | None, *, top: int = 5) -> None:
    """Attribute a tripped gate: diff the failing case's traces.

    Prints the top span paths by self-time movement when both runs
    were traced; silent when either trace is missing (the gate verdict
    stands on the artifact numbers alone).
    """
    if baseline_trace_dir is None or trace_dir is None:
        return
    from repro.bench.runner import trace_filename

    name = trace_filename(case_name)
    baseline_trace = baseline_trace_dir / name
    current_trace = trace_dir / name
    if not (baseline_trace.exists() and current_trace.exists()):
        return
    from repro.obs.diff import diff_traces, render_diff

    try:
        diff = diff_traces(baseline_trace, current_trace)
    except (ValueError, OSError) as exc:
        print(f"  (trace diff unavailable: {exc})", file=sys.stderr)
        return
    print(f"  span paths that moved ({baseline_trace.name}, "
          f"baseline -> current):", file=sys.stderr)
    print("  " + render_diff(diff, top=top).replace("\n", "\n  "),
          file=sys.stderr)


def _cmd_report(args: argparse.Namespace) -> int:
    results = [load_result(path) for path in args.results]
    if args.as_json:
        import json
        print(json.dumps([json.loads(result.to_json())
                          for result in results], sort_keys=True))
        return 0
    print(render_report(results, pattern=args.case))
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    command = {"record": _cmd_history_record, "trend": _cmd_history_trend,
               "check": _cmd_history_check}
    return command[args.history_command](args)


def _cmd_history_record(args: argparse.Namespace) -> int:
    from repro.obs.history import HistoryStore

    with HistoryStore(args.db) as store:
        for path in args.results:
            result = load_result(path)
            run_id, inserted = store.record(result)
            verb = "recorded" if inserted else "already recorded"
            print(f"{verb} {path}: suite {result.suite}, "
                  f"{len(result.cases)} case(s), git "
                  f"{(result.git_sha or 'unknown')[:12]} "
                  f"-> run {run_id} in {args.db}")
    return 0


def _cmd_history_trend(args: argparse.Namespace) -> int:
    from repro.bench.results import machine_fingerprint
    from repro.obs.history import HistoryStore, machine_id, render_trend

    # Absolute times only form a series on one host, so the trend
    # defaults to this machine's rows; '--machine all' mixes on purpose.
    if args.machine == "all":
        mid = None
    elif args.machine is not None:
        mid = args.machine
    else:
        mid = machine_id(machine_fingerprint())
    with HistoryStore(args.db) as store:
        if args.as_json:
            import fnmatch
            import json

            names = store.case_names(args.suite)
            if args.case is not None:
                names = [n for n in names
                         if fnmatch.fnmatch(n, args.case)]
            series = {name: store.series(args.suite, name, machine_id=mid,
                                         limit=args.limit)
                      for name in names}
            print(json.dumps({"suite": args.suite, "machine": mid,
                              "series": series}, sort_keys=True,
                             default=str))
            return 0
        print(render_trend(store, args.suite, machine_id=mid,
                           pattern=args.case, limit=args.limit))
    return 0


def _cmd_history_check(args: argparse.Namespace) -> int:
    from repro.obs import history as h

    exit_code = 0
    with h.HistoryStore(args.db) as store:
        for path in args.results:
            result = load_result(path)
            report = h.check_drift(
                store, result,
                window=args.window if args.window is not None
                else h.DEFAULT_WINDOW,
                min_runs=args.min_runs if args.min_runs is not None
                else h.DEFAULT_MIN_RUNS,
                z_threshold=args.z_threshold if args.z_threshold is not None
                else h.DEFAULT_Z_THRESHOLD,
                min_rel=args.min_rel if args.min_rel is not None
                else h.DEFAULT_MIN_REL)
            if not args.quiet:
                print(f"suite {report.suite}: current "
                      f"{(result.git_sha or 'unknown')[:12]} vs history "
                      f"on machine {report.machine_id} ({args.db})")
                print(render_table(report.rows()))
            for failure in report.failures:
                print(f"DRIFT: {failure.name}: {failure.note}",
                      file=sys.stderr)
            if report.ok:
                if not args.quiet:
                    print(f"{len(report.comparisons)} case(s) within "
                          f"longitudinal tolerance")
            else:
                exit_code = 1
    return exit_code


def _cmd_list(args: argparse.Namespace) -> int:
    if args.suites:
        for suite in suite_names():
            print(suite)
        return 0
    rows = []
    for suite in suite_names():
        for case in iter_cases(suite):
            rows.append({
                "case": case.name,
                "scale": case.scale,
                "ref": case.ref or "",
                "floor": case.floor if case.floor is not None else "",
                "rounds": case.rounds if case.rounds is not None
                else "auto",
            })
    if args.as_json:
        import json
        print(json.dumps({"suites": list(suite_names()), "cases": rows},
                         sort_keys=True))
        return 0
    print(render_table(rows))
    print(f"{len(rows)} cases in {len(suite_names())} suites")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    command = {"run": _cmd_run, "compare": _cmd_compare,
               "report": _cmd_report, "history": _cmd_history,
               "list": _cmd_list}
    try:
        code = command[args.command](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
    except BrokenPipeError:
        # The reader went away (``... | head``).  Point stdout at
        # devnull so the interpreter's final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
