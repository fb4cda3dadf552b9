"""``python -m repro.obs`` — render, profile, diff, and validate traces.

Usage::

    python -m repro.obs report trace.jsonl            # full breakdown
    python -m repro.obs report trace.jsonl --top 20
    python -m repro.obs summary trace.jsonl           # one-paragraph view
    python -m repro.obs summary trace.jsonl --json    # scripting
    python -m repro.obs profile trace.jsonl           # span tree, self time
    python -m repro.obs profile trace.jsonl --depth 3 --json
    python -m repro.obs diff old.jsonl new.jsonl      # what moved, ranked
    python -m repro.obs watch trace.jsonl             # live dashboard
    python -m repro.obs watch trace.jsonl --once      # one frame (CI)
    python -m repro.obs validate trace.jsonl          # schema gate (CI)

``report`` renders the per-phase time breakdown, the top-k slowest
spans, counters/gauge rollups/histograms, and campaign cache-hit
stats; ``summary`` prints just the headline numbers (``--json`` emits
the full aggregate, schema-fingerprinted for scripts); ``profile``
reconstructs the span tree and prints per-path total/self wall time,
CPU, and peak RSS as an ASCII flame view (``--json`` for scripts);
``diff`` compares two traces keyed by span path and ranks the
movements by self-time contribution, so a regression names the kernel
that moved; ``watch`` tails a trace *while it is being written* and
repaints a live dashboard — active span stacks per pid, counter
rates, campaign progress/ETA, per-unit heartbeat staleness (see
:mod:`repro.obs.live`); ``validate`` exits non-zero on the first
schema violation (what the CI obs-smoke step gates on) and reports
spans a killed run left unclosed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs.events import read_trace
from repro.obs.report import format_manifest, render_summary, summarize

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description=("Render, profile, diff, and validate repro.obs "
                     "JSONL telemetry traces."))
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report",
                            help="per-phase breakdown + slowest spans")
    report.add_argument("trace", type=Path, help="JSONL trace file")
    report.add_argument("--top", type=int, default=10,
                        help="how many slowest spans to list")
    report.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable aggregate (the same "
                             "schema-fingerprinted summarize() payload as "
                             "'summary --json', with the report's --top)")

    summary = sub.add_parser("summary", help="headline numbers only")
    summary.add_argument("trace", type=Path)
    summary.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable aggregate (the summarize() "
                              "layout, schema-fingerprinted — what scripts "
                              "should consume instead of parsing tables)")

    profile = sub.add_parser(
        "profile", help="span-tree self/total time, CPU, and peak RSS")
    profile.add_argument("trace", type=Path, help="JSONL trace file")
    profile.add_argument("--depth", type=int, default=None,
                         help="only show span paths up to this depth")
    profile.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable per-path statistics")

    watch = sub.add_parser(
        "watch", help="live dashboard over a trace being written "
                      "(campaign progress, span stacks, heartbeats)")
    watch.add_argument("trace", type=Path, help="JSONL trace file "
                       "(need not exist yet)")
    watch.add_argument("--interval", type=float, default=None,
                       help="seconds between repaints (default 0.5)")
    watch.add_argument("--once", action="store_true",
                       help="render a single frame and exit (CI / scripts)")
    watch.add_argument("--stale-after", type=float, default=None,
                       help="flag a running unit STALE when its last "
                            "heartbeat is older than this many seconds "
                            "(default: 3x the advertised beat interval, "
                            "which is the worker's lease TTL)")
    watch.add_argument("--idle-timeout", type=float, default=None,
                       help="stop when the trace stops growing for this "
                            "many seconds (default: wait forever)")

    diff = sub.add_parser(
        "diff", help="rank the span paths that moved between two traces")
    diff.add_argument("trace_a", type=Path,
                      help="the reference (before / baseline) trace")
    diff.add_argument("trace_b", type=Path,
                      help="the current (after / suspect) trace")
    diff.add_argument("--top", type=int, default=15,
                      help="how many paths to list")
    diff.add_argument("--json", action="store_true", dest="as_json",
                      help="machine-readable ranked path deltas")

    validate = sub.add_parser("validate",
                              help="schema-check a trace (exit 1 on the "
                                   "first malformed event)")
    validate.add_argument("trace", type=Path)
    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    read = read_trace(args.trace)
    manifest, events = read
    summary = summarize(events, top=args.top)
    if args.as_json:
        import json

        from repro.obs.report import summary_payload
        print(json.dumps(summary_payload(manifest, summary,
                                         partial_tail=read.partial_tail),
                         sort_keys=True))
        return 0
    print(render_summary(manifest, summary))
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    read = read_trace(args.trace)
    manifest, events = read
    s = summarize(events)
    if args.as_json:
        import json

        from repro.obs.report import summary_payload
        print(json.dumps(summary_payload(manifest, s,
                                         partial_tail=read.partial_tail),
                         sort_keys=True))
        return 0
    print(format_manifest(manifest))
    cache = s["cache"]
    line = (f"{s['spans']} spans, {len(s['pids'])} process(es), "
            f"{s['wall_s']:.3f}s wall")
    if s["unclosed"]:
        line += f", {len(s['unclosed'])} unclosed"
    if cache["rate"] is not None:
        line += f", cache hit rate {cache['rate']:.0%}"
    if read.partial_tail:
        line += ", torn final line (writer mid-append)"
    print(line)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import profile_trace, render_profile

    _, stats = profile_trace(args.trace)
    if args.as_json:
        import json

        from repro.obs.profile import profile_payload
        print(json.dumps(profile_payload(stats, max_depth=args.depth),
                         sort_keys=True))
        return 0
    print(render_profile(stats, max_depth=args.depth))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs.live import DEFAULT_INTERVAL, watch

    interval = DEFAULT_INTERVAL if args.interval is None else args.interval
    try:
        watch(args.trace, interval=interval, once=args.once,
              stale_after=args.stale_after,
              idle_timeout=args.idle_timeout)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import diff_traces, render_diff

    diff = diff_traces(args.trace_a, args.trace_b)
    if args.as_json:
        import json

        deltas = [{"path": delta.key, "status": delta.status,
                   "self_delta_s": delta.self_delta_s,
                   "total_delta_s": delta.total_delta_s,
                   "cpu_delta_s": delta.cpu_delta_s,
                   "rss_delta_kb": delta.rss_delta_kb,
                   "ratio": delta.ratio}
                  for delta in diff.ranked[:args.top]]
        print(json.dumps({"a": str(args.trace_a), "b": str(args.trace_b),
                          "total_delta_s": diff.total_delta_s,
                          "deltas": deltas}, sort_keys=True))
        return 0
    print(f"A: {args.trace_a}\nB: {args.trace_b}")
    print(render_diff(diff, top=args.top))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        read = read_trace(args.trace)
        manifest, events = read
    except (ValueError, OSError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    if read.partial_tail:
        print("warning: torn final line dropped (writer caught "
              "mid-append, or trace truncated)", file=sys.stderr)
    if manifest is None:
        print(f"INVALID: {args.trace}: no manifest line", file=sys.stderr)
        return 1
    unclosed = summarize(events)["unclosed"]
    if unclosed:
        # Schema-valid but truncated: every event parses, yet these
        # spans never closed — almost certainly a killed run.
        names = ", ".join(sorted({u["name"] for u in unclosed}))
        print(f"warning: {len(unclosed)} unclosed span(s) ({names}) — "
              f"run killed or trace truncated", file=sys.stderr)
    print(f"ok: {args.trace} is a valid {manifest['schema']} "
          f"v{manifest['schema_version']} trace ({len(events)} events)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    command = {"report": _cmd_report, "summary": _cmd_summary,
               "profile": _cmd_profile, "diff": _cmd_diff,
               "watch": _cmd_watch, "validate": _cmd_validate}
    return command[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
