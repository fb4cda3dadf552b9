#!/usr/bin/env python
"""Observability quickstart: trace a run, then read the trace.

Five stops:

1. run an E1 campaign with a JSONL trace sink attached and render the
   resulting per-phase breakdown (what ``--trace`` + ``python -m
   repro.obs report`` do),
2. re-run it warm to watch the cache-hit counters flip,
3. instrument a scrap of your own code with ``obs.span`` / metrics and
   summarize it straight from an in-memory sink — no file needed,
4. profile a trace as a span tree (self vs child time, CPU, peak RSS)
   and diff two traces to see which span path a slowdown lives in
   (what ``python -m repro.obs profile`` / ``diff`` do),
5. watch a trace live (the ``repro.campaign run --watch`` dashboard,
   here rendered as one frame) and grow a perf-history store whose
   drift gate catches a slowdown that crept in across runs, each step
   inside the per-run tolerance (``repro.bench history``).

Run:  python examples/trace_quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import obs
from repro.campaign import ResultStore, plan_experiments, run_campaign
from repro.experiments.common import ExperimentConfig
from repro.obs.sinks import JsonlSink, MemorySink

SEED = 20090525


def traced_campaign(results_dir: Path) -> None:
    store = ResultStore(results_dir)
    plan = plan_experiments(["E1"], ExperimentConfig(scale="quick",
                                                     seed=SEED))
    trace = results_dir / "trace.jsonl"

    # Cold run, traced: spans for the campaign, the dispatch fan-out,
    # the unit itself, and the store write all land in one JSONL file.
    sink = JsonlSink(trace, argv=["trace_quickstart", "cold"])
    previous = obs.configure(sink)
    try:
        run_campaign(plan, store)
    finally:
        obs.configure(previous if previous.live else None)
        sink.close()

    manifest, events = obs.read_trace(trace)
    print(f"== cold trace: {len(events)} events at {trace.name} ==")
    print(obs.render_summary(manifest, obs.summarize(events)))
    print()

    # Warm run into a fresh in-memory sink: same instrumentation, but
    # now every unit is a cache hit.
    memory = MemorySink()
    previous = obs.configure(memory)
    try:
        run_campaign(plan, store)
    finally:
        obs.configure(previous if previous.live else None)
    summary = obs.summarize(memory.events)
    cache = summary["cache"]
    print(f"== warm run: cache {cache['hits']} hit / "
          f"{cache['misses']} miss ({cache['rate']:.0%}) ==")
    print()


def instrument_your_own_code() -> None:
    memory = MemorySink()
    previous = obs.configure(memory)
    try:
        with obs.span("quickstart.outer", items=3):
            for i in range(3):
                with obs.span("quickstart.item", index=i) as sp:
                    obs.counter("quickstart.processed")
                    sp.set(squared=i * i)
    finally:
        obs.configure(previous if previous.live else None)
    print("== your own spans, summarized from memory ==")
    print(obs.render_summary(None, obs.summarize(memory.events)))
    print()


def _spin(rounds: int) -> int:
    return sum(i * i for i in range(rounds))


def _synthetic_trace(path: Path, kernel_rounds: int) -> None:
    """One "run": a root span over a hot kernel and a fixed-cost tail."""
    sink = JsonlSink(path, argv=["trace_quickstart", "profile-demo"])
    previous = obs.configure(sink)
    try:
        with obs.span("demo.run"):
            with obs.span("demo.kernel", rounds=kernel_rounds):
                _spin(kernel_rounds)
            with obs.span("demo.tail"):
                _spin(50_000)
    finally:
        obs.configure(previous if previous.live else None)
        sink.close()


def profile_and_diff(workdir: Path) -> None:
    from repro.obs import diff_traces, profile_trace, render_diff, \
        render_profile

    # Two runs of "the same" workload — except the kernel got ~5x
    # slower in the second.  Every live span carries cpu_s / peak RSS
    # (see repro.obs.resources), so the profile shows where CPU went,
    # not just wall clock.
    before, after = workdir / "before.jsonl", workdir / "after.jsonl"
    _synthetic_trace(before, kernel_rounds=100_000)
    _synthetic_trace(after, kernel_rounds=500_000)

    _, stats = profile_trace(after)
    print("== span-tree profile of the slow run "
          "(self time, CPU, peak RSS) ==")
    print(render_profile(stats))
    print()

    # The diff ranks span paths by how much SELF time moved, so
    # demo.kernel tops the list — its parent demo.run inherited the
    # regression in total time but answers for none of it itself.
    print("== before -> after: which span path slowed down? ==")
    print(render_diff(diff_traces(before, after), top=5))
    print()
    print("CLI spelling:")
    print("  python -m repro.obs profile after.jsonl")
    print("  python -m repro.obs diff before.jsonl after.jsonl")
    print("  python -m repro.bench run --suite engine --trace traces/")
    print()


def watch_and_history(workdir: Path) -> None:
    from repro.bench.results import CaseResult, SuiteResult
    from repro.obs.history import HistoryStore, check_drift, render_trend
    from repro.obs.live import render_dashboard
    from repro.obs.stream import TraceFold, TraceFollower

    # -- live watching: follow the trace stop 1 wrote and render one
    # dashboard frame from it.  During a real run the same loop
    # repaints continuously:  python -m repro.obs watch r/trace.jsonl
    # (or simply  python -m repro.campaign run ... --watch).  The fold
    # behind the frame is the one behind 'report': its summary() is
    # what obs.summarize returned in stop 1.
    trace = workdir / "campaign" / "trace.jsonl"
    follower = TraceFollower(trace)
    fold = TraceFold()
    fold.ingest(follower.poll())
    print("== one live-dashboard frame of the stop-1 trace ==")
    print(render_dashboard(fold.snapshot(), title=f"watching {trace.name}"))
    cache = fold.summary()["cache"]
    print(f"same fold, post-hoc view: cache {cache['hits']} hit / "
          f"{cache['misses']} miss")
    print()

    # -- perf history: record three synthetic bench runs whose case
    # creeps +8% per run.  Each step passes the generous per-run
    # 'compare' tolerance; the rolling-median + MAD gate still fails
    # the cumulative ~25% drift.
    def artifact(run: int, median_s: float) -> SuiteResult:
        case = CaseResult(name="demo/kernel", scale="quick", rounds=3,
                          best_s=median_s * 0.97, median_s=median_s,
                          iqr_s=median_s * 0.01, speedup=None,
                          floor=None, tolerance=4.0)
        built = SuiteResult.build("demo", (case,))
        # Distinct provenance per synthetic run (the store's idempotence
        # key); a real history gets this from each run's artifact.
        return type(built)(**{**built.__dict__,
                              "created_at": f"2026-01-{run + 1:02d}"
                                            f"T00:00:00+00:00",
                              "git_sha": f"{run:040x}"})

    db = workdir / "history.sqlite"
    with HistoryStore(db) as store:
        for run, median in enumerate([0.100, 0.100, 0.100, 0.100,
                                      0.108, 0.117]):
            store.record(artifact(run, median))
        current = artifact(9, 0.125)
        print("== recorded history: demo/kernel creeping +8% per run ==")
        print(render_trend(store, "demo",
                           machine_id=None))  # all machines: demo data
        print()
        report = check_drift(store, current)
        for drift in report.comparisons:
            print(f"history check: {drift.name}: {drift.status}"
                  + (f" — {drift.note}" if drift.note else ""))
    print()
    print("CLI spelling:")
    print("  python -m repro.bench history record BENCH_demo.json")
    print("  python -m repro.bench history trend demo --case '*kernel*'")
    print("  python -m repro.bench history check BENCH_demo.json")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        # Use a real directory like results/ to keep trace + cache
        # between runs; the CLI spelling of stop 1 is
        #   python -m repro.campaign run E1 --results-dir r \
        #       --trace r/trace.jsonl
        #   python -m repro.obs report r/trace.jsonl
        traced_campaign(Path(tmp) / "campaign")
        instrument_your_own_code()
        profile_and_diff(Path(tmp))
        watch_and_history(Path(tmp))
