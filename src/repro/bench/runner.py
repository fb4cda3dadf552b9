"""Suite execution: measure every registered case, assert floors.

The runner is deliberately dumb: measure cases in registration order,
attach speedups against each case's declared serial reference, and hand
back a :class:`~repro.bench.results.SuiteResult`.  A floored case and
its reference are measured together in alternating rounds
(:func:`~repro.bench.timer.measure_interleaved`), so a drift in host
load lands on both sides of the ratio the floor gates.  Floor
violations are reported as strings (not exceptions) so the CLI can
still write the artifact — a failing perf gate with no evidence
attached would be the worst of both worlds.

With *trace_dir* set, every case is measured under its own JSONL
telemetry sink (``TRACE_<suite>_<case>.jsonl``), one ``bench.case``
span per round (its set-up included).  Spans opened by the workload
itself (an engine case's plan / fan-out / chunk spans) then land in
the per-case trace, so a tripped regression gate can be profiled and
diffed (``python -m repro.obs diff``) instead of eyeballed.  The sink
wraps whole rounds — calibration included — never the inside of a
timed region; the per-span cost inside traced workloads is what the
generous compare tolerances absorb.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.bench.case import BenchCase, iter_cases, suite_names
from repro.bench.results import CaseResult, SuiteResult
from repro.bench.timer import Measurement, MeasureConfig, measure_interleaved
from repro.util.validation import require

__all__ = ["run_suite", "floor_failures", "trace_filename"]

Progress = Callable[[BenchCase, Measurement], None]


def trace_filename(case_name: str) -> str:
    """The per-case trace artifact name (case names contain ``/``)."""
    return "TRACE_" + case_name.replace("/", "_") + ".jsonl"


class _CaseTraces:
    """One JSONL trace per case, written round by round.

    Each round runs in a ``bench.case`` span with its own case's sink
    installed, so rounds of another case interleaved between them never
    land in this trace.  A case that swaps the sink (the micro/obs_*
    cases do) restores it before its run returns, so the span closes
    into the trace it opened in.
    """

    def __init__(self, trace_dir: str | Path, suite: str) -> None:
        self.trace_dir, self.suite = Path(trace_dir), suite
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, Any] = {}  # case -> its JsonlSink

    @contextmanager
    def round(self, case: BenchCase) -> Iterator[None]:
        from repro import obs
        from repro.obs.sinks import JsonlSink

        if case.name not in self.files:
            self.files[case.name] = JsonlSink(
                self.trace_dir / trace_filename(case.name),
                argv=["repro.bench", "run", "--suite", self.suite,
                      "--case", case.name])
        outer = obs.configure(self.files[case.name])
        try:
            with obs.span("bench.case", case=case.name, suite=self.suite):
                yield
        finally:
            obs.configure(outer)

    def close(self) -> None:
        for sink in self.files.values():
            sink.close()


def _groups(cases: Sequence[BenchCase]) -> list[list[BenchCase]]:
    """Cases measured together: a floored case joins its reference's
    group when the reference runs too; every other case is alone."""
    names = {case.name for case in cases}
    groups: dict[str, list[BenchCase]] = {}
    for case in cases:
        key = case.ref if case.floor is not None and case.ref in names \
            else case.name
        groups.setdefault(key, []).append(case)
    return list(groups.values())


def run_suite(suite: str, *,
              config: MeasureConfig | None = None,
              pattern: str | Sequence[str] | None = None,
              progress: Progress | None = None,
              trace_dir: str | Path | None = None) -> SuiteResult:
    """Measure every case of *suite* (optionally filtered by one or
    several fnmatch globs).

    Speedups are computed from best-of-round times against each case's
    ``ref``; a reference excluded by *pattern* yields ``speedup=None``
    rather than an error, so partial runs stay useful.  *trace_dir*
    writes one JSONL telemetry trace per case (see the module
    docstring).
    """
    config = config or MeasureConfig()
    cases = list(iter_cases(suite, pattern))
    require(suite in suite_names(), f"unknown suite {suite!r} "
            f"(known: {', '.join(suite_names())})")
    require(len(cases) > 0, f"no cases match {pattern!r} in suite {suite!r}")
    traces = _CaseTraces(trace_dir, suite) if trace_dir is not None \
        else None
    measured: dict[str, Measurement] = {}
    try:
        for group in _groups(cases):
            for case, measurement in zip(group, measure_interleaved(
                    group, config, around=traces and traces.round)):
                measured[case.name] = measurement
                if progress is not None:
                    progress(case, measurement)
    finally:
        if traces is not None:
            traces.close()

    results = []
    for case in cases:
        m = measured[case.name]
        ref = measured.get(case.ref) if case.ref else None
        results.append(CaseResult(
            name=case.name, scale=case.scale, rounds=m.rounds,
            best_s=m.best, median_s=m.median, iqr_s=m.iqr,
            ref=case.ref,
            speedup=(ref.best / m.best) if ref is not None else None,
            floor=case.floor, tolerance=case.tolerance))
    return SuiteResult.build(
        suite, tuple(results),
        config={"target_seconds": config.target_seconds,
                "min_rounds": config.min_rounds,
                "max_rounds": config.max_rounds,
                "pattern": pattern})


def floor_failures(result: SuiteResult) -> list[str]:
    """Human-readable violations of the suite's asserted speedup floors."""
    failures = []
    for case in result.cases:
        if case.floor is None or case.speedup is None:
            continue
        if case.speedup < case.floor:
            failures.append(
                f"{case.name}: speedup {case.speedup:.2f}x vs {case.ref} "
                f"is below the asserted floor {case.floor:.2f}x")
    return failures
