"""Machine-readable benchmark harness (``repro.bench``).

The measurement substrate behind the repo's perf claims: every workload
under ``benchmarks/`` is a registered :class:`BenchCase`, suites run
through one calibrated timer, and each run emits a schema-versioned
``BENCH_<suite>.json`` artifact that ``repro.bench compare`` gates
against the baselines under ``benchmarks/baselines/``.  See DESIGN.md
for the schema, the baseline policy, and the tolerance discipline.
"""

from repro.bench.acceptance import ShowdownResult, run_showdown
from repro.bench.case import (
    BenchCase,
    get_case,
    iter_cases,
    register,
    suite_names,
)
from repro.bench.compare import (
    SPEEDUP_RETENTION,
    CaseComparison,
    ComparisonReport,
    compare_results,
)
from repro.bench.report import render_report, suite_table, trend_plot
from repro.bench.results import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    CaseResult,
    SuiteResult,
    load_result,
    machine_fingerprint,
    result_filename,
    schema_fingerprint,
)
from repro.bench.runner import floor_failures, run_suite
from repro.bench.timer import Measurement, MeasureConfig, measure_case

__all__ = [
    "BenchCase", "register", "get_case", "iter_cases", "suite_names",
    "Measurement", "MeasureConfig", "measure_case",
    "CaseResult", "SuiteResult", "SCHEMA_NAME", "SCHEMA_VERSION",
    "load_result", "machine_fingerprint", "result_filename",
    "schema_fingerprint",
    "run_suite", "floor_failures",
    "compare_results", "ComparisonReport", "CaseComparison",
    "SPEEDUP_RETENTION",
    "render_report", "suite_table", "trend_plot",
    "run_showdown", "ShowdownResult",
]
