"""The acceptance bridge between the harness and the pytest tier.

:func:`run_showdown` measures a group of registered cases with the
harness timer, renders the classic backend-comparison table, and
reports any speedup-floor violations; the acceptance tests under
``benchmarks/`` print the table and assert the failure list is empty.
The cases run in alternating rounds, so a change in host load lands on
both sides of every ratio a floor gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.tables import render_table
from repro.bench.case import get_case
from repro.bench.timer import MeasureConfig, measure_interleaved

__all__ = ["run_showdown", "ShowdownResult"]


@dataclass(frozen=True)
class ShowdownResult:
    """A rendered comparison table plus machine-readable outcomes."""

    table: str
    best: dict[str, float]      # case name -> best seconds
    speedups: dict[str, float]  # case name -> speedup vs its ref
    failures: tuple[str, ...]   # floor violations, empty when green


def run_showdown(names: Sequence[str],
                 config: MeasureConfig | None = None) -> ShowdownResult:
    """Measure *names* in alternating rounds with the harness timer and
    compare against each case's declared serial reference."""
    cases = [get_case(name) for name in names]
    best = {case.name: measurement.best for case, measurement
            in zip(cases, measure_interleaved(cases, config))}

    rows = []
    speedups: dict[str, float] = {}
    failures: list[str] = []
    for case in cases:
        seconds = best[case.name]
        row = {"case": case.name.split("/", 1)[1],
               "ms_best": round(seconds * 1e3, 1)}
        if case.ref is not None and case.ref in best:
            speedup = best[case.ref] / seconds
            speedups[case.name] = speedup
            row["speedup"] = round(speedup, 2)
            if case.floor is not None and speedup < case.floor:
                failures.append(
                    f"{case.name}: {speedup:.2f}x vs {case.ref} is below "
                    f"the asserted floor {case.floor:.2f}x")
        elif case.ref is None:
            row["speedup"] = 1.0
        rows.append(row)
    return ShowdownResult(table=render_table(rows), best=best,
                          speedups=speedups, failures=tuple(failures))
