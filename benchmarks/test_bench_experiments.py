"""Bench E1–E16 — quick-scale regeneration of every experiment table.

One parametrized wrapper over the registered ``experiments/*`` harness
cases (:mod:`repro.bench.workloads.experiments`): each test id is the
experiment's module name, and ``python -m repro.bench run --suite
experiments`` and these tests time exactly the same thing.
"""

from __future__ import annotations

import pytest

from repro.bench import iter_cases, run_in_pytest

CASES = [case.name for case in iter_cases(suite="experiments")]


@pytest.mark.parametrize("name", CASES,
                         ids=[name.split("/", 1)[1] for name in CASES])
def test_bench_experiment(benchmark, name):
    run_in_pytest(benchmark, name)
