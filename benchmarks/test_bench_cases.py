"""Every registered benchmark case, run once and checked.

One parametrized test over :func:`repro.bench.iter_cases`: each case's
workload is built, run a single time, and validated with its
``check_result``, so a case that breaks (or whose result goes wrong)
fails tier-1.  Timing is ``python -m repro.bench run``'s job, the one
timer CI gates on; the acceptance tests beside this file assert the
registered speedup floors through :func:`repro.bench.run_showdown`.
"""

from __future__ import annotations

import pytest

from repro.bench import get_case, iter_cases

CASES = [case.name for case in iter_cases()]


@pytest.mark.parametrize("name", CASES)
def test_case_runs_once_and_checks(name):
    case = get_case(name)
    case.check_result(case.setup()())
