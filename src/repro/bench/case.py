"""The benchmark-case registry.

A :class:`BenchCase` is one timed workload: a ``setup`` factory that
builds the workload's state (model construction, substrate generation —
excluded from timing) and returns a zero-argument callable that the
timer measures.  Cases are grouped into **suites** (``micro``,
``engine``, ``protocols``, ``campaign``, ``experiments``); each suite is
one ``BENCH_<suite>.json`` artifact and one checked-in baseline.

Cases register at import time of their
:mod:`repro.bench.workloads` module, so the registry's contents are a
pure function of the code — deterministic across processes, which the
result schema and baseline comparison rely on.  The pytest files under
``benchmarks/`` import the same registrations and wrap them in
``benchmark`` fixtures, so the CLI harness and the pytest tier time
byte-for-byte the same workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Any, Callable, Iterator, Sequence

from repro.util.validation import require

__all__ = ["BenchCase", "register", "get_case", "iter_cases",
           "suite_names", "load_workloads", "DEFAULT_TIME_TOLERANCE"]

#: Default baseline gate: a case regresses when its median exceeds the
#: baseline median by more than this multiplier.  Generous on purpose —
#: absolute wall-clock is machine-dependent, so only order-of-magnitude
#: slowdowns (a batched kernel silently falling back to the serial
#: path) should trip it across hosts.  Dimensionless speedup ratios are
#: gated much tighter; see :mod:`repro.bench.compare`.
DEFAULT_TIME_TOLERANCE = 4.0


@dataclass(frozen=True)
class BenchCase:
    """One registered benchmark workload.

    Attributes
    ----------
    name:
        Unique ``"<suite>/<case>"`` identifier.
    suite:
        Suite the case belongs to (must prefix *name*).
    scale:
        Human-readable workload size (``"n=1024, 64 trials"``).
    setup:
        Zero-argument factory: builds the workload state and returns the
        zero-argument callable that gets timed.  Construction cost is
        never measured.
    check:
        Optional validator called with the workload's return value after
        every measurement; raises ``ValueError`` on a broken result so a
        fast-but-wrong kernel can never post a number.
    ref:
        Name of the serial-reference case in the same suite; when set,
        the result records ``speedup = ref_best / case_best``.
    floor:
        Asserted minimum speedup vs *ref* — the suite run fails when the
        measured ratio drops below it (the CI perf gate).
    tolerance:
        Per-case baseline gate multiplier (see
        :data:`DEFAULT_TIME_TOLERANCE`).
    rounds:
        Fixed repetition count for heavy workloads; ``None`` lets the
        timer calibrate rounds from the first measurement.
    fresh_state:
        Re-run *setup* before every round, for workloads that mutate
        their state into a different cost regime (a cold campaign run
        becomes a warm one).
    """

    name: str
    suite: str
    scale: str
    setup: Callable[[], Callable[[], Any]]
    check: Callable[[Any], None] | None = None
    ref: str | None = None
    floor: float | None = None
    tolerance: float = DEFAULT_TIME_TOLERANCE
    rounds: int | None = None
    fresh_state: bool = field(default=False)

    def __post_init__(self) -> None:
        require("/" in self.name and self.name.startswith(self.suite + "/"),
                f"case name {self.name!r} must be '<suite>/<case>' and "
                f"start with its suite {self.suite!r}")
        tail = self.name.split("/", 1)[1]
        require(tail != "" and all(c.isalnum() or c in "_-" for c in tail),
                f"case name tail {tail!r} must be [alnum_-]+")
        require(self.floor is None or self.floor > 0,
                f"{self.name}: floor must be positive")
        require(self.floor is None or self.ref is not None,
                f"{self.name}: a floor requires a ref case")
        require(self.tolerance > 1.0,
                f"{self.name}: tolerance is a slowdown multiplier > 1")
        require(self.rounds is None or self.rounds >= 1,
                f"{self.name}: rounds must be >= 1")

    def check_result(self, result: Any) -> None:
        """Validate a workload result (no-op without a checker)."""
        if self.check is not None:
            self.check(result)


_CASES: dict[str, BenchCase] = {}
_LOADED = False


def register(case: BenchCase) -> BenchCase:
    """Add *case* to the registry; duplicate names are an error."""
    require(case.name not in _CASES,
            f"duplicate benchmark case {case.name!r}")
    _CASES[case.name] = case
    return case


def load_workloads() -> None:
    """Import every built-in workload module (idempotent)."""
    global _LOADED
    if _LOADED:
        return
    from repro.bench import workloads
    workloads.load_all()
    _LOADED = True


def get_case(name: str) -> BenchCase:
    """Look up a registered case by its full ``suite/case`` name."""
    load_workloads()
    require(name in _CASES,
            f"unknown benchmark case {name!r} "
            f"(known suites: {', '.join(suite_names())})")
    return _CASES[name]


def iter_cases(suite: str | None = None,
               pattern: str | Sequence[str] | None = None
               ) -> Iterator[BenchCase]:
    """Registered cases in registration order, optionally filtered by
    suite and by ``fnmatch`` patterns on the full name: one glob, or
    several, of which a case must match at least one."""
    load_workloads()
    patterns = [pattern] if isinstance(pattern, str) else pattern
    for case in _CASES.values():
        if suite is not None and case.suite != suite:
            continue
        if patterns is not None and not any(fnmatch(case.name, glob)
                                            for glob in patterns):
            continue
        yield case


def suite_names() -> list[str]:
    """Suites with at least one registered case, in first-seen order."""
    load_workloads()
    seen: dict[str, None] = {}
    for case in _CASES.values():
        seen.setdefault(case.suite, None)
    return list(seen)
