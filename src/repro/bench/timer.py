"""Calibrated repetition timing for benchmark cases.

Built on :class:`repro.util.timing.Timer`: the first round's elapsed
time calibrates how many further rounds fit a wall-clock budget, so
microsecond kernels get dozens of rounds while multi-second campaign
runs get one.  The summary statistics are the noise-robust pair the
result schema records: the **median** (trend gating) and the **best**
(speedup ratios — system jitter only ever adds time).
"""

from __future__ import annotations

import math
import statistics
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import zip_longest
from typing import Any, Callable, ContextManager, Iterator, Sequence

from repro.bench.case import BenchCase
from repro.util.timing import Timer
from repro.util.validation import require

__all__ = ["Measurement", "MeasureConfig", "measure_case",
           "measure_interleaved"]

#: A context to run each of a case's rounds in.
Around = Callable[[BenchCase], ContextManager[Any]]


@dataclass(frozen=True)
class Measurement:
    """Per-round wall-clock seconds of one measured case."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        require(len(self.times) >= 1, "a measurement needs >= 1 round")
        require(all(t >= 0 for t in self.times),
                "round times must be non-negative")

    @property
    def rounds(self) -> int:
        return len(self.times)

    @property
    def best(self) -> float:
        return min(self.times)

    @property
    def median(self) -> float:
        return statistics.median(self.times)

    @property
    def iqr(self) -> float:
        """Interquartile range; 0 for fewer than four rounds."""
        if len(self.times) < 4:
            return 0.0
        q = statistics.quantiles(self.times, n=4)
        return q[2] - q[0]


@dataclass(frozen=True)
class MeasureConfig:
    """Calibration knobs shared by a suite run.

    ``target_seconds`` is the per-case wall-clock budget the round count
    is calibrated against; ``min_rounds``/``max_rounds`` clamp it.  A
    case's own fixed ``rounds`` always wins over calibration.
    """

    target_seconds: float = 0.4
    min_rounds: int = 3
    max_rounds: int = 25

    def __post_init__(self) -> None:
        require(self.target_seconds > 0, "target_seconds must be positive")
        require(1 <= self.min_rounds <= self.max_rounds,
                "need 1 <= min_rounds <= max_rounds")

    def calibrated_rounds(self, first_elapsed: float) -> int:
        """Total round count implied by the first round's elapsed time."""
        estimate = max(first_elapsed, 1e-9)
        goal = math.ceil(self.target_seconds / estimate)
        return max(self.min_rounds, min(self.max_rounds, goal))


def _timed_rounds(case: BenchCase, config: MeasureConfig,
                  around: Around | None = None,
                  ) -> Iterator[tuple[float, Any]]:
    """Yield ``(seconds, result)`` per measured round of *case*.

    The first round's elapsed time calibrates the round count (a case's
    fixed ``rounds`` wins).  The case's ``check`` runs on every round,
    so an invalid result aborts the measurement instead of polluting
    the artifact.  Each round, with the set-up before it, runs inside
    ``around(case)`` when given.
    """
    done, total = 0, 1
    while done < total:
        with around(case) if around is not None else nullcontext():
            if not done or case.fresh_state:
                workload = case.setup()
            with Timer() as timer:
                result = workload()
            case.check_result(result)
        yield timer.elapsed, result
        if not done:
            total = case.rounds or config.calibrated_rounds(timer.elapsed)
        done += 1


def measure_case(case: BenchCase,
                 config: MeasureConfig | None = None,
                 ) -> tuple[Measurement, Any]:
    """Measure *case*: calibrated repetitions, per-round validation.
    Returns the measurement and the last round's workload result."""
    times = []
    for elapsed, result in _timed_rounds(case, config or MeasureConfig()):
        times.append(elapsed)
    return Measurement(tuple(times)), result


def measure_interleaved(cases: Sequence[BenchCase],
                        config: MeasureConfig | None = None, *,
                        around: Around | None = None) -> list[Measurement]:
    """Measure *cases* in alternating rounds (one round of each in turn,
    until each has run its own round count), so a drift in host load
    hits every case alike instead of whichever happened to run then.
    Each round runs inside ``around(case)`` when given (the runner
    traces each case into its own file this way)."""
    config = config or MeasureConfig()
    times: list[list[float]] = [[] for _ in cases]
    streams = (_timed_rounds(case, config, around) for case in cases)
    for turn in zip_longest(*streams):
        for case_times, timed in zip(times, turn):
            if timed is not None:
                case_times.append(timed[0])
    return [Measurement(tuple(case_times)) for case_times in times]
