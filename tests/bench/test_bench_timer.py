"""Calibrated timer: round selection, statistics, per-round checks."""

from __future__ import annotations

import pytest

from repro.bench import acceptance
from repro.bench.case import BenchCase
from repro.bench.timer import (
    Measurement,
    MeasureConfig,
    measure_case,
    measure_interleaved,
)


def make_case(setup, **kwargs) -> BenchCase:
    return BenchCase(name="demo/case", suite="demo", scale="",
                     setup=setup, **kwargs)


def test_measurement_statistics():
    m = Measurement((0.4, 0.1, 0.3, 0.2))
    assert m.rounds == 4
    assert m.best == pytest.approx(0.1)
    assert m.median == pytest.approx(0.25)
    assert m.iqr > 0
    assert Measurement((0.1, 0.2)).iqr == 0.0  # too few rounds


def test_calibration_clamps_rounds():
    config = MeasureConfig(target_seconds=1.0, min_rounds=3, max_rounds=10)
    assert config.calibrated_rounds(10.0) == 3      # slow case: floor
    assert config.calibrated_rounds(1e-9) == 10     # fast case: ceiling
    assert config.calibrated_rounds(0.25) == 4      # budget / estimate


def test_fast_case_gets_many_rounds_slow_case_few():
    calls = {"n": 0}

    def setup():
        def run():
            calls["n"] += 1
        return run

    config = MeasureConfig(target_seconds=0.01, min_rounds=2, max_rounds=7)
    measurement, _ = measure_case(make_case(setup), config)
    assert measurement.rounds == 7  # instant workload hits the ceiling
    assert calls["n"] == 7


def test_fixed_rounds_override_calibration():
    calls = {"n": 0}

    def setup():
        def run():
            calls["n"] += 1
        return run

    case = make_case(setup, rounds=2)
    measurement, _ = measure_case(
        case, MeasureConfig(target_seconds=5.0, min_rounds=3, max_rounds=9))
    assert measurement.rounds == 2
    assert calls["n"] == 2


def test_fresh_state_reruns_setup_every_round():
    setups = {"n": 0}

    def setup():
        setups["n"] += 1
        return lambda: None

    case = make_case(setup, fresh_state=True, rounds=4)
    measure_case(case, MeasureConfig())
    assert setups["n"] == 4


def test_check_runs_every_round_and_aborts_on_failure():
    rounds = {"n": 0}

    def setup():
        def run():
            rounds["n"] += 1
            return rounds["n"]
        return run

    def check(result):
        if result >= 2:
            raise ValueError("round 2 produced a bad result")

    case = make_case(setup, check=check, rounds=5)
    with pytest.raises(ValueError, match="bad result"):
        measure_case(case)
    assert rounds["n"] == 2  # aborted at the failing round


def test_setup_cost_is_not_measured():
    import time

    def setup():
        time.sleep(0.05)  # construction: must not appear in the times
        return lambda: None

    measurement, _ = measure_case(
        make_case(setup, rounds=2), MeasureConfig())
    assert measurement.median < 0.05


def _logging_case(name, log, **kwargs) -> BenchCase:
    def setup():
        return lambda: log.append(name)
    return BenchCase(name=f"demo/{name}", suite="demo", scale="",
                     setup=setup, **kwargs)


def test_interleaved_cases_alternate_rounds():
    """Each case keeps its own round count; rounds alternate while both
    still have some, so host load drifts land on every case."""
    log: list[str] = []
    measurements = measure_interleaved(
        [_logging_case("ref", log, rounds=4),
         _logging_case("fast", log, rounds=2)])
    assert log == ["ref", "fast", "ref", "fast", "ref", "ref"]
    assert [m.rounds for m in measurements] == [4, 2]


def test_showdown_alternates_its_cases(monkeypatch):
    log: list[str] = []
    cases = {case.name: case for case in (
        _logging_case("ref", log, rounds=3),
        _logging_case("fast", log, rounds=3, ref="demo/ref", floor=1e-9),
        _logging_case("other", log, rounds=2, ref="demo/ref"),
    )}
    monkeypatch.setattr(acceptance, "get_case", cases.__getitem__)
    showdown = acceptance.run_showdown(list(cases))
    assert log == ["ref", "fast", "other"] * 2 + ["ref", "fast"]
    assert not showdown.failures
    assert set(showdown.speedups) == {"demo/fast", "demo/other"}
