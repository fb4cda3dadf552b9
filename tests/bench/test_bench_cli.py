"""``python -m repro.bench`` — run/compare/report/list exit codes."""

from __future__ import annotations

import json

import pytest

from repro.bench import cli
from repro.bench.case import _CASES, BenchCase, register
from repro.bench.results import CaseResult, SuiteResult, load_result


@pytest.fixture
def demo_suite():
    """A tiny synthetic suite registered for the duration of one test."""
    registered = []

    def add(name, seconds_rank=0.0, **kwargs):
        def setup():
            return lambda: seconds_rank  # effectively instant
        case = BenchCase(name=f"demo/{name}", suite="demo", scale="tiny",
                        setup=setup, rounds=2, **kwargs)
        register(case)
        registered.append(case.name)
        return case

    add("serial")
    add("fast", ref="demo/serial")
    yield
    for name in registered:
        _CASES.pop(name, None)


def test_run_writes_schema_valid_artifact(tmp_path, capsys, demo_suite):
    out = tmp_path / "BENCH_demo.json"
    code = cli.main(["run", "--suite", "demo", "--out", str(out),
                     "--quiet"])
    assert code == 0
    result = load_result(out)
    assert result.suite == "demo"
    assert {case.name for case in result.cases} == \
        {"demo/serial", "demo/fast"}
    fast = result.case("demo/fast")
    assert fast.ref == "demo/serial" and fast.speedup is not None
    assert "wrote" in capsys.readouterr().out


def test_run_trace_writes_per_case_traces(tmp_path, demo_suite):
    from repro.obs.events import read_trace
    from repro.bench.runner import trace_filename

    out = tmp_path / "BENCH_demo.json"
    traces = tmp_path / "traces"
    assert cli.main(["run", "--suite", "demo", "--out", str(out),
                     "--trace", str(traces), "--quiet"]) == 0
    for case_name in ("demo/serial", "demo/fast"):
        path = traces / trace_filename(case_name)
        assert path.exists(), path
        manifest, events = read_trace(path)
        assert manifest is not None
        spans = [e for e in events if e["kind"] == "span"]
        assert len(spans) == 2  # one bench.case span per round
        for span in spans:
            assert span["name"] == "bench.case"
            assert span["attrs"]["case"] == case_name
            assert "cpu_s" in span["res"]


def test_compare_failure_prints_trace_diff(tmp_path, demo_suite, capsys):
    """A tripped gate with traces on both sides names the span paths
    that moved."""
    traces_a = tmp_path / "traces-a"
    traces_b = tmp_path / "traces-b"
    baseline = tmp_path / "baseline.json"
    current = tmp_path / "current.json"
    assert cli.main(["run", "--suite", "demo", "--out", str(baseline),
                     "--trace", str(traces_a), "--quiet"]) == 0
    assert cli.main(["run", "--suite", "demo", "--out", str(current),
                     "--trace", str(traces_b), "--quiet"]) == 0
    capsys.readouterr()
    # Force a failure regardless of timing noise.
    code = cli.main(["compare", str(current), "--baseline", str(baseline),
                     "--max-ratio", "0.000001",
                     "--trace-dir", str(traces_b),
                     "--baseline-trace-dir", str(traces_a), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert "REGRESSION" in err
    assert "span paths that moved" in err
    assert "bench.case" in err


def test_run_case_filter(tmp_path, demo_suite):
    out = tmp_path / "BENCH_demo.json"
    assert cli.main(["run", "--suite", "demo", "--out", str(out),
                     "--case", "*serial", "--quiet"]) == 0
    result = load_result(out)
    assert [case.name for case in result.cases] == ["demo/serial"]


def test_run_case_filter_takes_several_globs(tmp_path, demo_suite):
    """Each ``--case`` adds a glob; a case runs when it matches any."""
    out = tmp_path / "BENCH_demo.json"
    assert cli.main(["run", "--suite", "demo", "--out", str(out),
                     "--case", "*serial", "--case", "*fast",
                     "--quiet"]) == 0
    assert [case.name for case in load_result(out).cases] == \
        ["demo/serial", "demo/fast"]


@pytest.fixture
def floored_pair():
    """A floored case and its ref that log each round and open a span."""
    from repro import obs

    log: list[str] = []

    def setup(name):
        def workload():
            log.append(name)
            with obs.span("demo.work", case=name):
                pass
        return lambda: workload
    cases = [BenchCase(name="demop/ref", suite="demop", scale="tiny",
                       setup=setup("ref"), rounds=3),
             BenchCase(name="demop/other", suite="demop", scale="tiny",
                       setup=setup("other"), rounds=1),
             BenchCase(name="demop/fast", suite="demop", scale="tiny",
                       setup=setup("fast"), rounds=2, ref="demop/ref",
                       floor=1e-9)]
    for case in cases:
        register(case)
    yield log
    for case in cases:
        _CASES.pop(case.name, None)


def test_run_alternates_a_floored_case_with_its_ref(floored_pair):
    from repro.bench.runner import run_suite

    result = run_suite("demop")
    assert floored_pair == ["ref", "fast", "ref", "fast", "ref", "other"]
    assert [case.name for case in result.cases] == \
        ["demop/ref", "demop/other", "demop/fast"]
    assert result.case("demop/fast").speedup is not None


def test_interleaved_traces_stay_one_per_case(tmp_path, floored_pair):
    """Alternating rounds still give each case its own trace file, with
    one ``bench.case`` span per round of that case and each round's
    workload span under it."""
    from repro.bench.runner import run_suite, trace_filename
    from repro.obs import trace
    from repro.obs.events import read_trace

    run_suite("demop", trace_dir=tmp_path)
    assert not trace.enabled()
    for name, rounds in (("ref", 3), ("other", 1), ("fast", 2)):
        _, events = read_trace(tmp_path / trace_filename(f"demop/{name}"))
        spans = [e for e in events if e["kind"] == "span"]
        case_spans = [e for e in spans if e["name"] == "bench.case"]
        work = [e for e in spans if e["name"] == "demo.work"]
        assert len(spans) == 2 * rounds
        assert {e["attrs"]["case"] for e in case_spans + work} == \
            {f"demop/{name}", name}
        assert [e["parent_id"] for e in work] == \
            [e["span_id"] for e in case_spans]


def test_run_unknown_suite_fails(demo_suite):
    with pytest.raises(ValueError, match="no cases match|unknown suite"):
        cli.main(["run", "--suite", "nope"])


def test_run_out_directory_is_config_before_any_case(tmp_path, capsys):
    ran = []

    def setup():
        ran.append(1)
        return lambda: None

    register(BenchCase(name="demod/case", suite="demod", scale="tiny",
                       setup=setup, rounds=1))
    try:
        assert cli.main(["run", "--suite", "demod", "--out",
                         str(tmp_path)]) == 2
    finally:
        _CASES.pop("demod/case", None)
    captured = capsys.readouterr()
    assert ran == []
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "is a directory" in captured.err
    assert "Traceback" not in captured.err


def test_run_fails_on_floor_violation(tmp_path):
    # An impossible floor: the pair is same-cost, so ~1x measured.
    def setup():
        return lambda: None

    names = []
    for case in (
        BenchCase(name="demof/serial", suite="demof", scale="tiny",
                  setup=setup, rounds=2),
        BenchCase(name="demof/fast", suite="demof", scale="tiny",
                  setup=setup, rounds=2, ref="demof/serial",
                  floor=1000.0),
    ):
        register(case)
        names.append(case.name)
    try:
        out = tmp_path / "BENCH_demof.json"
        assert cli.main(["run", "--suite", "demof", "--out", str(out),
                         "--quiet"]) == 1
        # --no-floors downgrades the violation to a warning; the
        # artifact is written either way.
        assert cli.main(["run", "--suite", "demof", "--out", str(out),
                         "--quiet", "--no-floors"]) == 0
        assert load_result(out).case("demof/fast") is not None
    finally:
        for name in names:
            _CASES.pop(name, None)


def _write(path, suite: SuiteResult) -> None:
    path.write_text(suite.to_json())


def _suite(medians: dict[str, float]) -> SuiteResult:
    cases = tuple(
        CaseResult(name=f"demo/{name}", scale="", rounds=3,
                   best_s=median * 0.9, median_s=median, iqr_s=0.0)
        for name, median in medians.items())
    return SuiteResult.build("demo", cases)


def test_compare_exit_codes(tmp_path):
    baseline = tmp_path / "baseline.json"
    current = tmp_path / "current.json"
    _write(baseline, _suite({"a": 0.1, "b": 0.2}))

    _write(current, _suite({"a": 0.1, "b": 0.2}))
    assert cli.main(["compare", str(current),
                     "--baseline", str(baseline)]) == 0

    _write(current, _suite({"a": 2.0, "b": 0.2}))  # 20x: regression
    assert cli.main(["compare", str(current),
                     "--baseline", str(baseline)]) == 1

    _write(current, _suite({"a": 0.01, "b": 0.2}))  # improvement
    assert cli.main(["compare", str(current),
                     "--baseline", str(baseline)]) == 0

    _write(current, _suite({"a": 0.1}))  # missing case
    assert cli.main(["compare", str(current),
                     "--baseline", str(baseline)]) == 1

    _write(current, _suite({"a": 0.1, "b": 0.2, "c": 0.3}))  # new case
    assert cli.main(["compare", str(current),
                     "--baseline", str(baseline)]) == 0


def test_compare_without_baseline_is_exit_2(tmp_path, capsys):
    current = tmp_path / "current.json"
    _write(current, _suite({"a": 0.1}))
    code = cli.main(["compare", str(current),
                     "--baseline", str(tmp_path / "missing.json")])
    assert code == 2
    assert "no baseline" in capsys.readouterr().err


def test_compare_max_ratio_flag(tmp_path):
    baseline = tmp_path / "baseline.json"
    current = tmp_path / "current.json"
    _write(baseline, _suite({"a": 0.1}))
    _write(current, _suite({"a": 0.3}))  # 3x: inside default 4x
    assert cli.main(["compare", str(current), "--baseline", str(baseline),
                     "--max-ratio", "2.0"]) == 1
    assert cli.main(["compare", str(current), "--baseline", str(baseline),
                     "--max-ratio", "10.0"]) == 0


def test_report_single_and_trend(tmp_path, capsys):
    first = tmp_path / "old.json"
    second = tmp_path / "new.json"
    old = _suite({"a": 0.1, "b": 0.2})
    _write(first, old)
    assert cli.main(["report", str(first)]) == 0
    assert "demo/a" in capsys.readouterr().out

    new = SuiteResult(**{**old.__dict__,
                         "created_at": "2099-01-01T00:00:00+00:00"})
    _write(second, new)
    assert cli.main(["report", str(first), str(second)]) == 0
    out = capsys.readouterr().out
    assert "across 2 runs" in out


def test_list_names_every_suite(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for suite in ("micro", "engine", "protocols", "campaign",
                  "experiments"):
        assert f"{suite}/" in out


def test_list_suites_is_the_ci_iteration_source(capsys):
    """`list --suites` is what CI's perf job loops over: bare suite
    names, one per line, nothing else."""
    assert cli.main(["list", "--suites"]) == 0
    lines = capsys.readouterr().out.split()
    assert set(lines) >= {"micro", "engine", "protocols", "campaign",
                          "experiments"}
    assert all("/" not in line for line in lines)


def test_obs_span_cases_close_their_round_spans(tmp_path, capsys):
    """The micro/obs_span_* cases swap the sink only inside their run,
    so each traced round's ``bench.case`` span closes into its trace."""
    from repro.obs.cli import main as obs_cli

    traces = tmp_path / "traces"
    assert cli.main(["run", "--suite", "micro", "--case", "micro/obs_span_*",
                     "--out", str(tmp_path / "BENCH_micro.json"),
                     "--trace", str(traces), "--target-seconds", "0.01",
                     "--max-rounds", "3", "--quiet"]) == 0
    paths = sorted(traces.glob("TRACE_*.jsonl"))
    assert [path.name for path in paths] == [
        "TRACE_micro_obs_span_disabled.jsonl",
        "TRACE_micro_obs_span_emit.jsonl"]
    capsys.readouterr()
    for path in paths:
        assert obs_cli(["profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bench.case" in out and "unclosed" not in out, out


def test_real_baselines_are_schema_valid():
    """The checked-in baselines must parse on the current schema."""
    from pathlib import Path
    baseline_dir = Path(__file__).resolve().parents[2] / \
        "benchmarks" / "baselines"
    files = sorted(baseline_dir.glob("BENCH_*.json"))
    assert len(files) == 5, "one baseline per suite"
    for path in files:
        result = load_result(path)
        assert result.cases, f"{path.name} has no cases"
        names = {case.name for case in result.cases}
        assert all(name.startswith(result.suite + "/") for name in names)
