"""Benchmark driver: one workload, one fresh process, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flood-edge --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with the program untouched,
each time scaled to a reference host speed by the calibration of
``calibrate.py``, timed between queries.
``--trace 1`` alternates untraced queries with traced ones (layer
wrappers from ``probe.py`` plus ``repro.obs`` spans into memory) and
reports the per-layer metrics.  The last line of standard output is the
result object; the lines before it, prefixed ``#``, carry the stamp,
sample counts and drift notes, and the same record is written to
``.perfbench_out/`` in the checkout.  The exit code is 1 when an output
check fails and 2 when the checkout holds no program to measure.
"""

import argparse
import compileall
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Every numeric library runs single-threaded: at most two threads are
#: busy (the client and one service handler thread) on a 2-CPU host.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOADS = ("flood-edge", "flood-geometric", "campaign-local",
             "service-http")

#: At least ten samples lie beyond the p90 of every run.
MIN_QUERIES = 100

#: Set-up is measured this many times per run (this process plus fresh
#: child processes spread through the timed phase) and reported as the
#: median.
SETUP_SAMPLES = 7

#: First-half vs second-half median query time beyond this is flagged.
DRIFT_LIMIT = 0.10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure set-up once and print it (internal)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own accounting")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def require_program() -> None:
    """Refuse to run without the program's sources in the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}; nothing to measure",
              file=sys.stderr)
        sys.exit(2)
    # Byte-compile up front (the Python "build"), so no set-up sample pays
    # for compilation.
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))


def workdir_for(workload: str) -> Path:
    path = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run's work directory is still there


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def quantile(values, q: float) -> float:
    """Linear-interpolated quantile; ``inf`` samples (failed queries)
    sort last and count as slower than any limit."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if ordered[lo] == ordered[hi]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def p90(values) -> float:
    if len(values) < MIN_QUERIES:
        raise ValueError(f"a p90 needs at least {MIN_QUERIES} samples, "
                         f"got {len(values)}")
    return quantile(values, 0.9)


def drift(samples) -> dict:
    half = len(samples) // 2
    first, second = quantile(samples[:half], 0.5), quantile(samples[half:], 0.5)
    change = second / first - 1 if first > 0 else 0.0
    return {"first_half_p50_ms": 1e3 * first,
            "second_half_p50_ms": 1e3 * second,
            "change": change, "flagged": abs(change) > DRIFT_LIMIT}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Runs queries back to back and keeps the per-query record.

    With *calibrated*, every untraced query is followed by one untimed
    host-speed calibration (``calibrate.py``)."""

    def __init__(self, workload, calibrated: bool = False) -> None:
        self.workload = workload
        self.calibrated = calibrated
        self.samples = {False: [], True: []}  # traced? -> seconds per query
        self.elapsed = {False: [], True: []}  # the same, failed ones too
        self.calibrations: list[float] = []   # ms, one per untraced query
        self.busy = {False: 0.0, True: 0.0}
        self.done = {False: 0, True: 0}       # units completed correctly
        self.attempted = self.failed = 0
        self.rounds = self.traced_units = self.traced_hits = 0
        self.errors: list[str] = []

    def query(self, i: int, probe=None, sink=None) -> None:
        from repro import obs
        from perfbench.probe import install

        workload = self.workload
        ctx = workload.prepare(i)
        traced = probe is not None
        if traced:
            install(probe)
            obs.configure(sink)
        start = time.perf_counter()
        try:
            outcome = workload.run(i, ctx)
        except Exception as exc:  # counted as a failed query, not fatal
            outcome = exc
            if len(self.errors) < 3:
                self.errors.append(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if traced:
            obs.configure(None)
            probe.restore()
        tally = workload.account(i, ctx, outcome)
        failed = isinstance(outcome, Exception) or tally.failed > 0
        self.samples[traced].append(math.inf if failed else elapsed)
        self.elapsed[traced].append(elapsed)
        self.busy[traced] += elapsed
        self.done[traced] += tally.units - tally.failed
        self.attempted += tally.units
        self.failed += tally.failed
        if traced:
            self.rounds += tally.rounds
            self.traced_units += tally.units
            self.traced_hits += tally.hits
        elif self.calibrated:
            from perfbench.calibrate import calibrate
            self.calibrations.append(calibrate())

    def units_per_s(self, traced: bool) -> float:
        return self.done[traced] / self.busy[traced]

    def scaled(self) -> tuple[list, float]:
        """Untraced query times and their sum, each scaled to the
        reference host speed."""
        from perfbench.calibrate import scale_factors

        factors = scale_factors(self.calibrations)
        samples = [s * f for s, f in zip(self.samples[False], factors)]
        busy = sum(e * f for e, f in zip(self.elapsed[False], factors))
        return samples, busy


def measure(workload, seconds: float, trace: bool, pause=None, pauses=0):
    """The timed phase: queries back to back for ``seconds`` of wall
    time, and at least ``MIN_QUERIES`` of them.

    A fixed time, not a fixed query count, bounds a run's length on a
    slow host.  *pause* (an untimed set-up sample) runs *pauses* times,
    evenly spread over the phase and not counted in its time, so the
    set-up median sees the same host conditions as the queries.  Traced
    runs alternate untraced and traced queries, so the telemetry overhead
    is a paired comparison under the same host conditions."""
    from repro.obs import MemorySink, aggregate_paths, build_span_tree
    from perfbench.probe import Probe

    loop = Loop(workload, calibrated=not trace)
    probe = Probe() if trace else None
    spans: dict = {}
    start = time.perf_counter()
    paused = 0.0
    paused_count = i = 0

    def elapsed() -> float:
        return time.perf_counter() - start - paused

    while i < MIN_QUERIES or elapsed() < seconds:
        i += 1
        if trace and i % 2 == 0:
            sink = MemorySink()
            loop.query(i, probe, sink)
            for path, stats in aggregate_paths(
                    build_span_tree(sink.events)).items():
                entry = spans.setdefault(path[-1], [0, 0.0])
                entry[0] += stats.count
                entry[1] += stats.self_s
        else:
            loop.query(i)
        while (paused_count < pauses
               and elapsed() >= (paused_count + 1) * seconds / (pauses + 1)):
            began = time.perf_counter()
            pause()
            paused += time.perf_counter() - began
            paused_count += 1
    return loop, probe, spans


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(name: str, seed: int, workdir: Path):
    """Import the program, build the workload's inputs and run one
    untimed warm-up query; returns the workload and a set-up sample:
    the seconds taken and the host calibration (ms) timed right after."""
    start = time.perf_counter()
    from perfbench.workloads import WORKLOADS as CLASSES

    workload = CLASSES[name](name, seed, workdir)
    workload.run(0, workload.prepare(0))
    seconds = time.perf_counter() - start
    from perfbench.calibrate import calibrate_median
    return workload, (seconds, calibrate_median())


def setup_child(args) -> tuple[float, float]:
    """A set-up sample measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["calibration_ms"]


def stamp(workdir: Path) -> dict:
    import numpy
    from repro.obs.events import git_sha, machine_fingerprint

    return {
        "git_sha": git_sha() or "unknown",
        "machine": machine_fingerprint(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ[name] for name in BLAS_THREADS},
        "workdir": str(workdir),
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_block(values: dict, specs: list) -> dict:
    return {spec["name"]: {"value": values[spec["name"]],
                           "unit": spec["unit"]} for spec in specs}


def end_to_end(loop: Loop, setup_samples: list) -> tuple[dict, dict, dict]:
    """The end-to-end metrics scaled to the reference host speed, their
    sample counts, and the same metrics as raw wall times."""
    from perfbench.calibrate import REFERENCE_MS

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def metrics(setups, samples, busy):
        return {"setup_s": statistics.median(setups),
                "units_per_s": loop.done[False] / busy,
                "query_p50_ms": 1e3 * quantile(samples, 0.5),
                "query_p90_ms": 1e3 * p90(samples),
                "peak_rss_mb": rss}

    samples, busy = loop.scaled()
    values = metrics([s * REFERENCE_MS / cal for s, cal in setup_samples],
                     samples, busy)
    raw = metrics([s for s, _ in setup_samples], loop.samples[False],
                  loop.busy[False])
    counts = {"setup_s": len(setup_samples), "units_per_s": len(samples),
              "query_p50_ms": len(samples), "query_p90_ms": len(samples),
              "peak_rss_mb": 1}
    return values, counts, raw


def per_layer(loop: Loop, probe, workload) -> dict:
    from perfbench.probe import layer_metrics

    queries = len(loop.samples[True])
    overhead = 100.0 * (loop.units_per_s(False) / loop.units_per_s(True) - 1)
    return layer_metrics(
        probe, queries=queries, units=loop.traced_units,
        trial_rounds=loop.rounds,
        incomplete=getattr(workload, "incomplete", 0),
        cache_hits=loop.traced_hits, overhead_pct=overhead)


def finite(value: float):
    return None if math.isinf(value) or math.isnan(value) else value


def report(args, record: dict, result: dict) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record["result"] = result
    (out / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("# stamp: " + json.dumps(record["stamp"], sort_keys=True))
    for line in record["notes"]:
        print("# " + line)
    print(json.dumps(result))


def run_workload(args) -> int:
    require_program()
    workdir = workdir_for(args.workload)
    workload = None
    try:
        workload, setup0 = set_up(args.workload, args.seed, workdir)
        setup_samples = [setup0]
        loop, probe, spans = measure(
            workload, args.seconds, bool(args.trace),
            pause=lambda: setup_samples.append(setup_child(args)),
            pauses=0 if args.trace else SETUP_SAMPLES - 1)
        problems = workload.check()
        spec = load_spec()
        notes = [f"workload {args.workload}: seed {args.seed}, "
                 f"{args.seconds:g} s, trace {args.trace}, closed loop, "
                 f"1 client, {workload.units_per_query} units per query"]
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "stamp": stamp(workdir), "notes": notes,
                  "errors": loop.errors}
        if args.trace:
            values = per_layer(loop, probe, workload)
            metrics = metric_block(values, spec["per_layer"])
            notes.append(f"traced queries: {len(loop.samples[True])}, "
                         f"untraced: {len(loop.samples[False])}")
            ranked = sorted(spans.items(), key=lambda kv: -kv[1][1])
            record["spans_self_ms"] = {
                span: 1e3 * self_s / len(loop.samples[True])
                for span, (_, self_s) in ranked}
            for span, (count, self_s) in ranked[:8]:
                notes.append(f"span {span}: {count} spans, self "
                             f"{1e3 * self_s / len(loop.samples[True]):.3f}"
                             " ms/query")
            if args.workload.startswith("flood-"):
                from perfbench.probe import largest_flood_layer
                notes.append("largest flood layer: "
                             + largest_flood_layer(values))
        else:
            values, counts, raw = end_to_end(loop, setup_samples)
            metrics = metric_block(values, spec["end_to_end"])
            for name, value in values.items():
                scaled = ("" if value == raw[name]
                          else f"; unscaled {raw[name]:.6g}")
                notes.append(f"{name} = {value:.6g} "
                             f"{metrics[name]['unit']} (n={counts[name]}"
                             f"{scaled})")
            calibrations = loop.calibrations
            notes.append("host calibration: median "
                         f"{statistics.median(calibrations):.3f} ms, "
                         f"{min(calibrations):.3f}-{max(calibrations):.3f}"
                         f" (n={len(calibrations)})")
            record["drift"] = {"scaled": drift(loop.scaled()[0]),
                               "raw": drift(loop.samples[False])}
            for kind, entry in record["drift"].items():
                if entry["flagged"]:
                    notes.append(f"DRIFT ({kind}): first-half vs second-half"
                                 f" p50 moved {100 * entry['change']:+.1f}%")
            record["raw_wall"] = raw
            record["setup_samples"] = [
                {"setup_s": s, "calibration_ms": cal}
                for s, cal in setup_samples]
            record["calibrations_ms"] = calibrations
        for name in metrics:
            metrics[name]["value"] = finite(metrics[name]["value"])
        for problem in problems:
            notes.append("CHECK FAILED: " + problem)
        correct = not problems and loop.failed == 0
        report(args, record, {"correct": correct,
                              "attempted": loop.attempted,
                              "failed": loop.failed, "metrics": metrics})
        return 0 if correct else 1
    finally:
        if workload is not None:
            workload.close()
        remove_workdir(workdir)


def run_setup_only(args) -> int:
    require_program()
    workdir = workdir_for(args.workload)
    try:
        workload, (seconds, calibration) = set_up(args.workload, args.seed,
                                                  workdir)
        workload.close()
    finally:
        remove_workdir(workdir)
    print(json.dumps({"setup_s": seconds, "calibration_ms": calibration}))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, then one summary table."""
    status = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
            check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0:
            status = 1
            sys.stderr.write(proc.stderr)
        if lines:
            result = json.loads(lines[-1])
            for metric, entry in result["metrics"].items():
                rows.append((name, metric, entry["value"], entry["unit"]))
    for row in rows:
        print("{:<16} {:<32} {:>14} {}".format(*row))
    return status


def self_test() -> int:
    """Checks of the benchmark's own accounting (not of the program)."""
    require_program()
    from perfbench.workloads import CampaignLocal

    spec = load_spec()
    layers = json.loads((Path(__file__).with_name("layers.json"))
                        .read_text())
    names = [entry["name"] for entry in spec["per_layer"]]
    problems = []
    if sorted(names) != sorted(layers):
        problems.append("layers.json and BENCHMARK.json per_layer differ: "
                        f"{sorted(set(names) ^ set(layers))}")
    try:
        p90([1.0] * (MIN_QUERIES - 1))
        problems.append("p90 accepted fewer than 100 samples")
    except ValueError:
        pass
    if drift([1.0] * 10 + [2.0] * 10)["flagged"] is not True:
        problems.append("a doubling between halves was not flagged")
    from perfbench.calibrate import REFERENCE_MS, scale_factors
    if scale_factors([REFERENCE_MS] * 3 + [2 * REFERENCE_MS] * 9)[-1] != 0.5:
        problems.append("a host twice as slow did not halve query times")
    # An injected failing unit must be counted, not dropped.
    workdir = workdir_for("self-test")
    try:
        workload = CampaignLocal("campaign-local", 0, workdir,
                                 inject_failure=True)
        loop = Loop(workload)
        for i in range(1, 4):
            loop.query(i)
        if loop.failed != 3 or loop.attempted != 27:
            problems.append(f"injected failures: counted {loop.failed} of "
                            f"{loop.attempted}, expected 3 of 27")
        if not all(math.isinf(s) for s in loop.samples[False]):
            problems.append("a query with a failed unit got a finite time")
        if workload.hits != 0:
            problems.append(f"queries that raised added {workload.hits} "
                            "cache hits")
    finally:
        remove_workdir(workdir)
    for problem in problems:
        print("self-test FAILED: " + problem)
    print("self-test " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    # Before numpy is first imported; inherited by every child process.
    for name in BLAS_THREADS:
        os.environ[name] = "1"
    # The program's own ``git rev-parse`` calls stop at the checkout root.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    args = parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return run_setup_only(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
