"""The disabled instrumentation path must cost (near) nothing.

The acceptance bar is "<5% added wall time on a native engine run with
the no-op sink".  A literal before/after comparison is impossible now
that the call sites exist, so this asserts the same bound from its two
factors, both measured here: (a) the per-call cost of a disabled span
/ metric, and (b) how many obs calls a native engine run actually
makes (counted exactly with a MemorySink).  Their product must stay
under 5% of the measured run time — with room to spare.
"""

from __future__ import annotations

import time

from repro import obs
from repro.engine import SimulationPlan, run_plan
from repro.geometric.meg import GeometricMEG
from repro.obs.sinks import MemorySink
from repro.obs.trace import _NOOP_SPAN, configure

#: Loose per-call ceilings (seconds).  Real cost is O(100ns); the
#: ceilings absorb CI-runner noise while still catching an accidental
#: allocation / sink dispatch on the disabled path.
DISABLED_SPAN_CEILING_S = 25e-6
DISABLED_METRIC_CEILING_S = 10e-6


def _native_plan(trials=64):
    # Kernel-bound on purpose: native edge-MEG flooding runs as a ~1 ms
    # count chain, too short to measure a 5% bound against.
    return SimulationPlan(model_factory=lambda: GeometricMEG(
                              64, move_radius=1.0, radius=3.0),
                          trials=trials, seed=5, chunk_size=16,
                          rng_mode="native")


def _per_call_disabled_span(iterations=20_000) -> float:
    assert not obs.enabled()
    start = time.perf_counter()
    for _ in range(iterations):
        with obs.span("overhead.probe", a=1, b="x"):
            pass
    return (time.perf_counter() - start) / iterations


def _per_call_disabled_metric(iterations=50_000) -> float:
    assert not obs.enabled()
    start = time.perf_counter()
    for _ in range(iterations):
        obs.counter("overhead.probe", 1)
    return (time.perf_counter() - start) / iterations


def test_disabled_span_returns_shared_noop_without_allocating():
    assert obs.span("x", big=list(range(10))) is _NOOP_SPAN


def test_disabled_span_per_call_cost():
    assert _per_call_disabled_span() < DISABLED_SPAN_CEILING_S


def test_disabled_metric_per_call_cost():
    assert _per_call_disabled_metric() < DISABLED_METRIC_CEILING_S


def test_noop_sink_overhead_under_five_percent_of_native_run():
    plan = _native_plan()
    run_plan(plan, backend="batched")  # warm caches / imports

    # How long does the run take, instrumentation disabled?
    start = time.perf_counter()
    run_plan(plan, backend="batched")
    runtime_s = time.perf_counter() - start

    # How many obs calls does that run make?  Count exactly.
    memory = MemorySink()
    previous = configure(memory)
    try:
        run_plan(plan, backend="batched")
    finally:
        configure(previous if previous.live else None)
    calls = len(memory.events)
    assert calls > 0  # the engine really is instrumented

    # Disabled cost a span/metric call actually pays, measured here.
    per_call = max(_per_call_disabled_span(), _per_call_disabled_metric())
    overhead_s = calls * per_call
    assert overhead_s < 0.05 * runtime_s, (
        f"{calls} obs calls x {per_call * 1e6:.2f}us = "
        f"{overhead_s * 1e3:.3f}ms against a {runtime_s * 1e3:.1f}ms run")
