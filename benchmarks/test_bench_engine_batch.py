"""Engine throughput: serial vs batched (replay/native) vs parallel.

Thin pytest wrappers over the ``engine`` harness suite
(:mod:`repro.bench.workloads.engine`): the acceptance comparison
measures the n=512, 64-trial EdgeMEG ensemble and the n=1024, 64-trial
geometric-MEG ensemble on every backend and asserts each registered
floor — native batched trial throughput over the serial reference — while
the small tracking cases ride the ``benchmark`` fixture.
"""

from __future__ import annotations

from repro.bench import run_in_pytest, run_showdown


def test_engine_native_speedup_over_serial():
    """The ISSUE acceptance criterion: >= 5x on a 64-trial ensemble."""
    showdown = run_showdown([
        "engine/edge_ensemble_serial",
        "engine/edge_ensemble_replay",
        "engine/edge_ensemble_native",
        "engine/edge_ensemble_parallel",
    ])
    print("\nEdgeMEG n=512, p_hat=2 log n/n, 64 trials:")
    print(showdown.table)
    assert not showdown.failures, "\n".join(showdown.failures)


def test_geometric_native_speedup_over_serial():
    """The native geometric kernel (lattice radius query) must clear
    its registered floor on the E4 law at n=1024, 64 trials."""
    showdown = run_showdown([
        "engine/geometric_ensemble_serial",
        "engine/geometric_ensemble_replay",
        "engine/geometric_ensemble_native",
        "engine/geometric_ensemble_parallel",
    ])
    print("\nGeometricMEG n=1024, r=1, R=2 sqrt(log n), 64 trials:")
    print(showdown.table)
    assert not showdown.failures, "\n".join(showdown.failures)


def test_bench_flooding_trials_serial(benchmark):
    run_in_pytest(benchmark, "engine/trials_serial")


def test_bench_flooding_trials_batched_replay(benchmark):
    run_in_pytest(benchmark, "engine/trials_batched_replay")


def test_bench_flooding_trials_batched_native(benchmark):
    run_in_pytest(benchmark, "engine/trials_batched_native")
