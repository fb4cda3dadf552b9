"""Benchmark-suite configuration.

Run with::

    pytest benchmarks/ --benchmark-only      # timed, via pytest-benchmark
    python -m repro.bench run --suite micro  # timed, via the harness

Every file here is a thin pytest wrapper over a case registered with
:mod:`repro.bench` — the machine-readable benchmark harness.
``test_bench_experiments.py`` regenerates every experiment table, one
parametrized test per ``experiments/*`` case (at quick scale, so the
whole suite stays laptop-friendly); the ``micro``
wrappers time the hot kernels the simulators are built on; the
acceptance tests assert the registered speedup floors.  The harness
CLI times the same registered workloads, writes schema-versioned
``BENCH_<suite>.json`` artifacts, and gates them against the baselines
under ``benchmarks/baselines/`` (see the DESIGN.md bench section).
"""
