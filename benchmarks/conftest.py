"""Benchmark-suite configuration.

Run with::

    pytest benchmarks/                       # run + check, floors
    python -m repro.bench run --suite micro  # timed, via the harness

``test_bench_cases.py`` runs every case registered with
:mod:`repro.bench` — the machine-readable benchmark harness — once and
checks its result (the ``experiments/*`` cases regenerate every
experiment table at quick scale); the acceptance tests assert the
registered speedup floors and the exact campaign resume.  Timing is
the harness CLI's: it times the same registered workloads, writes
schema-versioned ``BENCH_<suite>.json`` artifacts, and gates them
against the baselines under ``benchmarks/baselines/`` (see the
DESIGN.md bench section).
"""
