"""Micro-benchmarks of the simulators' hot kernels.

Thin pytest wrappers over the ``micro`` harness suite
(:mod:`repro.bench.workloads.micro`).  These are the inner loops every
experiment spends its time in:

* one edge-MEG step (``n(n-1)/2`` two-state chains, vectorised),
* one geometric-MEG step (bulk rejection sampling over the move disc),
* one ``N(I)`` radius query (k-d tree on the informed frontier),
* one batched lattice ``N(I)`` query (bit rows, 32 walker stacks),
* one ``N(I)`` dense-adjacency query,
* the exact stationary samplers of both models.
"""

from __future__ import annotations

from repro.bench import run_in_pytest


def test_bench_edge_meg_step(benchmark):
    run_in_pytest(benchmark, "micro/edge_meg_step")


def test_bench_edge_meg_stationary_reset(benchmark):
    run_in_pytest(benchmark, "micro/edge_meg_stationary_reset")


def test_bench_edge_meg_snapshot(benchmark):
    run_in_pytest(benchmark, "micro/edge_meg_snapshot")


def test_bench_geometric_step(benchmark):
    run_in_pytest(benchmark, "micro/geometric_step")


def test_bench_geometric_stationary_reset(benchmark):
    run_in_pytest(benchmark, "micro/geometric_stationary_reset")


def test_bench_radius_query(benchmark):
    run_in_pytest(benchmark, "micro/radius_query")


def test_bench_lattice_radius_query(benchmark):
    run_in_pytest(benchmark, "micro/lattice_radius_query")


def test_bench_dense_adjacency_query(benchmark):
    run_in_pytest(benchmark, "micro/dense_adjacency_query")
