"""``micro`` suite — the hot kernels every experiment is built on.

One model step / stationary reset / snapshot / ``N(I)`` query per
model family, plus complete flooding runs at representative sizes, and
the native geometric-MEG's lattice radius query and its batched kernel
hooks (one move step, one ``N(I)`` query of all trials) at perfbench
flood-geometric's shape.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bench.case import BenchCase, register
from repro.util.validation import require

SUITE = "micro"


def _completed(result) -> None:
    require(result.completed, "flooding did not complete")


def _flood_edge_meg():
    from repro.core.flooding import flood
    from repro.edgemeg.meg import EdgeMEG
    meg = EdgeMEG(1024, 0.02, 0.3)
    return lambda: flood(meg, 0, seed=0)


def _flood_geometric_meg():
    from repro.core.flooding import flood
    from repro.geometric.meg import GeometricMEG
    meg = GeometricMEG(4096, move_radius=1.0, radius=8.0)
    return lambda: flood(meg, 0, seed=0)


def _flood_independent():
    from repro.edgemeg.independent import flood_time_independent
    return lambda: flood_time_independent(1_000_000, 2e-5, seed=0)


def _edge_meg(n: int = 1024):
    from repro.edgemeg.meg import EdgeMEG
    return EdgeMEG(n, 0.05, 0.1)  # ~524k edge chains per step at n=1024


def _edge_step():
    meg = _edge_meg()
    meg.reset(seed=0)
    return meg.step


def _edge_stationary_reset():
    meg = _edge_meg()
    return lambda: meg.reset(0)


def _edge_snapshot():
    meg = _edge_meg()
    meg.reset(seed=0)
    return meg.snapshot


def _geometric_meg(n: int = 16384):
    from repro.geometric.meg import GeometricMEG
    return GeometricMEG(n, move_radius=2.0, radius=16.0)


def _geometric_step():
    meg = _geometric_meg()
    meg.reset(seed=0)
    return meg.step


def _geometric_stationary_reset():
    meg = _geometric_meg()
    return lambda: meg.reset(0)


def _radius_query():
    from repro.geometric.meg import GeometricSnapshot
    rng = np.random.default_rng(0)
    positions = rng.uniform(0, 128, size=(16384, 2))
    snap = GeometricSnapshot(positions, 8.0)
    members = rng.random(16384) < 0.1
    return lambda: snap.neighborhood_mask(members)


def _lattice_radius_query():
    from repro.geometric.meg import GeometricMEG
    from repro.geometric.neighbors import lattice_within_radius
    trials, n = 32, 1024
    meg = GeometricMEG(n, 1.0, 2 * math.sqrt(math.log(n)))
    lattice = meg.lattice
    rng = np.random.default_rng(0)
    ix, iy = lattice.sample_stationary_indices(trials * n, seed=rng)
    ix, iy = ix.reshape(trials, n), iy.reshape(trials, n)
    members = rng.random((trials, n)) < 0.1
    return lambda: lattice_within_radius(ix, iy, members, meg.radius,
                                         eps=lattice.eps,
                                         grid_size=lattice.grid_size)


def _geometric_batch(hook: str):
    """One native kernel hook over 32 stationary walker stacks at the
    perfbench flood-geometric shape: a move step of every trial, or an
    ``N(I)`` query of every trial at 10% members."""
    def setup():
        from repro.geometric.meg import GeometricMEG
        trials, n = 32, 1024
        meg = GeometricMEG(n, 1.0, 2 * math.sqrt(math.log(n)))
        kernel = meg.batched_dynamics()
        rng = np.random.default_rng(0)
        state = kernel.batch_init(trials, rng)
        if hook == "step":
            active = np.ones(trials, dtype=bool)
            return lambda: kernel.batch_step(state, rng, active)
        members = rng.random((trials, n)) < 0.1
        act = np.arange(trials)
        return lambda: kernel.batch_neighborhood(state, members, act)
    return setup


def _dense_adjacency_query():
    from repro.dynamics.snapshots import AdjacencySnapshot
    from repro.edgemeg.er import erdos_renyi_adjacency
    adj = erdos_renyi_adjacency(2048, 0.01, seed=0)
    snap = AdjacencySnapshot(adj, validate=False)
    rng = np.random.default_rng(1)
    members = rng.random(2048) < 0.1
    return lambda: snap.neighborhood_mask(members)


def _sparse_meg(n: int):
    from repro.edgemeg.sparse import SparseEdgeMEG
    p_hat = 3 * math.log(n) / n
    q = 0.5
    return SparseEdgeMEG(n, p_hat * q / (1 - p_hat), q)


def _sparse_step():
    meg = _sparse_meg(20_000)
    meg.reset(seed=0)
    return meg.step


def _sparse_stationary_reset():
    meg = _sparse_meg(20_000)
    return lambda: meg.reset(0)


def _sparse_snapshot():
    meg = _sparse_meg(20_000)
    meg.reset(seed=0)
    return meg.snapshot


def _sparse_flood():
    from repro.core.flooding import flood
    meg = _sparse_meg(8_000)
    return lambda: flood(meg, 0, seed=0)


def _obs_span_disabled():
    from repro.obs import trace

    def run():
        # The null sink only inside the run: a traced bench round's own
        # bench.case span must still close into its trace.
        previous = trace.configure(None)  # force the no-op fast path
        try:
            for _ in range(1000):
                with trace.span("bench.probe", i=1):
                    pass
        finally:
            trace.configure(previous)
    return run


def _obs_span_emit():
    from repro.obs import trace
    from repro.obs.sinks import MemorySink
    sink = MemorySink()

    def run():
        previous = trace.configure(sink)
        try:
            for _ in range(1000):
                with trace.span("bench.probe", i=1):
                    pass
        finally:
            trace.configure(previous if previous.live else None)
            sink.clear()
    return run


register(BenchCase(
    name="micro/flood_edge_meg", suite=SUITE, scale="n=1024",
    setup=_flood_edge_meg, check=_completed))
register(BenchCase(
    name="micro/flood_geometric_meg", suite=SUITE, scale="n=4096, R=8",
    setup=_flood_geometric_meg, check=_completed))
register(BenchCase(
    name="micro/flood_independent_fast_path", suite=SUITE, scale="n=10^6",
    setup=_flood_independent,
    check=lambda result: require(result[0] > 0, "flooding time must be > 0")))
register(BenchCase(
    name="micro/edge_meg_step", suite=SUITE, scale="n=1024 (~524k chains)",
    setup=_edge_step))
register(BenchCase(
    name="micro/edge_meg_stationary_reset", suite=SUITE, scale="n=1024",
    setup=_edge_stationary_reset))
register(BenchCase(
    name="micro/edge_meg_snapshot", suite=SUITE, scale="n=1024",
    setup=_edge_snapshot))
register(BenchCase(
    name="micro/geometric_step", suite=SUITE, scale="n=16384",
    setup=_geometric_step))
register(BenchCase(
    name="micro/geometric_stationary_reset", suite=SUITE, scale="n=16384",
    setup=_geometric_stationary_reset))
register(BenchCase(
    name="micro/radius_query", suite=SUITE, scale="n=16384, |I|~10%",
    setup=_radius_query))
register(BenchCase(
    name="micro/lattice_radius_query", suite=SUITE,
    scale="32 trials, n=1024, g=33, R=2sqrt(ln n), |I|~10%",
    setup=_lattice_radius_query))
register(BenchCase(
    name="micro/geometric_batch_step", suite=SUITE,
    scale="32 trials, n=1024, g=33, r=1",
    setup=_geometric_batch("step")))
register(BenchCase(
    name="micro/geometric_batch_neighborhood", suite=SUITE,
    scale="32 trials, n=1024, g=33, R=2sqrt(ln n), |I|~10%",
    setup=_geometric_batch("neighborhood")))
register(BenchCase(
    name="micro/dense_adjacency_query", suite=SUITE, scale="n=2048, |I|~10%",
    setup=_dense_adjacency_query))
register(BenchCase(
    name="micro/sparse_step", suite=SUITE, scale="n=20000",
    setup=_sparse_step))
register(BenchCase(
    name="micro/sparse_stationary_reset", suite=SUITE, scale="n=20000",
    setup=_sparse_stationary_reset))
register(BenchCase(
    name="micro/sparse_snapshot", suite=SUITE, scale="n=20000",
    setup=_sparse_snapshot))
register(BenchCase(
    name="micro/sparse_flood", suite=SUITE, scale="n=8000",
    setup=_sparse_flood, check=_completed))
# µs-scale span costs jitter hard across hosts: gate only on
# order-of-magnitude blowups (an accidental allocation or sink dispatch
# on the disabled path).
register(BenchCase(
    name="micro/obs_span_disabled", suite=SUITE, scale="1000 no-op spans",
    setup=_obs_span_disabled, tolerance=8.0))
register(BenchCase(
    name="micro/obs_span_emit", suite=SUITE,
    scale="1000 spans, memory sink", setup=_obs_span_emit, tolerance=8.0))
