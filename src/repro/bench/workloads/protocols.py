"""``protocols`` suite — vectorised transmission vs the per-node rule.

Port of ``benchmarks/test_bench_protocols.py``: push–pull gossip on the
classical static rumor-spreading substrate (where the round cost *is*
the transmission rule) with a per-node transmission rule run trial by
trial through the serial :func:`~repro.protocols.runner.spread` loop as
the reference, the evolving sparse edge-MEG context pair (model churn
dominates, so the floor is only "never materially slower"), and the
mask-composed native p-flood tracking case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.bench.case import BenchCase, register
from repro.protocols.base import SpreadingProtocol
from repro.util.validation import require

SUITE = "protocols"

#: Batched push-pull over the per-trial path on the static substrate.
STATIC_FLOOR = 3.0
#: On an evolving MEG the margin narrows; batched must never be
#: materially slower than per-trial (the old 1.25x slack, inverted).
EVOLVING_FLOOR = 0.8

SEED = 20090525


@functools.lru_cache(maxsize=None)
def make_static_substrate(n: int = 2048, degree: int = 16):
    """A fixed sparse ER-style graph (mean degree *degree*) as an
    evolving graph — the classical rumor-spreading setting.  Cached so
    the per-trial and batched cases compare on the **same** substrate
    (and its lazily built CSR), exactly as the pre-harness acceptance
    test did; the spreading runners reseed per trial, so sharing is
    deterministic."""
    from repro.dynamics.sequence import StaticEvolvingGraph
    from repro.dynamics.snapshots import EdgeListSnapshot
    rng = np.random.default_rng(SEED)
    wanted = n * degree // 2
    edges: set[tuple[int, int]] = set()
    while len(edges) < wanted:
        u, v = (int(x) for x in rng.integers(n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return StaticEvolvingGraph(EdgeListSnapshot(n, np.array(sorted(edges))))


@functools.lru_cache(maxsize=None)
def make_sparse_meg(n: int):
    from repro.edgemeg.sparse import SparseEdgeMEG
    p_hat = min(0.5, 6.0 * math.log(n) / n)
    return SparseEdgeMEG(n, p_hat * 0.5 / (1.0 - p_hat), 0.5)


def _check_completed(results) -> None:
    require(all(r.completed for r in results), "every trial must complete")


@dataclass(frozen=True)
class PerNodePushPull(SpreadingProtocol):
    """Push–pull with its transmission rule written node by node: ~2n
    ``neighbors_of`` calls and scalar draws per round, the cost the
    vectorised :class:`~repro.protocols.zoo.PushPullGossip` rule
    removes.  A timing reference only; it draws differently."""

    name: ClassVar[str] = "push-pull"

    def transmit(self, snapshot, informed, active, rng):
        fresh = np.zeros(informed.shape[0], dtype=bool)
        for u in range(informed.shape[0]):
            nbrs = snapshot.neighbors_of(u)
            if nbrs.size:
                v = int(nbrs[rng.integers(nbrs.size)])
                if informed[u]:
                    fresh[v] = True
                elif informed[v]:
                    fresh[u] = True
        return fresh & ~informed


def _per_trial_setup(make_graph, trials: int):
    def setup():
        from repro.protocols import spreading_trials
        graph = make_graph()
        return lambda: spreading_trials(PerNodePushPull(), graph,
                                        trials=trials, seed=SEED)
    return setup


def _batched_setup(make_graph, trials: int, protocol=None, **kwargs):
    def setup():
        from repro.protocols import PushPullGossip, spreading_trials
        graph = make_graph()
        proto = protocol() if protocol is not None else PushPullGossip()
        return lambda: spreading_trials(proto, graph, trials=trials,
                                        seed=SEED, backend="batched",
                                        **kwargs)
    return setup


register(BenchCase(
    name="protocols/push_pull_per_trial", suite=SUITE,
    scale="static n=2048, deg 16, 16 trials",
    setup=_per_trial_setup(make_static_substrate, 16), rounds=1,
    check=_check_completed))
register(BenchCase(
    name="protocols/push_pull_batched", suite=SUITE,
    scale="static n=2048, deg 16, 16 trials",
    setup=_batched_setup(make_static_substrate, 16), rounds=3,
    ref="protocols/push_pull_per_trial", floor=STATIC_FLOOR,
    check=_check_completed))
register(BenchCase(
    name="protocols/push_pull_meg_per_trial", suite=SUITE,
    scale="SparseEdgeMEG n=512, 8 trials",
    setup=_per_trial_setup(lambda: make_sparse_meg(512), 8), rounds=1,
    check=_check_completed))
register(BenchCase(
    name="protocols/push_pull_meg_batched", suite=SUITE,
    scale="SparseEdgeMEG n=512, 8 trials",
    setup=_batched_setup(lambda: make_sparse_meg(512), 8), rounds=2,
    ref="protocols/push_pull_meg_per_trial", floor=EVOLVING_FLOOR,
    check=_check_completed))
register(BenchCase(
    name="protocols/push_pull_batched_small", suite=SUITE,
    scale="static n=512, deg 12, 8 trials",
    setup=_batched_setup(lambda: make_static_substrate(512, 12), 8),
    check=_check_completed))


def _p_flood_native():
    from repro.protocols import ProbabilisticFlooding, spreading_trials
    meg = make_sparse_meg(256)
    return lambda: spreading_trials(
        ProbabilisticFlooding(0.5), meg, trials=16, seed=SEED,
        backend="batched", rng_mode="native")


register(BenchCase(
    name="protocols/p_flood_native_composed", suite=SUITE,
    scale="SparseEdgeMEG n=256, 16 trials",
    setup=_p_flood_native, check=_check_completed))
