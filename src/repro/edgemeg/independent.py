"""Time-independent dynamic random graphs: the ``q = 1 - p`` special case.

Setting ``q = 1 - p`` makes every edge chain memoryless: the graph at
each step is a fresh independent ``G(n, p)`` draw.  This is the dynamic
radio-network model of [Clementi et al., PODC'07] and the epidemic model
of reference [5]; the paper presents edge-MEGs as its strict
generalisation.

Two implementations:

* :class:`IndependentDynamicGraph` — a drop-in
  :class:`~repro.dynamics.base.EvolvingGraph` that redraws a dense
  ``G(n, p)`` per step.  Mathematically identical to
  ``EdgeMEG(n, p, 1 - p)`` (tested), but cheaper because it skips the
  state vector.
* :func:`flood_time_independent` — an ``O(T)``-memory, ``O(n)``-work
  fast path for flooding on this model: because the graph is fresh each
  step, each uninformed node becomes informed independently with
  probability ``1 - (1 - p)^{m_t}``, so the informed-count trajectory
  is a simple Markov chain on ``{1..n}`` that we sample with one
  binomial draw per step — the engine's edge-MEG count chain at
  ``q = 1 - p``.  This scales flooding experiments to millions of
  nodes.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.dynamics.base import EvolvingGraph
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.edgemeg.er import erdos_renyi_adjacency
from repro.edgemeg.kernels import edge_count_stay_log
from repro.edgemeg.meg import EdgeMEG
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import require, require_positive_int, require_probability

__all__ = ["IndependentMEG", "IndependentDynamicGraph", "flood_time_independent"]


class IndependentMEG(EdgeMEG):
    """The memoryless edge-MEG ``M(n, p, 1 - p)`` as an ``EdgeMEG`` subclass.

    With ``q = 1 - p`` every edge chain forgets its state, so each
    snapshot is an independent ``G(n, p)`` draw.  Unlike
    :class:`IndependentDynamicGraph` (a standalone implementation that
    redraws a dense adjacency and runs on the engine's generic path),
    this subclass keeps the ``EdgeMEG`` state layout, so the
    batched-kernel registry resolves it to the edge family's kernels and
    it rides the engine fast paths like its parent.
    """

    def __init__(self, n: int, p: float) -> None:
        p = require_probability(p, "p")
        super().__init__(n, p, 1.0 - p)


class IndependentDynamicGraph(EvolvingGraph):
    """Fresh ``G(n, p)`` at every time step (edge-MEG with ``q = 1 - p``)."""

    def __init__(self, n: int, p: float) -> None:
        self._n = require_positive_int(n, "n")
        require(self._n >= 2, "need n >= 2")
        self._p = require_probability(p, "p")
        self._rng = as_generator(None)
        self._adj: np.ndarray | None = None
        self._t = 0

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def p(self) -> float:
        """Per-step edge probability (= the stationary density ``p_hat``)."""
        return self._p

    def reset(self, seed: SeedLike = None) -> None:
        self._rng = as_generator(seed)
        self._adj = erdos_renyi_adjacency(self._n, self._p, seed=self._rng)
        self._t = 0

    def step(self) -> None:
        if self._adj is None:
            raise RuntimeError("call reset() before stepping")
        self._adj = erdos_renyi_adjacency(self._n, self._p, seed=self._rng)
        self._t += 1

    def snapshot(self) -> AdjacencySnapshot:
        if self._adj is None:
            raise RuntimeError("call reset() before snapshot()")
        return AdjacencySnapshot(self._adj, validate=False)

    @property
    def time(self) -> int:
        return self._t


def flood_time_independent(
    n: int,
    p: float,
    *,
    seed: SeedLike = None,
    initial_informed: int = 1,
    max_steps: int | None = None,
) -> tuple[int, np.ndarray]:
    """Flooding time on the time-independent model via the informed-count chain.

    Because snapshots are independent of the past *and* of the informed
    set, conditioned on ``m_t = m`` each of the ``n - m`` uninformed
    nodes is informed next step independently with probability
    ``1 - (1 - p)^m``.  We sample the trajectory directly::

        m_{t+1} = m_t + Binomial(n - m_t, 1 - (1 - p)^{m_t})

    Returns ``(T, history)`` where ``history[t] = m_t``; raises
    :class:`RuntimeError` on step-budget exhaustion.

    This is the edge-MEG count chain of the native engine
    (:func:`repro.engine.batch.count_chain` over
    :func:`~repro.edgemeg.kernels.edge_count_stay_log`) at ``q = 1 - p``,
    where ``p_hat = p`` makes the older/fresh split irrelevant; it is
    validated in tests against full simulation on
    :class:`IndependentDynamicGraph`.  One chain runs on Python scalars
    with the same stay law and the same binomial draws as a one-trial
    ``count_chain``, without its per-round array bookkeeping.
    """
    n = require_positive_int(n, "n")
    p = require_probability(p, "p", open_left=True)
    m0 = require_positive_int(initial_informed, "initial_informed")
    require(m0 <= n, "initial_informed must be <= n")
    budget = 4 * n + 64 if max_steps is None else require_positive_int(max_steps, "max_steps")

    stay_log = partial(edge_count_stay_log, p=p, p_hat=p)
    rng = as_generator(seed)
    history = [m0]
    older, m, t = 0, m0, 0
    while m < n and t < budget:
        hit = -np.expm1(stay_log(older, m - older))
        older, m = m, m + int(rng.binomial(n - m, hit))
        t += 1
        history.append(m)
    if m < n:
        raise RuntimeError(f"flooding did not complete within {budget} steps")
    return t, np.array(history, dtype=np.int64)
