"""Batched flooding kernels of the edge-MEG family.

This module implements the :class:`~repro.dynamics.batched.BatchedDynamics`
protocol for :class:`~repro.edgemeg.meg.EdgeMEG` and
:class:`~repro.edgemeg.sparse.SparseEdgeMEG` (and, through their
inherited ``batched_dynamics`` methods, their plain subclasses such as
:class:`~repro.edgemeg.er.ErMEG` and
:class:`~repro.edgemeg.independent.IndependentMEG`):

* **replay** — the exact ``N(I)`` query straight off each model's own
  edge state: two segmented ``logical_or.reduceat`` sweeps over the flat
  upper-triangle vector (dense), or two gathers plus a scatter over the
  alive pair codes (sparse).  Pure boolean arithmetic, bit-identical to
  the snapshot path.
* **native** — both classes simulate the same per-edge two-state chain,
  so they share one churn kernel: sparse regimes keep the alive edges of
  all trials in flat arrays plus a presence bitmap (``O(alive + births)``
  work per step), dense regimes batch one ``(B, P)`` uniform draw per
  step.  Exact process law either way — stationary initial states,
  per-edge chains — drawn from the engine's chunk generator.
* **count law** — for flooding, the churn kernel is not needed at all:
  an uninformed node stays uninformed with probability
  ``(1-p)^|I_{t-1}| (1-p_hat)^|I_t \\ I_{t-1}|`` (pairs to older
  informed nodes were just seen absent, pairs to newly informed ones
  are still stationary), independently across nodes, so the engine
  runs native flooding as a two-count chain (:func:`edge_count_stay_log`).

Subclass gating (in ``EdgeMEG.batched_dynamics`` and
``SparseEdgeMEG.batched_dynamics``): these providers serve any subclass
that inherits ``snapshot`` (the edge state stays authoritative, so the
replay query is exact), and the native kernels additionally require
un-overridden ``reset``/``step`` (they re-implement exactly those
semantics).
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.batched import BatchedDynamics
from repro.edgemeg.meg import EdgeMEG, _triu_cache
from repro.edgemeg.sparse import SparseEdgeMEG, decode_pairs
from repro.util.validation import require

__all__ = [
    "batched_triu_neighborhood",
    "edge_count_stay_log",
    "EdgeBatchedDynamics",
    "SparseEdgeBatchedDynamics",
]

#: Above this stationary density the sparse churn kernel loses to the
#: dense one (rejection sampling acceptance degrades and the alive set
#: is a large fraction of all pairs anyway).
_SPARSE_DENSITY_LIMIT = 0.25


# ---------------------------------------------------------------------------
# batched neighborhood query
# ---------------------------------------------------------------------------

def batched_triu_neighborhood(states: np.ndarray, informed: np.ndarray,
                              ) -> np.ndarray:
    """``N(I)`` for B graphs at once, from flat edge-state vectors.

    Parameters
    ----------
    states:
        ``(B, P)`` boolean edge states aligned with
        ``numpy.triu_indices(n, 1)`` (the :class:`EdgeMEG` layout).
    informed:
        ``(B, n)`` boolean informed masks.

    Returns
    -------
    numpy.ndarray
        ``(B, n)`` boolean masks of nodes outside ``I`` adjacent to
        ``I`` — exactly :meth:`AdjacencySnapshot.neighborhood_mask`
        per row, computed without materialising adjacency matrices.
        Pure boolean arithmetic: bit-identical to the snapshot path.
    """
    b, num_pairs = states.shape
    n = informed.shape[1]
    cache = _triu_cache(n)
    require(num_pairs == cache.num_pairs, "states width must be n(n-1)/2")
    iu0, iu1 = cache.iu
    pad = np.zeros((b, 1), dtype=bool)
    # Node u is reached through a present pair (u, v) with v informed.
    edge_hits = np.concatenate([states & informed[:, iu1], pad], axis=1)
    reach = np.logical_or.reduceat(edge_hits, cache.row_starts, axis=1)
    # Node v is reached through a present pair (u, v) with u informed.
    edge_hits = states & informed[:, iu0]
    edge_hits = np.concatenate([edge_hits[:, cache.col_perm], pad], axis=1)
    reach_v = np.logical_or.reduceat(edge_hits, cache.col_starts, axis=1)
    reach_v[:, 0] = False  # column group v=0 is empty; reduceat can't see that
    reach |= reach_v
    reach &= ~informed
    return reach


# ---------------------------------------------------------------------------
# count law of flooding
# ---------------------------------------------------------------------------

def _log1m(x: float) -> float:
    """``log(1 - x)``, with ``-inf`` at ``x = 1``."""
    return -np.inf if x >= 1.0 else np.log1p(-x)


def _times_log(k: np.ndarray, log1m: float) -> np.ndarray:
    """``k * log1m`` for ``log1m = log(1 - x)``, with the exact ``x = 1``
    limit: ``0`` where ``k = 0`` (an empty product), ``-inf`` elsewhere."""
    k = np.asarray(k, dtype=np.float64)
    if log1m == -np.inf:
        return np.where(k > 0, -np.inf, 0.0)
    return k * log1m


def edge_count_stay_log(older: np.ndarray, fresh: np.ndarray,
                        p: float, p_hat: float) -> np.ndarray:
    """``log((1-p)^older (1-p_hat)^fresh)``: the log-probability that an
    uninformed node of ``M(n, p, q)`` stays uninformed this round, given
    ``older = |I_{t-1}|`` and ``fresh = |I_t \\ I_{t-1}|``.

    Its pairs to ``I_{t-1}`` were absent last round (else it would be
    informed), so each is present now with probability ``p``; its pairs
    to the newly informed nodes were never observed, so each is present
    with the stationary ``p_hat``.  Exact at ``p = 1`` or ``p_hat = 1``.
    """
    return _times_log(older, _log1m(p)) + _times_log(fresh, _log1m(p_hat))


# ---------------------------------------------------------------------------
# native churn kernel shared by the dense and sparse edge-MEGs
# ---------------------------------------------------------------------------

def _sample_absent_pairs(rng: np.random.Generator, presence: np.ndarray,
                         need: np.ndarray, num_pairs: int) -> np.ndarray:
    """Distinct uniform pair codes outside each trial's alive set.

    ``need[b]`` codes are sampled for trial ``b`` against the flat
    ``(B * P,)`` *presence* bitmap (which is updated in place as codes
    are accepted).  Exact-deficit rejection rounds: every round draws
    precisely the missing count per trial and keeps the distinct
    non-colliding values, so no biased trimming is ever needed.

    Returns the accepted flat keys (``trial * P + code``) in acceptance
    order — sorted within each rejection round, not globally.
    """
    have = np.zeros(need.shape[0], dtype=np.int64)
    parts = []
    while True:
        deficit = need - have
        todo = np.flatnonzero(deficit > 0)
        if todo.size == 0:
            break
        per = deficit[todo]
        cand = rng.integers(0, num_pairs, size=int(per.sum()))
        cand += np.repeat(todo * num_pairs, per)
        cand = cand[~presence[cand]]
        if cand.size:
            cand = np.sort(cand)
            first = np.ones(cand.size, dtype=bool)
            first[1:] = cand[1:] != cand[:-1]
            cand = cand[first]
            presence[cand] = True
            have += np.bincount(cand // num_pairs, minlength=need.shape[0])
            parts.append(cand)
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


class _EdgeState:
    """Mutable native-kernel state of one chunk of edge-MEG trials.

    Dense regime: ``states`` is the ``(B, P)`` edge-state matrix.
    Sparse regime: alive edges of all trials live in flat arrays —
    ``key`` (``trial * P + code``), ``tid`` (owning trial), ``gu``/``gv``
    (flat informed-matrix indices of the endpoints) — plus the
    ``presence`` bitmap the rejection sampler checks against.
    """

    __slots__ = ("dense", "states", "presence", "key", "tid", "gu", "gv")


class _EdgeFamilyKernel(BatchedDynamics):
    """Native churn kernel shared by dense and sparse edge-MEGs.

    Both classes realise the same process — independent per-edge
    two-state chains with stationary initial states — so one kernel
    serves both; only the replay-side ``N(I)`` query (implemented by the
    subclasses below) differs with the representation.
    """

    def __init__(self, template, *, native: bool) -> None:
        super().__init__(template)
        self.native_capable = self.count_law = native
        self._n = template.num_nodes
        self._p = template.p
        self._q = template.q
        self._p_hat = template.p_hat
        self._num_pairs = self._n * (self._n - 1) // 2
        self._log1m_p = _log1m(self._p)
        self._log1m_p_hat = _log1m(self._p_hat)

    def count_stay_log(self, older: np.ndarray,
                       fresh: np.ndarray) -> np.ndarray:
        # edge_count_stay_log with both logarithms taken once per chunk.
        return (_times_log(older, self._log1m_p)
                + _times_log(fresh, self._log1m_p_hat))

    # -- native kernels -----------------------------------------------------

    def batch_init(self, count: int, rng: np.random.Generator) -> _EdgeState:
        n, num_pairs = self._n, self._num_pairs
        state = _EdgeState()
        state.dense = (self._p_hat > _SPARSE_DENSITY_LIMIT
                       or self._p > _SPARSE_DENSITY_LIMIT)
        if state.dense:
            state.states = rng.random((count, num_pairs)) < self._p_hat
            return state
        state.presence = np.zeros(count * num_pairs, dtype=bool)
        need = rng.binomial(num_pairs, self._p_hat, size=count)
        key = _sample_absent_pairs(rng, state.presence, need, num_pairs)
        tid = key // num_pairs
        code = key - tid * num_pairs
        eu, ev = decode_pairs(code, n)
        state.key, state.tid = key, tid
        state.gu, state.gv = tid * n + eu, tid * n + ev
        return state

    def batch_neighborhood(self, state: _EdgeState, informed: np.ndarray,
                           act: np.ndarray) -> np.ndarray:
        if state.dense:
            return batched_triu_neighborhood(state.states[act], informed[act])
        count, n = informed.shape
        flat = informed.ravel()
        fu = flat[state.gu]
        fv = flat[state.gv]
        fresh_flat = np.zeros(count * n, dtype=bool)
        fresh_flat[state.gv[fu & ~fv]] = True
        fresh_flat[state.gu[fv & ~fu]] = True
        return fresh_flat.reshape(count, n)[act]

    def batch_step(self, state: _EdgeState, rng: np.random.Generator,
                   active: np.ndarray) -> None:
        num_pairs = self._num_pairs
        if state.dense:
            act = np.flatnonzero(active)
            u = rng.random((act.shape[0], num_pairs))
            state.states[act] = np.where(state.states[act],
                                         u >= self._q, u < self._p)
            return
        # Births exclude the pre-death alive set (each pair is an
        # independent two-state chain: a pair alive at time t cannot
        # be (re)born into time t+1, it can only survive).
        count = active.shape[0]
        alive_per = np.bincount(state.tid, minlength=count)
        births = rng.binomial(np.maximum(num_pairs - alive_per, 0), self._p)
        births[~active] = 0
        born = _sample_absent_pairs(rng, state.presence, births, num_pairs)
        if state.key.size:
            survive = rng.random(state.key.size) >= self._q
            state.presence[state.key[~survive]] = False
            state.key = state.key[survive]
            state.tid = state.tid[survive]
            state.gu = state.gu[survive]
            state.gv = state.gv[survive]
        if born.size:
            btid = born // num_pairs
            bcode = born - btid * num_pairs
            bu, bv = decode_pairs(bcode, self._n)
            state.key = np.concatenate([state.key, born])
            state.tid = np.concatenate([state.tid, btid])
            state.gu = np.concatenate([state.gu, btid * self._n + bu])
            state.gv = np.concatenate([state.gv, btid * self._n + bv])

    def batch_retire(self, state: _EdgeState, active: np.ndarray) -> None:
        if state.dense:
            return
        keep = active[state.tid]
        state.presence[state.key[~keep]] = False
        state.key = state.key[keep]
        state.tid = state.tid[keep]
        state.gu = state.gu[keep]
        state.gv = state.gv[keep]


class EdgeBatchedDynamics(_EdgeFamilyKernel):
    """Kernels for :class:`EdgeMEG` (flat upper-triangle edge states)."""

    def replay_neighborhood(self, model: EdgeMEG,
                            informed: np.ndarray) -> np.ndarray:
        # Row-at-a-time keeps the working set inside the cache; a
        # (B, P) stack measures slower than B single-row sweeps.
        return batched_triu_neighborhood(model._states[None],
                                         informed[None])[0]


class SparseEdgeBatchedDynamics(_EdgeFamilyKernel):
    """Kernels for :class:`SparseEdgeMEG` (sorted alive pair codes)."""

    def replay_neighborhood(self, model: SparseEdgeMEG,
                            informed: np.ndarray) -> np.ndarray:
        n = self._n
        u, v = decode_pairs(model._alive, n)
        mask = np.zeros(n, dtype=bool)
        mask[v[informed[u]]] = True
        mask[u[informed[v]]] = True
        return mask & ~informed

