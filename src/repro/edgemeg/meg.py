"""Edge-Markovian evolving graphs ``M(n, p, q)`` (Section 4).

Every unordered pair ``e`` of the ``n`` nodes carries an independent
two-state Markov chain with birth-rate ``p`` and death-rate ``q``
(:class:`~repro.markov.two_state.TwoStateChain`).  The stationary
distribution of the whole process is Erdős–Rényi ``G(n, p_hat)`` with
``p_hat = p / (p + q)``.

Implementation: the ``n (n-1) / 2`` edge states live in a flat boolean
vector aligned with ``numpy.triu_indices``; one step costs one uniform
draw per potential edge and a vectorised select — no Python-level loop.
Snapshots materialise a dense symmetric adjacency matrix, so memory is
``O(n^2)`` (fine for the dense regimes the paper analyses at laptop
scale; the memoryless special case ``q = 1 - p`` has an ``O(n)``
fast path in :mod:`repro.edgemeg.independent`).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.dynamics.base import EvolvingGraph
from repro.dynamics.batched import BatchedDynamics, uses_inherited
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.markov.two_state import TwoStateChain
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import require, require_positive_int

__all__ = ["EdgeMEG"]


class _TriuCache:
    """The strict upper triangle of an ``n``-node graph: its pair index
    ``numpy.triu_indices(n, 1)`` (row-major, the :class:`EdgeMEG`
    edge-state layout) and, built on first use by the batched ``N(I)``
    query of :mod:`repro.edgemeg.kernels`, its segment offsets grouped
    by row ``u`` and by column ``v``."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.iu = np.triu_indices(n, k=1)
        self.num_pairs = self.iu[0].shape[0]

    @cached_property
    def row_starts(self) -> np.ndarray:
        # Row u holds the n-1-u pairs (u, u+1..n-1); the last row (u=n-1)
        # is empty and its start index equals P, which the padded-column
        # trick in batched_triu_neighborhood resolves to False.
        counts_u = (self.n - 1) - np.arange(self.n, dtype=np.int64)
        return np.concatenate(([0], np.cumsum(counts_u)))[:self.n]

    @cached_property
    def col_perm(self) -> np.ndarray:
        return np.argsort(self.iu[1], kind="stable")

    @cached_property
    def col_starts(self) -> np.ndarray:
        # Column v holds the v pairs (0..v-1, v); v=0 is empty (fixed up
        # explicitly after the reduceat).
        counts_v = np.bincount(self.iu[1], minlength=self.n)
        return np.concatenate(([0], np.cumsum(counts_v)))[:self.n]


_TRIU_CACHES: dict[int, _TriuCache] = {}

#: Each entry holds up to four int64 arrays of length n(n-1)/2; a small
#: LRU bound keeps a size sweep from pinning gigabytes after it finishes.
_TRIU_CACHE_LIMIT = 8


def _triu_cache(n: int) -> _TriuCache:
    cache = _TRIU_CACHES.pop(n, None)
    if cache is None:
        cache = _TriuCache(n)
        while len(_TRIU_CACHES) >= _TRIU_CACHE_LIMIT:
            _TRIU_CACHES.pop(next(iter(_TRIU_CACHES)))
    _TRIU_CACHES[n] = cache  # reinsert: dict order doubles as LRU order
    return cache


class EdgeMEG(EvolvingGraph):
    """The edge-MEG ``M(n, p, q)``.

    Parameters
    ----------
    n:
        Number of nodes (``n >= 2``).
    p:
        Birth-rate: an absent edge appears next step with probability ``p``.
    q:
        Death-rate: a present edge disappears next step with probability ``q``.

    Examples
    --------
    >>> meg = EdgeMEG(n=16, p=0.3, q=0.1)
    >>> round(meg.p_hat, 3)
    0.75
    >>> meg.reset(seed=1)
    >>> meg.snapshot().num_nodes
    16
    """

    def __init__(self, n: int, p: float, q: float) -> None:
        self._n = require_positive_int(n, "n")
        require(self._n >= 2, "an edge-MEG needs n >= 2")
        self.chain = TwoStateChain(p=p, q=q)
        self._num_pairs = self._n * (self._n - 1) // 2
        self._states = np.zeros(0, dtype=bool)  # sized by the first reset
        self._rng = as_generator(None)
        self._t = 0
        self._initialized = False

    @property
    def _iu(self) -> tuple[np.ndarray, np.ndarray]:
        # The upper-triangle index pair is a function of n alone: one
        # shared, LRU-bounded copy per n, built on first use, so
        # construction, deep copies and the engine's count tier never
        # pay its O(num_pairs) memory.
        return _triu_cache(self._n).iu

    # -- basic properties ---------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def p(self) -> float:
        """Birth-rate."""
        return self.chain.p

    @property
    def q(self) -> float:
        """Death-rate."""
        return self.chain.q

    @property
    def p_hat(self) -> float:
        """Stationary edge density ``p / (p + q)``."""
        return self.chain.p_hat

    @property
    def num_pairs(self) -> int:
        """Number of potential edges ``n (n - 1) / 2``."""
        return self._num_pairs

    @property
    def time(self) -> int:
        return self._t

    # -- initialisation -----------------------------------------------------

    def reset(self, seed: SeedLike = None) -> None:
        """Stationary start: one exact ``G(n, p_hat)`` draw."""
        self._rng = as_generator(seed)
        self._states = self._rng.random(self._num_pairs) < self.p_hat
        self._t = 0
        self._initialized = True

    def reset_empty(self, seed: SeedLike = None) -> None:
        """Worst-case start of the PODC'08 analysis: ``G_0`` has no edges."""
        self._rng = as_generator(seed)
        self._states = np.zeros(self._num_pairs, dtype=bool)
        self._t = 0
        self._initialized = True

    def reset_full(self, seed: SeedLike = None) -> None:
        """Start from the complete graph."""
        self._rng = as_generator(seed)
        self._states = np.ones(self._num_pairs, dtype=bool)
        self._t = 0
        self._initialized = True

    def reset_at(self, adjacency: np.ndarray, *, seed: SeedLike = None) -> None:
        """Start from an arbitrary initial graph (adversarial experiments)."""
        adjacency = np.asarray(adjacency, dtype=bool)
        require(adjacency.shape == (self._n, self._n), "adjacency must be (n, n)")
        require(bool((adjacency == adjacency.T).all()), "adjacency must be symmetric")
        require(not adjacency.diagonal().any(), "adjacency must have a zero diagonal")
        self._rng = as_generator(seed)
        self._states = adjacency[self._iu].copy()
        self._t = 0
        self._initialized = True

    # -- dynamics -----------------------------------------------------------

    def step(self) -> None:
        if not self._initialized:
            raise RuntimeError("call reset() before stepping")
        self.chain.step_states(self._states, seed=self._rng, out=self._states)
        self._t += 1

    def snapshot(self) -> AdjacencySnapshot:
        if not self._initialized:
            raise RuntimeError("call reset() before snapshot()")
        adj = np.zeros((self._n, self._n), dtype=bool)
        adj[self._iu] = self._states
        adj |= adj.T
        return AdjacencySnapshot(adj, validate=False)

    def batched_dynamics(self) -> BatchedDynamics:
        from repro.edgemeg.kernels import EdgeBatchedDynamics

        if not uses_inherited(self, EdgeMEG, "snapshot"):
            return super().batched_dynamics()  # edge state may be stale
        return EdgeBatchedDynamics(
            self, native=uses_inherited(self, EdgeMEG, "reset", "step"))

    # -- inspection ---------------------------------------------------------

    @property
    def edge_states(self) -> np.ndarray:
        """Current flat edge-state vector (copy), aligned with
        ``numpy.triu_indices(n, 1)``."""
        return self._states.copy()

    def edge_density(self) -> float:
        """Fraction of potential edges currently present."""
        return float(self._states.mean())
