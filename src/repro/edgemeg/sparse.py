"""Sparse edge-MEG: ``M(n, p, q)`` at large ``n`` for sparse densities.

The dense engine (:class:`repro.edgemeg.meg.EdgeMEG`) draws one uniform
per potential edge per step — ``Theta(n^2)`` work and memory, fine up to
a few thousand nodes.  In the paper's interesting regimes, however, the
graph is *sparse*: ``p_hat ~ c log n / n`` means only ``~ c n log n / 2``
of the ``n(n-1)/2`` pairs exist.  This module simulates the identical
process in ``O(m)`` memory and ``O(m + births)`` expected work per step,
where ``m`` is the number of alive edges:

* alive edges are kept as a sorted array of *pair codes* (the linear
  index of the strict upper triangle);
* deaths: each alive edge survives with probability ``1 - q`` — one
  uniform per alive edge;
* births: the number of new edges is ``Binomial(M - m, p)`` (``M`` =
  total pairs), placed uniformly among the absent pairs by rejection
  sampling against the sorted alive array — acceptance is ``1 - m/M``,
  essentially 1 for sparse graphs.

Per-edge dynamics are exactly the two-state chain of Section 4, so the
process is *distributionally identical* to the dense engine (verified
in tests); only the representation differs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dynamics.base import EvolvingGraph
from repro.dynamics.batched import BatchedDynamics, uses_inherited
from repro.dynamics.snapshots import EdgeListSnapshot
from repro.markov.two_state import TwoStateChain
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import require, require_positive_int

__all__ = ["SparseEdgeMEG", "encode_pairs", "decode_pairs", "num_pairs"]


def num_pairs(n: int) -> int:
    """Total number of unordered pairs ``M = n (n - 1) / 2``."""
    n = require_positive_int(n, "n")
    return n * (n - 1) // 2


def encode_pairs(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Map pairs ``u < v`` to their strict-upper-triangle linear index.

    Row-major over rows ``u``: code = ``u*(2n - u - 1)/2 + (v - u - 1)``.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    require(bool((u < v).all()), "pairs must satisfy u < v")
    require(bool((u >= 0).all() and (v < n).all()), "pair endpoints out of range")
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def decode_pairs(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_pairs` (vectorised, exact).

    Solves the row quadratic in floating point, then corrects the
    (rare) off-by-one from rounding with an exact integer check.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size == 0:
        return codes.copy(), codes.copy()
    b = 2 * n - 1
    # Float solve: u = floor((b - sqrt(b^2 - 8 code)) / 2).
    u = ((b - np.sqrt(b * b - 8.0 * codes.astype(np.float64))) / 2.0).astype(np.int64)
    # Exact correction: row_start(u) = u(2n-u-1)/2 must satisfy
    # row_start(u) <= code < row_start(u+1).
    for _ in range(2):  # at most one step in each direction is ever needed
        row_start = u * (2 * n - u - 1) // 2
        u = np.where(row_start > codes, u - 1, u)
        row_start = u * (2 * n - u - 1) // 2
        next_start = (u + 1) * (2 * n - u - 2) // 2
        u = np.where(codes >= next_start, u + 1, u)
    row_start = u * (2 * n - u - 1) // 2
    v = codes - row_start + u + 1
    return u, v


class SparseEdgeMEG(EvolvingGraph):
    """Sparse-representation edge-MEG, exact in distribution.

    Parameters
    ----------
    n:
        Number of nodes (``n >= 2``); comfortably supports ``n ~ 10^5``
        at sparse densities.
    p, q:
        Birth- and death-rates of the per-edge two-state chain.

    Notes
    -----
    Work per step is proportional to the number of alive edges plus
    births, so very *dense* parameterisations (``p_hat`` close to 1)
    should use the dense engine instead; a warning threshold is not
    enforced, the class stays exact either way.
    """

    def __init__(self, n: int, p: float, q: float) -> None:
        self._n = require_positive_int(n, "n")
        require(self._n >= 2, "an edge-MEG needs n >= 2")
        self.chain = TwoStateChain(p=p, q=q)
        self._total = num_pairs(self._n)
        self._alive = np.empty(0, dtype=np.int64)  # sorted pair codes
        self._rng = as_generator(None)
        self._t = 0
        self._initialized = False

    # -- properties -----------------------------------------------------

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
        """Stationary edge density."""
        return self.chain.p_hat

    @property
    def num_alive(self) -> int:
        """Number of currently alive edges."""
        return int(self._alive.size)

    @property
    def time(self) -> int:
        return self._t

    # -- sampling helpers -------------------------------------------------

    def _sample_distinct_codes(self, count: int, *, exclude: np.ndarray) -> np.ndarray:
        """*count* distinct codes uniform over ``[0, M) \\ exclude``.

        Rejection sampling against the sorted *exclude* array; expected
        rounds ``O(1)`` while ``count + |exclude| << M``.
        """
        if count == 0:
            return np.empty(0, dtype=np.int64)
        available = self._total - exclude.size
        require(count <= available, "not enough absent pairs to sample")
        if count == available:
            # Degenerate: take everything not excluded.
            mask = np.ones(self._total, dtype=bool)
            mask[exclude] = False
            return np.flatnonzero(mask).astype(np.int64)
        chosen = np.empty(0, dtype=np.int64)
        while chosen.size < count:
            need = count - chosen.size
            # Oversample slightly to absorb rejections and duplicates.
            draw = self._rng.integers(0, self._total,
                                      size=max(16, int(need * 1.2) + 8))
            draw = draw[np.searchsorted(exclude, draw) ==
                        np.searchsorted(exclude, draw, side="right")]
            chosen = np.unique(np.concatenate([chosen, draw]))
        if chosen.size > count:
            chosen = self._rng.permutation(chosen)[:count]
        return np.sort(chosen)

    # -- initialisation ---------------------------------------------------

    def reset(self, seed: SeedLike = None) -> None:
        """Stationary start: ``Binomial(M, p_hat)`` edges uniform over pairs."""
        self._rng = as_generator(seed)
        count = int(self._rng.binomial(self._total, self.p_hat))
        self._alive = self._sample_distinct_codes(count,
                                                  exclude=np.empty(0, dtype=np.int64))
        self._t = 0
        self._initialized = True

    def reset_empty(self, seed: SeedLike = None) -> None:
        """Worst-case start: no edges."""
        self._rng = as_generator(seed)
        self._alive = np.empty(0, dtype=np.int64)
        self._t = 0
        self._initialized = True

    def reset_at_edges(self, edges: np.ndarray, *, seed: SeedLike = None) -> None:
        """Start from an explicit ``(m, 2)`` edge list (``u < v`` rows)."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self._rng = as_generator(seed)
        if edges.size:
            codes = encode_pairs(edges[:, 0], edges[:, 1], self._n)
            codes = np.sort(codes)
            require(bool((np.diff(codes) > 0).all()), "duplicate edges")
            self._alive = codes
        else:
            self._alive = np.empty(0, dtype=np.int64)
        self._t = 0
        self._initialized = True

    # -- dynamics -----------------------------------------------------------

    def step(self) -> None:
        if not self._initialized:
            raise RuntimeError("call reset() before stepping")
        # Deaths: each alive edge dies independently with probability q.
        if self._alive.size:
            survivors = self._alive[self._rng.random(self._alive.size) >= self.q]
        else:
            survivors = self._alive
        # Births: Binomial(M - m_alive_before, p) new edges, uniform over
        # the pairs that were absent *before* the step (the per-edge chain
        # updates all edges simultaneously from the time-t state).
        absent = self._total - self._alive.size
        births = int(self._rng.binomial(absent, self.p)) if absent > 0 else 0
        if births:
            born = self._sample_distinct_codes(births, exclude=self._alive)
            self._alive = np.sort(np.concatenate([survivors, born]))
        else:
            self._alive = survivors
        self._t += 1

    def snapshot(self) -> EdgeListSnapshot:
        if not self._initialized:
            raise RuntimeError("call reset() before snapshot()")
        u, v = decode_pairs(self._alive, self._n)
        return EdgeListSnapshot(self._n, np.column_stack([u, v]), validate=False)

    def batched_dynamics(self) -> BatchedDynamics:
        from repro.edgemeg.kernels import SparseEdgeBatchedDynamics

        if not uses_inherited(self, SparseEdgeMEG, "snapshot"):
            return super().batched_dynamics()
        return SparseEdgeBatchedDynamics(
            self, native=uses_inherited(self, SparseEdgeMEG, "reset", "step"))

    # -- inspection -----------------------------------------------------------

    def edge_density(self) -> float:
        """Fraction of pairs currently alive."""
        return self._alive.size / self._total

    def expected_alive(self) -> float:
        """Stationary expectation ``M * p_hat``."""
        return self._total * self.p_hat

    def memory_estimate_bytes(self) -> int:
        """Rough live-memory footprint of the edge state (8 bytes/edge)."""
        return int(8 * max(self._alive.size,
                           math.ceil(self.expected_alive())))
