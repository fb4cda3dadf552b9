"""Parameterised node expansion (Definitions 2.2 and 2.3 of the paper).

A graph ``G = ([n], E)`` is an ``(h, k)``-expander if every node set
``I`` with ``|I| <= h`` satisfies ``|N(I)| >= k |I|``, where ``N(I)`` is
the out-neighborhood of ``I``.

Computing the *worst* expansion ``min_{|I| = s} |N(I)|`` exactly is
exponential in ``s`` (it is a vertex-isoperimetry problem), so this
module offers three levels:

1. :func:`worst_expansion_exact` / :func:`worst_expansion_ladder_exact` /
   :func:`is_expander_exact` — exhaustive subset enumeration over
   packed neighborhood words, for graphs small enough to certify.
2. :func:`estimate_worst_expansion` — randomized lower-bound search:
   random subsets, BFS-ball subsets (the extremal sets in geometric
   graphs are balls), and greedy local descent.  This gives an *upper
   bound* on the worst expansion — i.e. a sound way to *refute*
   over-optimistic expansion claims and to trace the constants
   ``alpha, beta, c`` of Theorems 3.2 and 4.1.
3. :func:`trajectory_expansion` — the expansion of the sets actually
   visited by a flooding run, which is the quantity Lemma 2.4 consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from typing import Sequence

import numpy as np

from repro.dynamics.base import GraphSnapshot
from repro.util import bits
from repro.util.rng import SeedLike, as_generator
from repro.util.validation import require, require_positive_int

__all__ = [
    "neighborhood_size",
    "expansion_of_set",
    "worst_expansion_exact",
    "worst_expansion_ladder_exact",
    "is_expander_exact",
    "estimate_worst_expansion",
    "ExpansionEstimate",
    "expansion_profile",
    "trajectory_expansion",
]

#: Refuse exhaustive enumeration beyond this many subsets.
_EXACT_SUBSET_BUDGET = 2_000_000


def neighborhood_size(snapshot: GraphSnapshot, members: np.ndarray) -> int:
    """``|N(I)|`` for the node set given by the boolean mask *members*."""
    return int(snapshot.neighborhood_mask(members).sum())


def expansion_of_set(snapshot: GraphSnapshot, members: np.ndarray) -> float:
    """``|N(I)| / |I|`` for a non-empty node set *members*."""
    members = np.asarray(members, dtype=bool)
    size = int(members.sum())
    require(size > 0, "the set must be non-empty")
    return neighborhood_size(snapshot, members) / size


def _mask_from_nodes(nodes: Sequence[int], n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[list(nodes)] = True
    return mask


#: Subsets scored per enumeration chunk.  A chunk holds its index rows
#: and one packed union row per subset, so memory stays bounded by the
#: chunk whatever ``C(n, size)`` is.
_CHUNK_SUBSETS = 1 << 14


def _check_budget(n: int, size: int) -> None:
    count = comb(n, size)
    if count > _EXACT_SUBSET_BUDGET:
        raise ValueError(
            f"C({n}, {size}) = {count} subsets exceeds the exact-enumeration "
            f"budget ({_EXACT_SUBSET_BUDGET}); use estimate_worst_expansion"
        )


def _closed_neighborhood_words(snapshot: GraphSnapshot) -> np.ndarray:
    """Each node's closed neighborhood ``N({v}) | {v}`` as packed bit
    rows (:mod:`repro.util.bits`).

    The snapshot contract makes ``N(I)`` the union of the members'
    single-node neighborhoods minus ``I``, so with closed rows
    ``|N(I)| = |OR of the rows of I| - |I|`` and no member mask is needed.
    """
    eye = np.eye(snapshot.num_nodes, dtype=bool)
    return bits.pack(snapshot.neighborhood_masks(eye) | eye)


def _worst_union(words: np.ndarray, size: int) -> tuple[int, np.ndarray]:
    """``min_{|I| = size} |N(I)|`` over the packed closed rows *words*,
    and the first minimising ``I`` (node indices) in ``combinations``
    order.

    Enumerates ``combinations(range(n), size)`` in chunks of
    :data:`_CHUNK_SUBSETS` index rows: OR each subset's gathered rows
    with one ``reduceat``, popcount the unions, and keep a chunk's first
    minimum only when it is strictly below the best so far.
    """
    n = words.shape[0]
    subsets = combinations(range(n), size)
    best, witness = n + 1, None  # every closed union has at most n nodes
    while True:
        flat = np.fromiter(chain.from_iterable(islice(subsets, _CHUNK_SUBSETS)),
                           dtype=np.intp)
        if flat.size == 0:
            break
        union = np.bitwise_or.reduceat(words[flat], np.arange(0, flat.size, size))
        counts = np.bitwise_count(union).sum(axis=1)
        i = int(counts.argmin())
        if counts[i] < best:
            best, witness = int(counts[i]), flat[i * size:(i + 1) * size]
            if best == size:  # N(I) is empty: nothing can beat it
                break
    return best - size, witness


def worst_expansion_exact(snapshot: GraphSnapshot, size: int) -> tuple[float, np.ndarray]:
    """Exact ``min_{|I| = size} |N(I)|`` by exhaustive enumeration.

    Returns ``(min_neighborhood_size, argmin_mask)``; the witness is the
    first minimising set in ``itertools.combinations`` order.

    Raises
    ------
    ValueError
        If the number of subsets ``C(n, size)`` exceeds the enumeration
        budget (about 2e6) — use :func:`estimate_worst_expansion`.
    """
    n = snapshot.num_nodes
    size = require_positive_int(size, "size")
    require(size <= n, "size must be <= n")
    _check_budget(n, size)
    best, witness = _worst_union(_closed_neighborhood_words(snapshot), size)
    return float(best), _mask_from_nodes(witness, n)


def worst_expansion_ladder_exact(snapshot: GraphSnapshot, top: int) -> np.ndarray:
    """Exact ``min_{|I| = i} |N(I)|`` for every ``i = 1 .. top``.

    Returns an ``int64`` array of length *top*.  The neighborhoods are
    packed once and every size is enumerated as in
    :func:`worst_expansion_exact`.

    Raises
    ------
    ValueError
        If any ``C(n, i)`` with ``i <= top`` exceeds the enumeration
        budget; the check runs before any enumeration.
    """
    n = snapshot.num_nodes
    top = require_positive_int(top, "top")
    require(top <= n, "top must be <= n")
    for size in range(1, top + 1):
        _check_budget(n, size)
    words = _closed_neighborhood_words(snapshot)
    return np.array([_worst_union(words, size)[0] for size in range(1, top + 1)],
                    dtype=np.int64)


def is_expander_exact(snapshot: GraphSnapshot, h: int, k: float) -> bool:
    """Exact check of Definition 2.2: is the graph an ``(h, k)``-expander?

    Enumerates all sets of size ``1 .. min(h, n)`` through
    :func:`worst_expansion_ladder_exact`; only feasible for small graphs
    (used by unit tests to certify the estimators).

    Raises
    ------
    ValueError
        If any of those sizes exceeds the enumeration budget.
    """
    h = require_positive_int(h, "h")
    top = min(h, snapshot.num_nodes)
    ladder = worst_expansion_ladder_exact(snapshot, top)
    return not (ladder < k * np.arange(1, top + 1)).any()


@dataclass(frozen=True)
class ExpansionEstimate:
    """Result of a randomized worst-expansion search at one set size.

    Attributes
    ----------
    size:
        The set size ``|I|`` probed.
    neighborhood_size:
        The smallest ``|N(I)|`` found (an upper bound on the true min).
    expansion:
        ``neighborhood_size / size`` — an upper bound on the worst
        expansion ratio at this size.
    witness:
        Boolean mask of the minimising set found.
    """

    size: int
    neighborhood_size: float
    expansion: float
    witness: np.ndarray

    def certifies_not_expander(self, h: int, k: float) -> bool:
        """True if the witness refutes the ``(h, k)``-expander property."""
        return self.size <= h and self.neighborhood_size < k * self.size


def _bfs_ball(snapshot: GraphSnapshot, center: int, size: int) -> np.ndarray:
    """Greedy BFS ball of exactly *size* nodes around *center* (mask).

    If the component of *center* is smaller than *size* the ball is
    padded with arbitrary outside nodes (which only makes it a weaker,
    still valid, candidate).
    """
    n = snapshot.num_nodes
    mask = np.zeros(n, dtype=bool)
    mask[center] = True
    filled = 1
    while filled < size:
        frontier = snapshot.neighborhood_mask(mask)
        candidates = np.flatnonzero(frontier)
        if candidates.size == 0:
            outside = np.flatnonzero(~mask)
            take = outside[: size - filled]
            mask[take] = True
            break
        take = candidates[: size - filled]
        mask[take] = True
        filled = int(mask.sum())
    return mask


#: Cap on swap candidates per greedy sweep; each candidate costs one
#: full ``N(I)`` query, so unbounded sweeps would be quadratic in |I|.
_GREEDY_CANDIDATES = 24


def _greedy_descend(snapshot: GraphSnapshot, mask: np.ndarray, *,
                    rng: np.random.Generator, sweeps: int = 2) -> np.ndarray:
    """Local search: swap members/non-members to shrink ``|N(I)|``."""
    mask = mask.copy()
    n = snapshot.num_nodes
    current = neighborhood_size(snapshot, mask)
    for _ in range(sweeps):
        improved = False
        members = rng.permutation(np.flatnonzero(mask))[:_GREEDY_CANDIDATES]
        for u in members:
            boundary = np.flatnonzero(snapshot.neighborhood_mask(mask))
            if boundary.size == 0:
                return mask
            v = int(boundary[rng.integers(boundary.size)])
            mask[u] = False
            mask[v] = True
            cand = neighborhood_size(snapshot, mask)
            if cand < current:
                current = cand
                improved = True
            else:
                mask[v] = False
                mask[u] = True
        if not improved:
            break
    return mask


def estimate_worst_expansion(
    snapshot: GraphSnapshot,
    size: int,
    *,
    trials: int = 16,
    seed: SeedLike = None,
    greedy_sweeps: int = 1,
) -> ExpansionEstimate:
    """Randomized search for a small-``|N(I)|`` set of the given *size*.

    Candidates: uniform random subsets and BFS balls around random
    centers (the isoperimetric extremals of geometric graphs), each
    refined by greedy local descent.  Sound as a refuter: the returned
    value is always achievable by an explicit witness set.
    """
    n = snapshot.num_nodes
    size = require_positive_int(size, "size")
    require(size <= n, "size must be <= n")
    trials = require_positive_int(trials, "trials")
    rng = as_generator(seed)

    best_val = np.inf
    best_mask = _mask_from_nodes(range(size), n)
    for trial in range(trials):
        if trial % 2 == 0:
            center = int(rng.integers(n))
            mask = _bfs_ball(snapshot, center, size)
        else:
            mask = _mask_from_nodes(rng.choice(n, size=size, replace=False), n)
        if greedy_sweeps > 0 and size < n:
            mask = _greedy_descend(snapshot, mask, rng=rng, sweeps=greedy_sweeps)
        value = neighborhood_size(snapshot, mask)
        if value < best_val:
            best_val = float(value)
            best_mask = mask
            if best_val == 0:
                break
    return ExpansionEstimate(
        size=size,
        neighborhood_size=best_val,
        expansion=best_val / size,
        witness=best_mask,
    )


def expansion_profile(
    snapshot: GraphSnapshot,
    sizes: Sequence[int],
    *,
    trials: int = 16,
    seed: SeedLike = None,
    greedy_sweeps: int = 1,
) -> list[ExpansionEstimate]:
    """Worst-expansion estimates across several set *sizes*."""
    rng = as_generator(seed)
    return [
        estimate_worst_expansion(
            snapshot, s, trials=trials, seed=rng, greedy_sweeps=greedy_sweeps
        )
        for s in sizes
    ]


def trajectory_expansion(history: np.ndarray) -> np.ndarray:
    """Expansion ratios realised along a flooding trajectory.

    Given the informed-count history ``m_0, m_1, ..., m_T`` of a
    flooding run, returns ``(m_{t+1} - m_t) / m_t`` for each ``t`` —
    i.e. ``|N(I_t)| / |I_t|`` restricted to the *fresh* nodes, which is
    exactly the per-step expansion that Lemma 2.4 lower-bounds by
    ``k_i``.
    """
    m = np.asarray(history, dtype=float)
    require(m.ndim == 1 and len(m) >= 1, "history must be a 1-D array")
    if len(m) < 2:
        return np.empty(0)
    return (m[1:] - m[:-1]) / m[:-1]
