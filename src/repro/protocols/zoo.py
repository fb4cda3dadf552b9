"""The built-in protocol zoo: gossip, push–pull, probabilistic and
expiring flooding.

Five spreading processes beyond flooding, each a
:class:`~repro.protocols.base.SpreadingProtocol` whose rules are
written once, over a leading trial axis:

* :class:`ProbabilisticFlooding` — every informed node transmits
  independently with probability ``transmit_probability`` per round
  (Oikonomou–Stavrakakis probabilistic flooding, reference [29] of the
  paper).  With ``transmit_probability = 1`` it is flooding under the
  protocol seed split, which is how E14 couples its flooding row.
* :class:`ExpiringFlooding` — SIR-style finite-memory spreading: a node
  relays only for ``active_steps`` rounds after becoming informed, then
  retires (the parsimonious flooding of Baumann–Crescenzi–Fraigniaud,
  reference [4]; the stationarity discussion of the paper motivates
  exactly this trade of completion guarantees for message complexity).
* :class:`PushGossip` — every informed node contacts one uniformly
  random neighbor per round (randomized rumor spreading, reference
  [30]).
* :class:`PullGossip` — every *uninformed* node queries one uniformly
  random neighbor and learns the rumor if that neighbor is informed.
* :class:`PushPullGossip` — both of the above in one round (push draws
  first, then pull).

The gossip protocols use a vectorised transmission rule: one neighbor
row-gather for the whole sender set plus a single uniform draw per
sender (inverse-CDF over the row), instead of a Python loop over nodes.
That makes even the *serial* path fast, and it is the one rule every
backend runs per trial — so replay results are bit-identical across
backends by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from repro.protocols.base import SpreadingProtocol
from repro.util.validation import require_positive_int, require_probability

__all__ = [
    "ProbabilisticFlooding",
    "ExpiringFlooding",
    "PushGossip",
    "PullGossip",
    "PushPullGossip",
    "sample_neighbors",
]


def _ranked_picks(counts: np.ndarray,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform neighbor *ranks* from per-node degree *counts*.

    Draws exactly one ``rng.random(len(counts))`` vector regardless of
    the counts, so the draw schedule is a deterministic function of the
    node count — the property the replay bit-identity contract relies
    on.  ``draws < 1`` strictly, so ranks stay ``<= count - 1`` wherever
    ``count > 0``.
    """
    draws = rng.random(counts.shape[0])
    return (draws * counts).astype(np.int64), counts > 0


def sample_neighbors(snapshot, nodes: np.ndarray,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One uniform random neighbor for each node in *nodes*.

    Returns ``(picks, valid)``: the sampled neighbor per node and a
    mask of nodes that had any neighbor at all (``picks`` is
    meaningless where ``valid`` is false).  The draw schedule — one
    ``rng.random(len(nodes))`` vector, rank = ``floor(draw * degree)``
    — is identical on every path, so results are deterministic per
    snapshot type.

    Three gather strategies, fastest capability first:

    * CSR snapshots (``snapshot.csr`` — the sparse edge-MEG family and
      the geometric snapshots): the rank-th entry of each node's
      contiguous, sorted neighbor slice, ``O(len(nodes))``.
    * dense boolean ``snapshot.adjacency`` (edge-MEGs, deterministic
      sequences): one row-gather plus a flat ``nonzero`` — a single
      pass over the gathered rows, no per-row Python.
    * anything else: one-hot rows through the generic batched
      :meth:`~repro.dynamics.base.GraphSnapshot.neighborhood_masks`
      query, then the same flat gather.
    """
    csr = getattr(snapshot, "csr", None)
    if csr is not None:
        indptr, indices = csr
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        ranks, valid = _ranked_picks(counts, rng)
        picks = np.zeros(nodes.shape[0], dtype=np.int64)
        picks[valid] = indices[starts[valid] + ranks[valid]]
        return picks, valid
    rows = getattr(snapshot, "adjacency", None)
    if rows is not None:
        rows = rows[nodes]
    else:
        n = snapshot.num_nodes
        onehots = np.zeros((nodes.shape[0], n), dtype=bool)
        onehots[np.arange(nodes.shape[0]), nodes] = True
        rows = snapshot.neighborhood_masks(onehots)
    counts = rows.sum(axis=1)
    ranks, valid = _ranked_picks(counts, rng)
    # Flat CSR-ification of the gathered rows: np.nonzero is row-major,
    # so each row's neighbors are contiguous and column-ascending.
    cols = np.nonzero(rows)[1]
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    picks = np.zeros(nodes.shape[0], dtype=np.int64)
    picks[valid] = cols[starts[valid] + ranks[valid]]
    return picks, valid


def _empty(n: int) -> np.ndarray:
    return np.zeros(n, dtype=bool)


@dataclass(frozen=True)
class ProbabilisticFlooding(SpreadingProtocol):
    """p-flooding: every informed node transmits w.p. *transmit_probability*
    per round, reaching all its neighbors when it fires.

    This is the per-*node* gossiping of reference [29].  Note it is
    **not** the same joint law
    as per-*edge* i.i.d. relaying — single-neighbor marginals coincide
    (each neighbor hears u w.p. ``p``), but here u's neighbors hear it
    together or not at all.  ``transmit_probability = 1`` coincides
    with flooding (modulo the seed split); lower values trade latency
    for messages.
    """

    transmit_probability: float = 0.5

    name: ClassVar[str] = "p-flood"

    def __post_init__(self) -> None:
        # Store the validator's canonical float so equal instances
        # (constructed from ints, strings via the registry, ...) always
        # print — and cache-key — the same token.
        object.__setattr__(
            self, "transmit_probability",
            require_probability(self.transmit_probability,
                                "transmit_probability", open_left=True))

    def batch_active(self, state, informed, act, t, rng):
        # One random((B, n)) block per round, drawn unconditionally; on
        # one trial it is the random(n) vector pinned in
        # tests/protocols/test_protocols.py.
        rows = informed[act]
        return rows & (rng.random(rows.shape) < self.transmit_probability)


@dataclass(frozen=True)
class ExpiringFlooding(SpreadingProtocol):
    """Expiring / SIR-style flooding: relay for *active_steps* rounds, then stop.

    A node informed at time ``t0`` transmits at rounds
    ``t0 .. t0 + active_steps - 1`` and is retired afterwards
    (infected -> recovered).  On fast-mixing MEGs a small
    ``active_steps`` already completes; on slowly-changing ones the
    transmitter pool can die out first — the :meth:`batch_stalled`
    predicate detects that and retires the run early instead of burning
    the whole step budget.
    """

    active_steps: int = 2

    name: ClassVar[str] = "expiring"

    def __post_init__(self) -> None:
        # Canonical int, for the same token-stability reason as p-flood.
        object.__setattr__(
            self, "active_steps",
            require_positive_int(self.active_steps, "active_steps"))

    def batch_state(self, informed):
        # Informed-at clock: 0 for the sources, -1 for the uninformed.
        informed_at = np.full(informed.shape, -1, dtype=np.int64)
        informed_at[informed] = 0
        return informed_at

    def _relaying(self, state, informed, act, t):
        return informed[act] & (state[act] > t - self.active_steps)

    def batch_active(self, state, informed, act, t, rng):
        return self._relaying(state, informed, act, t)

    def batch_absorb(self, state, act, fresh, t):
        rows = state[act]
        rows[fresh] = t
        state[act] = rows

    def batch_stalled(self, state, informed, act, t):
        return ~self._relaying(state, informed, act, t).any(axis=1)


@dataclass(frozen=True)
class PushGossip(SpreadingProtocol):
    """Push rumor spreading: every informed node pushes to one uniform
    random neighbor per round."""

    name: ClassVar[str] = "push"

    def transmit(self, snapshot, informed, active, rng):
        n = informed.shape[0]
        fresh = _empty(n)
        senders = np.flatnonzero(active)
        if senders.size == 0:
            return fresh
        picks, valid = sample_neighbors(snapshot, senders, rng)
        fresh[picks[valid]] = True
        return fresh & ~informed


@dataclass(frozen=True)
class PullGossip(SpreadingProtocol):
    """Pull rumor spreading: every *uninformed* node queries one uniform
    random neighbor and learns the rumor if that neighbor is informed.

    Pull dominates push in the endgame (few uninformed nodes, many
    potential informers) and lags in the opening — both regimes are
    visible in the E16 tables.
    """

    name: ClassVar[str] = "pull"

    def transmit(self, snapshot, informed, active, rng):
        n = informed.shape[0]
        fresh = _empty(n)
        pullers = np.flatnonzero(~informed)
        if pullers.size == 0:
            return fresh
        picks, valid = sample_neighbors(snapshot, pullers, rng)
        fresh[pullers[valid & informed[picks]]] = True
        return fresh


@dataclass(frozen=True)
class PushPullGossip(SpreadingProtocol):
    """Push–pull rumor spreading: push and pull in the same round.

    Informed nodes push to one random neighbor; uninformed nodes pull
    from one random neighbor (successful if that neighbor was informed
    at the start of the round).  Push draws first, then pull — one
    fixed draw order on every backend.
    """

    name: ClassVar[str] = "push-pull"

    def transmit(self, snapshot, informed, active, rng):
        n = informed.shape[0]
        fresh = _empty(n)
        senders = np.flatnonzero(active)
        if senders.size:
            picks, valid = sample_neighbors(snapshot, senders, rng)
            fresh[picks[valid]] = True
        pullers = np.flatnonzero(~informed)
        if pullers.size:
            picks, valid = sample_neighbors(snapshot, pullers, rng)
            fresh[pullers[valid & informed[picks]]] = True
        return fresh & ~informed
