"""The node support-space ``L_{n,eps}`` and move graph of Section 3.

The paper discretises the square ``sqrt(n) x sqrt(n)`` (density 1;
Observation 3.3 scales to any density) into the lattice

.. math::

    L_{n,\\varepsilon} = \\{ (i\\varepsilon, j\\varepsilon) :
        i, j \\in \\mathbb{N},\\ i\\varepsilon, j\\varepsilon \\le \\sqrt n \\}

and defines the *move graph* ``M_{n,r,eps}``: from position ``x`` a
walker can move to any lattice point within Euclidean distance ``r``
(the *move radius*), including staying put.  The stationary distribution
of a single walker is proportional to the move-graph degree
``|Gamma(x)|`` (border points have clipped neighborhoods, hence slightly
smaller stationary mass — the "almost uniform" property driving the
expansion proof).

This module computes ``|Gamma(x)|`` for all lattice points in closed
form (no neighbor enumeration): for each vertical offset ``dj`` the
number of admissible horizontal offsets factorises into a clipped
1-D count, so the full degree table is a sum of outer products —
``O(g^2 * r/eps)`` instead of ``O(g^2 * (r/eps)^2)``.

Samplers:

* :meth:`Lattice.sample_stationary_flat` (and its index-array form
  :meth:`Lattice.sample_stationary_indices`) inverts the cached CDF of
  ``pi`` through a *guide table*: bucket ``k`` of ``m = g^2`` equal
  buckets of ``[0, 1)`` stores the answer for the bucket's left edge,
  and a short upward walk finishes the lookup.  Its output is, index
  for index, ``cdf.searchsorted(u, side="right")`` — the same draws as
  ``rng.choice(g^2, p=pi)`` — at a fraction of the cost.
* :meth:`Lattice.step_indices` rejection-samples each move from the
  ``(2 dmax + 1)^2`` offset box.  The serial walkers (and so the replay
  contract and its frozen cache keys) are pinned to its draw sequence.
* :meth:`Lattice.disc_step_cells` draws one index into the disc of
  admissible offsets per walker and redraws only walkers that left the
  lattice.  Same law, fewer draws.  It moves walkers held as padded
  cell ids (:class:`CellLayout`), the native batched kernels' layout;
  :meth:`Lattice.disc_step_indices` is the same step on index arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.util.rng import SeedLike, as_generator
from repro.util.validation import require, require_nonnegative, require_positive

__all__ = ["CellLayout", "Lattice", "disc_offsets"]


def disc_offsets(r_over_eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer offsets ``(di, dj)`` with ``di^2 + dj^2 <= (r/eps)^2``.

    Returns two aligned int64 arrays.  Includes ``(0, 0)``.
    """
    r2 = float(r_over_eps) ** 2
    dmax = int(math.floor(r_over_eps + 1e-9))
    rng_ = np.arange(-dmax, dmax + 1)
    di, dj = np.meshgrid(rng_, rng_, indexing="ij")
    keep = di * di + dj * dj <= r2 + 1e-9
    return di[keep].astype(np.int64), dj[keep].astype(np.int64)


@dataclass(frozen=True)
class CellLayout:
    """Padded cell ids of walkers on a ``g x g`` lattice, ``B`` trials.

    Each trial owns a block of ``rows = g + 2 ring`` rows of ``stride``
    columns, ``stride`` the least multiple of 64 that is at least
    ``rows``; lattice point ``(i, j)`` of trial ``b`` has the id
    ``b * block + (i + ring) * stride + (j + ring)``.  So a lattice
    offset ``(di, dj)`` is the id offset ``di * stride + dj``, every
    offset up to *ring* per axis stays inside the walker's own block
    (in the ring when it leaves the lattice), and a block's rows are
    whole 64-bit words, which :func:`repro.util.bits.pack` packs with no
    copy.  DESIGN.md ("Padded cell ids") gives the reasons.
    """

    grid_size: int
    ring: int
    rows: int = field(init=False)
    stride: int = field(init=False)
    block: int = field(init=False)

    def __post_init__(self) -> None:
        rows = self.grid_size + 2 * self.ring
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "stride", -(-rows // 64) * 64)
        object.__setattr__(self, "block", rows * self.stride)

    def ids(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """Cell ids of the lattice indices *ix*, *iy*: one block for
        1-D arrays, block ``b`` for row ``b`` of ``(B, n)`` arrays."""
        cells = np.asarray(ix, dtype=np.int64) * self.stride
        cells += iy
        origin = self.ring * (self.stride + 1)
        if cells.ndim == 2:
            origin = (np.arange(cells.shape[0], dtype=np.int64) * self.block
                      + origin)[:, None]
        cells += origin
        return cells

    @cached_property
    def _lattice_ids(self) -> np.ndarray:
        """Block-0 ids of the lattice points in row-major order
        (read-only)."""
        ix, iy = np.divmod(np.arange(self.grid_size ** 2, dtype=np.int64),
                           self.grid_size)
        cells = self.ids(ix, iy)
        cells.flags.writeable = False
        return cells

    def flat_ids(self, flat: np.ndarray) -> np.ndarray:
        """Cell ids of the row-major lattice indices ``i g + j`` in
        *flat*, blocks as in :meth:`ids` (one gather, no division)."""
        cells = self._lattice_ids[flat]
        if cells.ndim == 2:
            cells += (np.arange(cells.shape[0], dtype=np.int64)
                      * self.block)[:, None]
        return cells

    def indices(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The lattice indices ``(ix, iy)`` of *cells* (inverse of
        :meth:`ids`, trial blocks dropped)."""
        row, col = np.divmod(cells, self.stride)
        return row % self.rows - self.ring, col - self.ring

    def inside(self, blocks: int) -> np.ndarray:
        """Flat boolean table over *blocks* blocks: true on lattice cells,
        false on the ring and the padding columns."""
        table = np.zeros((blocks, self.rows, self.stride), dtype=bool)
        lattice = slice(self.ring, self.ring + self.grid_size)
        table[:, lattice, lattice] = True
        return table.ravel()


@dataclass(frozen=True)
class Lattice:
    """The lattice ``L_{n,eps}`` with move radius ``r``.

    Parameters
    ----------
    side:
        Side length of the square region (``sqrt(n)`` at unit density,
        ``sqrt(n / density)`` in general).
    eps:
        Resolution coefficient ``eps > 0``; the paper assumes
        ``eps <= 1`` and ``eps < R`` (validated by the callers that know
        ``R``).
    move_radius:
        The move radius ``r >= 0``.  ``r = 0`` freezes the walkers,
        giving the *static* random geometric graph baseline.

    Attributes
    ----------
    grid_size:
        Number of admissible indices per axis,
        ``g = floor(side / eps) + 1``.
    """

    side: float
    eps: float
    move_radius: float
    grid_size: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "side", require_positive(self.side, "side"))
        object.__setattr__(self, "eps", require_positive(self.eps, "eps"))
        object.__setattr__(self, "move_radius",
                           require_nonnegative(self.move_radius, "move_radius"))
        require(self.eps <= self.side, "eps must not exceed the region side")
        g = int(math.floor(self.side / self.eps + 1e-9)) + 1
        object.__setattr__(self, "grid_size", g)

    def __deepcopy__(self, memo: dict) -> Lattice:
        # Immutable, so copies of a model (one per replayed trial) share
        # the lattice and its cached stationary CDF.
        return self

    @property
    def num_points(self) -> int:
        """``|L_{n,eps}| = g^2``."""
        return self.grid_size * self.grid_size

    @property
    def dmax(self) -> int:
        """Maximum per-axis index offset, ``floor(r / eps)``."""
        return int(math.floor(self.move_radius / self.eps + 1e-9))

    def _per_offset_width(self) -> np.ndarray:
        """``D(dj) = floor(sqrt((r/eps)^2 - dj^2))`` for ``dj = -dmax..dmax``.

        ``D(dj)`` is the number of admissible horizontal offsets on each
        side of 0 at vertical offset ``dj`` (before border clipping).
        """
        r_units = self.move_radius / self.eps
        dj = np.arange(-self.dmax, self.dmax + 1, dtype=np.int64)
        return np.floor(np.sqrt(np.maximum(0.0, r_units**2 - dj.astype(float) ** 2))
                        + 1e-9).astype(np.int64)

    def degree_table(self) -> np.ndarray:
        """``|Gamma(x)|`` for every lattice point, as a ``(g, g)`` array.

        ``Gamma(x)`` includes ``x`` itself (distance 0), so every entry
        is at least 1.  Interior points of a large lattice all share the
        maximal value ``|disc_offsets(r/eps)|``; border points are
        clipped.
        """
        g = self.grid_size
        widths = self._per_offset_width()
        offsets = np.arange(-self.dmax, self.dmax + 1, dtype=np.int64)
        idx = np.arange(g, dtype=np.int64)
        degree = np.zeros((g, g), dtype=np.int64)
        for dj, width in zip(offsets, widths):
            # Columns j with j + dj inside the lattice.
            valid_j = (idx + dj >= 0) & (idx + dj < g)
            # Clipped 1-D count of admissible row offsets at each row i.
            count_i = np.minimum(idx, width) + np.minimum(g - 1 - idx, width) + 1
            degree += count_i[:, None] * valid_j[None, :].astype(np.int64)
        return degree

    def stationary_position_distribution(self) -> np.ndarray:
        """Stationary distribution ``pi(x) = |Gamma(x)| / sum_y |Gamma(y)|``.

        Returned as a flat array of length ``g^2`` in row-major
        ``(i, j)`` order.
        """
        deg = self.degree_table().astype(float).ravel()
        return deg / deg.sum()

    @cached_property
    def _stationary_cdf(self) -> np.ndarray:
        """Cumulative ``pi``, normalised exactly as ``Generator.choice``
        normalises its ``p``, so inverse-CDF draws match
        ``rng.choice(num_points, p=pi)`` draw for draw.  Built once per
        lattice (read-only)."""
        cdf = self.stationary_position_distribution().cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        return cdf

    @cached_property
    def _stationary_guide(self) -> np.ndarray:
        """Guide table of :attr:`_stationary_cdf` for ``m = g^2`` buckets.

        Entry ``k`` (of ``m + 1``) is the ``searchsorted(side="right")``
        answer for a point a few ulps below ``k / m``.  Any ``u`` whose
        computed ``floor(u * m)`` is ``k`` lies above that point (the
        product rounds by at most one part in ``2^53``), so the entry
        never overshoots the answer for ``u``.  Built once per lattice
        (read-only).
        """
        cdf = self._stationary_cdf
        m = cdf.size
        below = np.arange(m + 1) / m * (1.0 - 2.0**-50)
        guide = cdf.searchsorted(below, side="right")
        guide.flags.writeable = False
        return guide

    def _invert_stationary_cdf(self, u: np.ndarray) -> np.ndarray:
        """``self._stationary_cdf.searchsorted(u, side="right")`` for
        ``u`` in ``[0, 1)``, index for index, via the guide table.

        The bucket start is at most the answer, and about one CDF entry
        below it (``pi`` is almost uniform, so each of the ``g^2``
        buckets holds about one entry); an upward walk finishes each
        lookup.  The CDF's last entry is exactly 1, so every walk stops
        on a valid index.
        """
        cdf = self._stationary_cdf
        flat = self._stationary_guide[(u * cdf.size).astype(np.intp)]
        high = np.flatnonzero(cdf[flat] <= u)
        while high.size:
            flat[high] += 1
            high = high[cdf[flat[high]] <= u[high]]
        return flat

    def uniformity_ratio(self) -> float:
        """``max pi / min pi`` — the paper's "almost uniform" constant
        ``gamma^2`` (1.0 for ``r = 0``)."""
        deg = self.degree_table()
        return float(deg.max() / deg.min())

    def sample_stationary_flat(self, count: int, *, seed: SeedLike = None,
                               ) -> np.ndarray:
        """Draw *count* i.i.d. stationary positions as row-major flat
        indices ``ix * g + iy``.

        Exact sampling from ``pi`` — the *perfect simulation* required
        for a stationary geometric-MEG.  One uniform per draw, inverted
        through the guide table; the draws equal
        ``rng.choice(num_points, size=count, p=pi)``.
        """
        require(count >= 1, "count must be >= 1")
        return self._invert_stationary_cdf(as_generator(seed).random(count))

    def sample_stationary_indices(self, count: int, *, seed: SeedLike = None,
                                  ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`sample_stationary_flat` as index arrays ``(ix, iy)``."""
        flat = self.sample_stationary_flat(count, seed=seed)
        ix, iy = np.divmod(flat, self.grid_size)
        return ix.astype(np.int64, copy=False), iy.astype(np.int64, copy=False)

    def to_coordinates(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        """Convert index arrays to Euclidean coordinates, shape ``(count, 2)``."""
        return np.column_stack((ix * self.eps, iy * self.eps)).astype(float)

    def step_indices(self, ix: np.ndarray, iy: np.ndarray, *,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Advance walkers one step: uniform over ``Gamma(x)`` per walker.

        Vectorised rejection sampling over the ``(2 dmax + 1)^2`` offset
        box intersected with the disc and the lattice borders — exactly
        uniform over the admissible moves.  Arrays are not modified;
        new arrays are returned.

        This is the serial walkers' sampler: its draw sequence (two
        ``rng.integers`` vectors per round) is what replay bit-identity
        and the frozen replay cache keys pin, so it stays even though
        :meth:`disc_step_indices` draws the same law faster.
        """
        dmax = self.dmax
        if dmax == 0:
            return ix.copy(), iy.copy()
        g = self.grid_size
        r2 = (self.move_radius / self.eps) ** 2 + 1e-9
        count = ix.shape[0]
        new_ix = ix.copy()
        new_iy = iy.copy()
        pending = np.arange(count)
        # Worst-case acceptance is ~pi/16 (corner point); geometric decay
        # makes the expected number of rounds tiny.
        while pending.size:
            k = pending.size
            di = rng.integers(-dmax, dmax + 1, size=k)
            dj = rng.integers(-dmax, dmax + 1, size=k)
            cand_i = ix[pending] + di
            cand_j = iy[pending] + dj
            ok = (
                (di * di + dj * dj <= r2)
                & (cand_i >= 0) & (cand_i < g)
                & (cand_j >= 0) & (cand_j < g)
            )
            accepted = pending[ok]
            new_ix[accepted] = cand_i[ok]
            new_iy[accepted] = cand_j[ok]
            pending = pending[~ok]
        return new_ix, new_iy

    @cached_property
    def _disc(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`disc_offsets` of the move radius, built once (read-only)."""
        di, dj = disc_offsets(self.move_radius / self.eps)
        di.flags.writeable = False
        dj.flags.writeable = False
        return di, dj

    @cached_property
    def cell_layout(self) -> CellLayout:
        """The padded cell ids of walkers on this lattice: a ring of
        :attr:`dmax`, so no move leaves a walker's block."""
        return CellLayout(self.grid_size, self.dmax)

    @cached_property
    def _cell_disc(self) -> np.ndarray:
        """The move disc as cell-id offsets ``di * stride + dj``, built
        once (read-only)."""
        di, dj = self._disc
        offsets = di * self.cell_layout.stride + dj
        offsets.flags.writeable = False
        return offsets

    def disc_step_cells(self, cells: np.ndarray, inside: np.ndarray, *,
                        rng: np.random.Generator) -> np.ndarray:
        """Advance walkers one step: uniform over ``Gamma(x)`` per walker.

        *cells* is a flat array of :attr:`cell_layout` ids and *inside*
        that layout's :meth:`CellLayout.inside` table over at least the
        blocks the ids use.  Each walker draws one index into the ``K``
        offsets of the move disc (``rng.integers(0, K)``, exactly
        uniform); only walkers whose candidate falls off the lattice (an
        id in the ring, by one gather into *inside*) redraw.  The
        accepted move is uniform over the disc conditioned on landing on
        the lattice, which is uniform over ``Gamma(x)`` — the law of
        :meth:`step_indices` with a different draw sequence.  A walker
        accepts each draw with probability ``|Gamma(x)| / K``: 1 in the
        interior, about 1/4 in a corner for large ``r / eps``.  Memory is
        ``O(K)``.  *cells* is not modified; a new array is returned.
        """
        offsets = self._cell_disc
        if offsets.size == 1:
            return cells.copy()
        moved = offsets[rng.integers(0, offsets.size, size=cells.shape[0])]
        moved += cells
        pending = np.flatnonzero(~inside[moved])
        while pending.size:
            pick = rng.integers(0, offsets.size, size=pending.size)
            cand = cells[pending] + offsets[pick]
            ok = inside[cand]
            moved[pending[ok]] = cand[ok]
            pending = pending[~ok]
        return moved

    def disc_step_indices(self, ix: np.ndarray, iy: np.ndarray, *,
                          rng: np.random.Generator,
                          ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`disc_step_cells` on index arrays, draw for draw: the
        walkers go to one block of :attr:`cell_layout` and back.  Arrays
        are not modified; new arrays are returned."""
        layout = self.cell_layout
        moved = self.disc_step_cells(layout.ids(ix, iy), layout.inside(1),
                                     rng=rng)
        return layout.indices(moved)

    def gamma_size(self, ix: int, iy: int) -> int:
        """``|Gamma(x)|`` of a single lattice point (reference implementation).

        Enumerates the offset disc directly; used in tests to certify
        :meth:`degree_table`.
        """
        di, dj = disc_offsets(self.move_radius / self.eps)
        g = self.grid_size
        ci, cj = ix + di, iy + dj
        return int(((ci >= 0) & (ci < g) & (cj >= 0) & (cj < g)).sum())
