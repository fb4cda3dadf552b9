"""Fixed-radius neighbor queries — the hot path of geometric flooding.

Geometric snapshots answer ``N(I)`` queries ("which nodes outside ``I``
are within distance ``R`` of some node of ``I``?").  A dense adjacency
matrix would cost ``O(n^2)`` memory; instead we exploit the spatial
structure with a k-d tree over the *member* points and a nearest-member
query from every non-member — ``O(n log |I|)`` per step, and the tree
is built over the (usually small early / irrelevant late) informed set.

``scipy.spatial.cKDTree`` is the engine; this module wraps the exact
query patterns the library needs so the snapshot code stays free of
scipy details and the patterns are unit-testable against brute force.

The batched kernels answer ``B`` trials at once: the mobility models
(arbitrary float positions) through the shared cell grid of
:func:`batched_within_radius`, and the native geometric-MEG (walkers on
the lattice ``L_{n,eps}``) through :func:`lattice_within_radius`, which
dilates bit rows (one ``uint64`` word per 64 lattice columns) by the
disc of admissible lattice offsets with shifts and ORs and never
computes a distance.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from repro.util.validation import require, require_positive

__all__ = [
    "within_radius_of_members",
    "batched_within_radius",
    "lattice_within_radius",
    "radius_edges",
    "radius_degrees",
    "brute_force_within_radius",
]


def _prepare(positions: np.ndarray, boxsize: float | None) -> np.ndarray:
    """Wrap positions into [0, boxsize) when a toroidal metric is requested.

    Positions already inside (the torus models keep theirs there) are
    returned as they are: ``np.mod`` leaves them unchanged anyway, and
    the min/max check costs a fraction of it.
    """
    if boxsize is None or (positions.min(initial=0.0) >= 0.0
                           and positions.max(initial=0.0) < boxsize):
        return positions
    return np.mod(positions, boxsize)


def within_radius_of_members(
    positions: np.ndarray,
    members: np.ndarray,
    radius: float,
    *,
    boxsize: float | None = None,
) -> np.ndarray:
    """Mask of non-member points within *radius* of any member point.

    Parameters
    ----------
    positions:
        ``(n, d)`` float array of point coordinates.
    members:
        Boolean mask of length ``n``.
    radius:
        Query radius ``R`` (inclusive: distance ``<= R`` connects, as in
        the paper's edge rule ``d(P_i, P_j) <= R``).
    boxsize:
        When given, distances are toroidal with period *boxsize* per
        axis (the torus mobility models of Section 3).

    Returns
    -------
    numpy.ndarray
        Boolean mask, disjoint from *members*.
    """
    positions = np.asarray(positions, dtype=float)
    members = np.asarray(members, dtype=bool)
    require(positions.ndim == 2, "positions must be (n, d)")
    require(members.shape == (positions.shape[0],), "members mask has wrong length")
    radius = require_positive(radius, "radius")

    out = np.zeros(positions.shape[0], dtype=bool)
    member_idx = np.flatnonzero(members)
    other_idx = np.flatnonzero(~members)
    if member_idx.size == 0 or other_idx.size == 0:
        return out
    positions = _prepare(positions, boxsize)
    tree = cKDTree(positions[member_idx], boxsize=boxsize)
    # Nearest member distance for each outside point; eps=0 exact.
    dist, _ = tree.query(positions[other_idx], k=1, distance_upper_bound=radius * (1 + 1e-12))
    out[other_idx[dist <= radius * (1 + 1e-12)]] = True
    return out


#: Fall back to per-trial k-d queries when the cell grid would need more
#: than this many cells per point (pathologically small radii), and to
#: the cell grid when a lattice has more than this many points per
#: walker (fine resolutions).
_MAX_CELLS_PER_POINT = 8


#: Cell-grid resolution of batched_within_radius: cells of edge
#: ``R / _CELLS_PER_RADIUS`` make the guaranteed box (every pair within
#: R no matter where in their cells the points sit) cover the full 3x3
#: neighborhood, so spread-out informed sets settle without distance
#: checks.
_CELLS_PER_RADIUS = 3.0


def _pad_cells(cells: np.ndarray, halo: int, *, periodic: bool) -> np.ndarray:
    """``(B, g, g)`` per-cell values with a *halo* of cells on each side
    of both grid axes: wrapped around when *periodic*, zero otherwise
    (what ``np.pad`` gives, at a fraction of its overhead)."""
    g = cells.shape[1]
    if periodic:
        wrap = np.arange(-halo, g + halo) % g
        return cells[:, wrap][:, :, wrap]
    padded = np.zeros((cells.shape[0], g + 2 * halo, g + 2 * halo),
                      dtype=cells.dtype)
    padded[:, halo:halo + g, halo:halo + g] = cells
    return padded


def _stable_order(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for keys in ``[0, num_keys)``;
    keys that fit 16 bits take numpy's radix sort."""
    if num_keys <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _shifted_any(occupied: np.ndarray, offsets: list, *,
                 periodic: bool) -> np.ndarray:
    """Per cell: whether any *offsets*-shifted cell is occupied.

    ``result[b, x, y] = OR_(dx,dy) occupied[b, x+dx, y+dy]`` with
    toroidal wrap-around when *periodic* (out-of-range cells count as
    empty otherwise).  The ``(B, g, g)`` stack is padded once by the
    offsets' reach, and each offset ORs in one shifted window of it.
    """
    g = occupied.shape[1]
    reach = max(max(abs(dx), abs(dy)) for dx, dy in offsets)
    padded = _pad_cells(occupied, reach, periodic=periodic)
    acc = np.zeros_like(occupied)
    for dx, dy in offsets:
        acc |= padded[:, reach + dx:reach + dx + g, reach + dy:reach + dy + g]
    return acc


def batched_within_radius(
    positions: np.ndarray,
    members: np.ndarray,
    radius: float,
    *,
    boxsize: float | None = None,
) -> np.ndarray:
    """Per-trial :func:`within_radius_of_members` for ``B`` stacked trials,
    answered by **one** shared uniform cell grid.

    The engine's batched kernels hold the node positions of all trials
    as a ``(B, n, 2)`` stack.  A per-trial k-d tree pays a build *and* a
    nearest-member traversal per point per trial per step; here the
    whole batch shares one grid of square cells with edge
    ``c <= R / 3`` (cell ids carry the trial index, so trials can never
    mix):

    * a non-member with a member anywhere in a **guaranteed** cell —
      one whose farthest point is within ``R`` of anywhere in the
      non-member's cell — is settled with no distance computation,
      which covers almost every point once the informed sets are
      spread out;
    * the surviving points can only pair with members of the thin
      **maybe** annulus of cells; those candidate pairs are enumerated
      cell-against-cell (a ragged cross-join driven from the frontier
      member cells, so work scales with the frontier shell, not with
      the point count) and checked against the same
      ``<= R (1 + 1e-12)`` predicate as the k-d path.

    Work per call is ``O(B n + pairs-in-neighboring-cells)`` with small
    constants — no trees, no per-trial Python loop.  Degenerate radii
    (a grid finer than :data:`_MAX_CELLS_PER_POINT` cells per point)
    fall back to per-trial k-d queries.

    Parameters
    ----------
    positions:
        ``(B, n, 2)`` float array — trial ``b``'s points are
        ``positions[b]``.
    members:
        ``(B, n)`` boolean mask of each trial's member set.
    radius, boxsize:
        As in :func:`within_radius_of_members`.

    Returns
    -------
    numpy.ndarray
        ``(B, n)`` boolean mask; row ``b`` equals
        ``within_radius_of_members(positions[b], members[b], radius,
        boxsize=boxsize)``.
    """
    positions = np.asarray(positions, dtype=float)
    members = np.asarray(members, dtype=bool)
    require(positions.ndim == 3 and positions.shape[2] == 2,
            "positions must be (B, n, 2)")
    require(members.shape == positions.shape[:2],
            "members mask must be (B, n)")
    radius = require_positive(radius, "radius")

    num_trials, n, _ = positions.shape
    out = np.zeros((num_trials, n), dtype=bool)
    flat_members = members.ravel()
    if not flat_members.any() or flat_members.all():
        return out

    flat_pos = _prepare(positions.reshape(num_trials * n, 2), boxsize)
    if boxsize is not None:
        offset_pos = flat_pos  # already inside [0, boxsize)
        span = float(boxsize)
    else:
        offset_pos = flat_pos - flat_pos.min(axis=0)
        span = float(offset_pos.max(initial=0.0))
    grid = max(1, math.ceil(span * _CELLS_PER_RADIUS / radius))
    if grid * grid > _MAX_CELLS_PER_POINT * n:
        for b in range(num_trials):
            out[b] = within_radius_of_members(positions[b], members[b],
                                              radius, boxsize=boxsize)
        return out
    cell = span / grid if span > 0 else 0.0

    if cell > 0:
        coords = np.clip((offset_pos / cell).astype(np.int64), 0, grid - 1)
        cx, cy = coords[:, 0], coords[:, 1]
    else:  # all points coincide per axis
        cx = np.zeros(num_trials * n, dtype=np.int64)
        cy = cx
    trial = np.repeat(np.arange(num_trials, dtype=np.int64), n)
    cell_id = (trial * grid + cy) * grid + cx

    member_idx = np.flatnonzero(flat_members)
    other_idx = np.flatnonzero(~flat_members)
    num_cells = num_trials * grid * grid
    member_counts = np.bincount(cell_id[member_idx], minlength=num_cells)
    member_occ = (member_counts > 0).reshape(num_trials, grid, grid)
    periodic = boxsize is not None

    # Classify cell offsets by the distance bounds of their point pairs:
    # a *guaranteed* offset keeps even the farthest pair within R, a
    # *maybe* offset only the nearest.  With c <= R/3 the guaranteed box
    # spans the whole 3x3 neighborhood and beyond, so it settles almost
    # every point of a spread-out informed set with no distance work.
    bound2 = (radius * (1 + 1e-12)) ** 2
    cell2 = cell * cell
    # A pair within R sits at most ceil(R / c) cells apart, but the
    # quotient can round just below an integer (0.9 / 0.3 < 3) and a
    # point on a cell boundary can round into the lower cell, hence +2.
    # Offsets beyond grid-1 cells reach no new cell (out of range when
    # Euclidean, already wrapped onto covered cells when toroidal), so
    # the clamp also keeps a tightly clustered cloud (span << radius,
    # hence a tiny grid) from enumerating a huge offset range.
    dmax = min(int(radius // cell) + 2, grid - 1) if cell > 0 else 0
    guaranteed = []
    maybe = []
    for dx in range(-dmax, dmax + 1):
        for dy in range(-dmax, dmax + 1):
            nearest = (max(abs(dx) - 1, 0) ** 2 + max(abs(dy) - 1, 0) ** 2) * cell2
            if nearest > bound2:
                continue
            farthest = ((abs(dx) + 1) ** 2 + (abs(dy) + 1) ** 2) * cell2
            if farthest <= radius * radius:
                guaranteed.append((dx, dy))
            else:
                maybe.append((dx, dy))

    out_flat = out.ravel()
    settled = _shifted_any(member_occ, guaranteed,
                           periodic=periodic).ravel()[cell_id[other_idx]]
    out_flat[other_idx[settled]] = True
    pending = other_idx[~settled]
    if pending.size == 0 or not maybe:
        return out

    # Surviving points have no member in their guaranteed box, so any
    # member within R sits in a *maybe* cell.  Those candidate pairs are
    # enumerated cell-against-cell (a ragged cross-join) and the join is
    # driven from whichever side occupies fewer cells — the few members
    # early in a flood, the few surviving non-members once the informed
    # sets have spread — so work scales with the frontier shell, never
    # with the point count.
    near_member = _shifted_any(member_occ, maybe, periodic=periodic)
    pending = pending[near_member.ravel()[cell_id[pending]]]
    if pending.size == 0:
        return out
    pending_cells = cell_id[pending]
    pending_counts = np.bincount(pending_cells, minlength=num_cells)
    pending_starts = np.concatenate(([0], np.cumsum(pending_counts)))
    pending_sorted = pending[_stable_order(pending_cells, num_cells)]
    pending_occ = (pending_counts > 0).reshape(num_trials, grid, grid)
    member_starts = np.concatenate(([0], np.cumsum(member_counts)))
    members_sorted = member_idx[_stable_order(cell_id[member_idx],
                                              num_cells)]

    drive_cells = np.flatnonzero(
        (member_counts > 0)
        & _shifted_any(pending_occ, maybe, periodic=periodic).ravel())
    target_cells = np.flatnonzero(pending_counts > 0)
    if drive_cells.size <= target_cells.size:
        drive_counts, drive_starts = member_counts, member_starts
        drive_sorted = members_sorted
        target_counts, target_starts = pending_counts, pending_starts
        target_sorted = pending_sorted
    else:
        drive_cells = target_cells
        drive_counts, drive_starts = pending_counts, pending_starts
        drive_sorted = pending_sorted
        target_counts, target_starts = member_counts, member_starts
        target_sorted = members_sorted
    pending_driven = drive_sorted is pending_sorted

    # One flat join across every (drive cell, maybe offset) combination:
    # J offset columns per cell, then the ragged cross-join over the
    # combinations whose target cell is occupied.  Halo-padded per-cell
    # grids make the offset lookups single gathers with no wrap-around
    # arithmetic or bounds handling.
    halo = dmax
    wide = grid + 2 * halo
    padded_counts = _pad_cells(target_counts.reshape(num_trials, grid, grid),
                               halo, periodic=periodic).ravel()
    padded_starts = _pad_cells(
        target_starts[:-1].reshape(num_trials, grid, grid),
        halo, periodic=periodic).ravel()
    d_counts = drive_counts[drive_cells]
    d_starts = drive_starts[drive_cells]
    d_trial = drive_cells // (grid * grid)
    d_cy, d_cx = np.divmod(drive_cells - d_trial * (grid * grid), grid)
    dxs = np.asarray([o[0] for o in maybe], dtype=np.int64)
    dys = np.asarray([o[1] for o in maybe], dtype=np.int64)
    ncx = (d_cx[:, None] + (dxs[None, :] + halo)).ravel()
    ncy = (d_cy[:, None] + (dys[None, :] + halo)).ravel()
    ncell = (np.repeat(d_trial, dxs.shape[0]) * wide + ncy) * wide + ncx
    lb = padded_counts[ncell]
    sel = lb > 0
    if not sel.any():
        return out
    lb = lb[sel]
    la = np.repeat(d_counts, dxs.shape[0])[sel]
    d_start = np.repeat(d_starts, dxs.shape[0])[sel]
    t_start = padded_starts[ncell[sel]]
    # Ragged cross-join without integer division: expand combos to
    # their drive-side entries, then each entry to its target segment.
    num_entries = int(la.sum())
    combo_first = np.concatenate(([0], np.cumsum(la)[:-1]))
    within_d = np.arange(num_entries) - np.repeat(combo_first, la)
    entry_drive = drive_sorted[np.repeat(d_start, la) + within_d]
    entry_lb = np.repeat(lb, la)
    entry_t_start = np.repeat(t_start, la)
    total = int(entry_lb.sum())
    entry_first = np.concatenate(([0], np.cumsum(entry_lb)[:-1]))
    within_t = np.arange(total) - np.repeat(entry_first, entry_lb)
    pair_drive = np.repeat(entry_drive, entry_lb)
    pair_target = target_sorted[np.repeat(entry_t_start, entry_lb) + within_t]
    delta = flat_pos[pair_drive] - flat_pos[pair_target]
    if periodic:
        # Coordinates sit within one period, so the toroidal distance per
        # axis is min(|d|, boxsize - |d|) — no division, and its square
        # equals that of the wrapped difference d -+ boxsize exactly.
        np.abs(delta, out=delta)
        np.minimum(delta, boxsize - delta, out=delta)
    hits = np.einsum("ij,ij->i", delta, delta) <= bound2
    out_flat[(pair_drive if pending_driven else pair_target)[hits]] = True
    return out


def _or_shifted(into: np.ndarray, rows: np.ndarray, shift: int) -> None:
    """OR *rows* moved by *shift* columns into *into*, in place.

    Both are ``(..., W)`` bit rows of little-endian ``uint64`` words
    (column ``y`` is bit ``y % 64`` of word ``y // 64``): bit ``y`` of
    *into* gains bit ``y - shift`` of *rows*.  Whole words move by
    ``|shift| // 64``; the remaining bits carry into the neighbouring
    word, and bits moved past either end of a row drop.
    """
    whole, part = divmod(abs(shift), 64)
    keep = rows.shape[-1] - whole
    if keep <= 0:
        return
    carry = part and keep > 1
    if shift >= 0:
        src, dst = rows[..., :keep], into[..., whole:]
        dst |= src << part
        if carry:
            dst[..., 1:] |= src[..., :-1] >> (64 - part)
    else:
        src, dst = rows[..., whole:], into[..., :keep]
        dst |= src >> part
        if carry:
            dst[..., :-1] |= src[..., 1:] << (64 - part)


def lattice_within_radius(
    ix: np.ndarray,
    iy: np.ndarray,
    members: np.ndarray,
    radius: float,
    *,
    eps: float,
    grid_size: int,
) -> np.ndarray:
    """:func:`batched_within_radius` for ``B`` stacked trials whose points
    all sit on the lattice ``{(i eps, j eps) : 0 <= i, j < grid_size}``.

    On the lattice, adjacency depends only on the integer offset:
    ``(di eps)^2 + (dj eps)^2 <= (R (1 + 1e-12))^2``.  So the query needs
    no coordinates and no pair checks.  It works on bit rows: lattice
    row ``x`` of a trial is ``W = ceil(g / 64)`` little-endian ``uint64``
    words, bit ``y % 64`` of word ``y // 64`` marking a member at
    ``(x, y)``.

    1. pack each trial's members into its ``(g, W)`` bit rows;
    2. build the disc's horizontal run of every half-width ``w`` by
       shift-OR, ``run_w = run_{w-1} | rows << w | rows >> w``;
    3. OR ``run_{half(di)}`` into the dilated rows at row offsets
       ``+-di`` for every row offset ``di`` of the disc;
    4. unpack the dilated rows, read them at every point and drop the
       members.

    Work per call is ``O(B g W (2R/eps + 1))`` word operations, 64
    lattice columns to the word.  When the lattice has more than
    :data:`_MAX_CELLS_PER_POINT` points per trial point (``g^2 > 8 n``,
    fine resolutions) that grid work would outgrow the point count, so
    the points go to :func:`batched_within_radius` as Euclidean
    coordinates instead.

    Parameters
    ----------
    ix, iy:
        ``(B, n)`` integer lattice indices — trial ``b``'s point ``k``
        sits at ``(ix[b, k] eps, iy[b, k] eps)``.
    members:
        ``(B, n)`` boolean mask of each trial's member set.
    radius:
        Query radius ``R`` (inclusive, as in
        :func:`within_radius_of_members`).
    eps, grid_size:
        Lattice resolution and number of indices per axis.

    Returns
    -------
    numpy.ndarray
        ``(B, n)`` boolean mask, equal to :func:`batched_within_radius`
        on the points' coordinates.
    """
    ix = np.asarray(ix, dtype=np.int64)
    iy = np.asarray(iy, dtype=np.int64)
    members = np.asarray(members, dtype=bool)
    require(ix.ndim == 2 and ix.shape == iy.shape,
            "lattice indices must be two aligned (B, n) arrays")
    require(members.shape == ix.shape, "members mask must be (B, n)")
    radius = require_positive(radius, "radius")
    eps = require_positive(eps, "eps")

    num_trials, n = ix.shape
    g = int(grid_size)
    if g * g > _MAX_CELLS_PER_POINT * n:
        positions = np.stack((ix * eps, iy * eps), axis=-1)
        return batched_within_radius(positions, members, radius)

    # Half-width of the disc's run at each row offset |di| (-1: empty).
    # Offsets beyond g - 1 reach no lattice point; the +1 covers a
    # quotient that rounds just below an integer (0.3 / 0.1 < 3).
    limit = radius * (1 + 1e-12)
    reach = min(int(limit // eps) + 1, g - 1)
    offsets = np.arange(reach + 1) * eps
    half = ((offsets[:, None] ** 2 + offsets[None, :] ** 2 <= limit ** 2)
            .sum(axis=1) - 1)

    words = -(-g // 64)
    cols = 64 * words
    cell = ix * cols
    cell += iy
    cell += (np.arange(num_trials, dtype=np.int64) * (g * cols))[:, None]
    grid = np.zeros((num_trials, g, cols), dtype=bool)
    grid.ravel()[np.compress(members.ravel(), cell)] = True
    rows = np.packbits(grid, axis=2, bitorder="little").view("<u8")
    runs = [rows]
    for width in range(1, int(half.max()) + 1):
        run = runs[-1].copy()
        _or_shifted(run, rows, width)
        _or_shifted(run, rows, -width)
        runs.append(run)
    dilated = np.zeros_like(rows)
    for di in np.flatnonzero(half >= 0):
        run = runs[half[di]]
        dilated[:, di:] |= run[:, :g - di]
        if di:
            dilated[:, :g - di] |= run[:, di:]
    # Clear the tail bits that runs shifted past column g - 1, so the
    # words hold exactly the dilated lattice rows.
    dilated[..., -1] &= np.uint64((1 << (g - 64 * (words - 1))) - 1)
    grid = np.unpackbits(dilated.view(np.uint8), axis=2, bitorder="little")
    return grid.view(bool).ravel()[cell] & ~members


def radius_edges(positions: np.ndarray, radius: float, *,
                 boxsize: float | None = None) -> np.ndarray:
    """All undirected edges ``{u, v}`` with ``d(u, v) <= radius``.

    Returns an ``(m, 2)`` int64 array with ``u < v``.  Used to
    materialise full geometric snapshots for expansion analysis and
    tests (not on the flooding hot path).
    """
    positions = _prepare(np.asarray(positions, dtype=float), boxsize)
    radius = require_positive(radius, "radius")
    tree = cKDTree(positions, boxsize=boxsize)
    pairs = tree.query_pairs(radius * (1 + 1e-12), output_type="ndarray")
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    return np.sort(pairs.astype(np.int64), axis=1)


def radius_degrees(positions: np.ndarray, radius: float, *,
                   boxsize: float | None = None) -> np.ndarray:
    """Degree of every point in the radius graph (co-located points connect)."""
    positions = _prepare(np.asarray(positions, dtype=float), boxsize)
    radius = require_positive(radius, "radius")
    tree = cKDTree(positions, boxsize=boxsize)
    counts = tree.query_ball_point(positions, radius * (1 + 1e-12), return_length=True)
    return np.asarray(counts, dtype=np.int64) - 1  # exclude self


def brute_force_within_radius(
    positions: np.ndarray,
    members: np.ndarray,
    radius: float,
    *,
    boxsize: float | None = None,
) -> np.ndarray:
    """Reference ``O(n * |I|)`` implementation of
    :func:`within_radius_of_members` for tests."""
    positions = _prepare(np.asarray(positions, dtype=float), boxsize)
    members = np.asarray(members, dtype=bool)
    member_pos = positions[members]
    out = np.zeros(positions.shape[0], dtype=bool)
    if member_pos.size == 0:
        return out
    for idx in np.flatnonzero(~members):
        delta = member_pos - positions[idx]
        if boxsize is not None:
            delta -= boxsize * np.round(delta / boxsize)
        if np.any(np.einsum("ij,ij->i", delta, delta) <= radius * radius * (1 + 1e-12)):
            out[idx] = True
    return out
