"""Packed bit rows, the one layout of the exact set-union kernels.

A row over ``m`` columns is ``ceil(m / 64)`` little-endian ``uint64``
words, column ``y`` is bit ``y % 64`` of word ``y // 64``, and the bits
past ``m`` are zero; a union is a word-wise OR, its size a
``np.bitwise_count``.  DESIGN.md ("Packed bit rows") lists the callers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack", "unpack", "or_shifted"]


def pack(bools: np.ndarray) -> np.ndarray:
    """The ``(..., m)`` booleans *bools* as ``(..., ceil(m / 64))`` rows."""
    m = bools.shape[-1]
    if m % 64:  # packbits is fastest on whole words of columns
        padded = np.zeros(bools.shape[:-1] + (m - m % 64 + 64,), dtype=bool)
        padded[..., :m] = bools
        bools = padded
    return np.packbits(bools, axis=-1, bitorder="little").view("<u8")


def unpack(words: np.ndarray, m: int) -> np.ndarray:
    """The ``(..., m)`` booleans of the rows *words*; bits past m drop."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=m,
                         bitorder="little").view(bool)


def or_shifted(into: np.ndarray, rows: np.ndarray, shift: int) -> None:
    """OR *rows* moved by *shift* columns into *into*, in place.

    Bit ``y`` of *into* gains bit ``y - shift`` of *rows*.  Whole words
    move by ``|shift| // 64``; the remaining bits carry into the
    neighbouring word, and bits moved past either end of the words
    drop.  A positive shift can set bits past ``m``: :func:`unpack`
    ignores them, a popcount would not.
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
