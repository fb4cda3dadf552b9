"""Tests for repro.util.bits — the packed bit-row layout, checked against
plain boolean arrays on rows that end inside, at and past a word."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.util import bits

#: Row widths around the 64-column word boundary.
WIDTHS = st.sampled_from([1, 63, 64, 65, 130])


@st.composite
def row_stacks(draw, count: int = 1):
    """*count* boolean arrays of one shape ``(*lead, m)``, with up to two
    leading batch axes."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2))) + (draw(WIDTHS),)
    return [draw(arrays(bool, shape)) for _ in range(count)]


class TestPackUnpack:
    @settings(max_examples=60, deadline=None)
    @given(stack=row_stacks())
    def test_round_trip(self, stack):
        (rows,) = stack
        m = rows.shape[-1]
        words = bits.pack(rows)
        assert words.dtype == np.uint64
        assert words.shape == rows.shape[:-1] + (-(-m // 64),)
        np.testing.assert_array_equal(bits.unpack(words, m), rows)

    @settings(max_examples=60, deadline=None)
    @given(stack=row_stacks())
    def test_column_y_is_bit_y_mod_64_of_word_y_div_64(self, stack):
        (rows,) = stack
        m = rows.shape[-1]
        words = bits.pack(rows)
        y = np.arange(64 * words.shape[-1])
        got = (words[..., y // 64] >> (y % 64).astype(np.uint64)) & np.uint64(1)
        expected = np.zeros(rows.shape[:-1] + y.shape, dtype=bool)
        expected[..., :m] = rows  # and the bits past m are zero
        np.testing.assert_array_equal(got.astype(bool), expected)

    @settings(max_examples=60, deadline=None)
    @given(stack=row_stacks())
    def test_bitwise_count_is_the_row_sum(self, stack):
        (rows,) = stack
        np.testing.assert_array_equal(
            np.bitwise_count(bits.pack(rows)).sum(axis=-1), rows.sum(axis=-1))


def shift_with_drop(into: np.ndarray, rows: np.ndarray, shift: int) -> np.ndarray:
    """Reference: column ``y`` of *into* ORed with column ``y - shift``
    of *rows*; columns moved out of ``[0, m)`` drop."""
    out = into.copy()
    m = rows.shape[-1]
    if shift >= 0:
        out[..., shift:] |= rows[..., :max(m - shift, 0)]
    else:
        out[..., :max(m + shift, 0)] |= rows[..., -shift:]
    return out


class TestOrShifted:
    @settings(max_examples=150, deadline=None)
    @given(stack=row_stacks(count=2), shift=st.integers(-129, 129))
    def test_matches_boolean_shift_with_drop(self, stack, shift):
        into, rows = stack
        m = rows.shape[-1]
        words = bits.pack(into)
        bits.or_shifted(words, bits.pack(rows), shift)
        np.testing.assert_array_equal(bits.unpack(words, m),
                                      shift_with_drop(into, rows, shift))
