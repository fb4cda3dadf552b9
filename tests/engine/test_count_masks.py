"""``_count_masks``: final informed masks rebuilt from count-chain counts.

The count tier keeps only informed counts; masks are expanded on
request, after the chain.  Each row must hold its sources, sum to its
final count, be all-True when the trial completed, and — for a
truncated trial — be its sources plus a uniformly random subset of the
other nodes of the right size.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.engine.batch import _count_masks

#: False-positive rate of the seeded uniformity test.
ALPHA = 1e-3


@st.composite
def count_rows(draw):
    """``(n, sources, final, completed)`` for a handful of trials."""
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.tuples(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n),
                 unique=True),
        st.booleans(), st.integers(0, n)), min_size=1, max_size=6))
    sources, final, completed = [], [], []
    for members, done, extra in rows:
        done = done or len(members) == n  # every node informed: complete
        sources.append(tuple(members))
        completed.append(done)
        # A truncated trial ends short of n and never below its sources.
        final.append(n if done else len(members) + extra % (n - len(members)))
    return n, sources, np.array(final), np.array(completed)


@settings(max_examples=200, deadline=None)
@given(count_rows(), st.integers(0, 2**32 - 1))
def test_masks_hold_sources_and_counts(rows, seed):
    n, sources, final, completed = rows
    informed = _count_masks(np.random.default_rng(seed), n, sources, final,
                            completed)
    assert informed.shape == (len(sources), n)
    np.testing.assert_array_equal(informed.sum(axis=1), final)
    for mask, members in zip(informed, sources):
        assert mask[list(members)].all()
    assert informed[completed].all()


def test_truncated_subsets_are_uniform_given_the_count():
    """Source 0 and two more of the other five nodes: each of the
    ``C(5, 2) = 10`` subsets must be equally likely."""
    trials = 5000
    informed = _count_masks(np.random.default_rng(7), 6, [(0,)] * trials,
                            np.full(trials, 3), np.zeros(trials, dtype=bool))
    seen = Counter(tuple(np.flatnonzero(row[1:]).tolist()) for row in informed)
    assert set(seen) == set(combinations(range(5), 2))
    assert stats.chisquare(list(seen.values()))[1] > ALPHA
