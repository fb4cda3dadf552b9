"""Assertions for validating engine backends and custom kernels.

A model family naming its own
:class:`~repro.dynamics.batched.BatchedDynamics` provider signs up for
the replay contract: for the same seed, every backend must reproduce
the serial reference **bit for bit**.  Every backend runs replayed
trials as :func:`repro.protocols.runner.spread` calls, which ask the
provider's ``replay_neighborhood``, so the check that reaches a new
provider compares the engine with a loop of its own on
``graph.snapshot()`` over the replay layout (``spawn(seed, 2 *
trials)`` as ``(graph, source)`` pairs), as the repository's
``tests/engine/test_replay_reference.py`` does::

    from repro.engine.testing import assert_results_bit_identical

    engine = flooding_trials(model, trials=5, seed=0, backend="batched")
    assert_results_bit_identical(snapshot_reference, engine)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.flooding import FloodingResult

__all__ = ["assert_results_bit_identical"]


def assert_results_bit_identical(serial: Sequence[FloodingResult],
                                 engine: Sequence[FloodingResult]) -> None:
    """Assert two trial-result lists agree draw for draw.

    Compares sources, flooding times, completion flags, informed-count
    histories, and final informed masks — everything a
    :class:`~repro.core.flooding.FloodingResult` carries.  Raises
    :class:`AssertionError` naming the first diverging trial.
    """
    assert len(serial) == len(engine), (
        f"trial counts differ: {len(serial)} != {len(engine)}")
    for i, (a, b) in enumerate(zip(serial, engine)):
        assert a.source == b.source, f"trial {i}: sources differ"
        assert a.time == b.time, f"trial {i}: times differ"
        assert a.completed == b.completed, f"trial {i}: completion differs"
        np.testing.assert_array_equal(a.informed_history, b.informed_history,
                                      err_msg=f"trial {i}: histories differ")
        np.testing.assert_array_equal(a.informed, b.informed,
                                      err_msg=f"trial {i}: masks differ")
