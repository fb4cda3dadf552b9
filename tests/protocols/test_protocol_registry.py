"""One law per protocol: the engine's lookup, the native gate, and
subclasses that override a rule.

Each protocol writes its rules once, on the protocol class, over a
leading trial axis.  The serial loop and the engine's replay loop run
them as the one-trial case and the native loop on whole chunks, so a
subclass that overrides one rule must get that rule on every backend:
replay bit-identical to serial, native the same process law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

from repro import obs
from repro.edgemeg.meg import EdgeMEG
from repro.edgemeg.sparse import SparseEdgeMEG
from repro.engine.batch import batched_protocol_for, member_set
from repro.engine.testing import assert_results_bit_identical as assert_bit_identical
from repro.geometric.meg import GeometricMEG
from repro.obs.sinks import MemorySink
from repro.protocols import (
    FLOODING,
    ExpiringFlooding,
    ProbabilisticFlooding,
    PullGossip,
    PushGossip,
    PushPullGossip,
    SpreadingProtocol,
    default_zoo,
    spreading_trials,
)


@dataclass(frozen=True)
class TunedPFlood(ProbabilisticFlooding):
    """Plain re-parameterisation: runs the p-flood rules."""

    transmit_probability: float = 0.25

    name: ClassVar[str] = "tuned-p-flood"


@dataclass(frozen=True)
class SamplingProtocol(SpreadingProtocol):
    """A fresh protocol family with its own per-trial transmission rule."""

    name: ClassVar[str] = "sampling"

    def transmit(self, snapshot, informed, active, rng):
        return snapshot.neighborhood_mask(informed)


@dataclass(frozen=True)
class EveryoneFires(ProbabilisticFlooding):
    """Overrides only the activation rule: every informed node fires."""

    def batch_active(self, state, informed, act, t, rng):
        return informed[act]


@dataclass(frozen=True)
class NeverRetires(ExpiringFlooding):
    """Overrides only the stall rule: runs never retire early."""

    def batch_stalled(self, state, informed, act, t):
        return None


def geometric() -> GeometricMEG:
    """A family with native kernels and no count law, so native
    flooding runs the kernel tier too."""
    return GeometricMEG(30, move_radius=1.0, radius=3.0)


def mean_time(results) -> float:
    return float(np.mean([r.time for r in results]))


def chunk_tiers(protocol, graph) -> set[str]:
    sink = MemorySink()
    previous = obs.configure(sink)
    try:
        spreading_trials(protocol, graph, trials=4, seed=0,
                         backend="batched", rng_mode="native")
    finally:
        obs.configure(previous if previous.live else None)
    return {ev["attrs"]["tier"] for ev in sink.events
            if ev["kind"] == "span" and ev["name"] == "engine.chunk"}


class TestDispatch:
    def test_lookup_is_the_protocol_itself(self):
        for protocol in default_zoo() + (TunedPFlood(), SamplingProtocol()):
            assert batched_protocol_for(protocol, 8) is protocol

    @pytest.mark.parametrize("protocol", [
        FLOODING, ProbabilisticFlooding(), ExpiringFlooding(), TunedPFlood(),
        EveryoneFires(), NeverRetires()])
    def test_member_set_protocols_run_native_kernels(self, protocol):
        assert member_set(protocol)
        assert chunk_tiers(protocol, geometric()) == {"kernel"}

    @pytest.mark.parametrize("protocol", [
        PushGossip(), PullGossip(), PushPullGossip(), SamplingProtocol()])
    def test_overriding_transmit_runs_trial_by_trial(self, protocol):
        assert not member_set(protocol)
        assert chunk_tiers(protocol, geometric()) == {"generic"}


class TestSubclassCorrectness:
    def test_sampling_protocol_rides_every_backend(self):
        """A protocol with its own transmit rule is engine-runnable,
        replay bit-identical to serial."""
        meg = EdgeMEG(16, 0.3, 0.3)
        protocol = SamplingProtocol()
        serial = spreading_trials(protocol, meg, trials=4, seed=3)
        batched = spreading_trials(protocol, meg, trials=4, seed=3,
                                   backend="batched", chunk_size=2)
        assert_bit_identical(serial, batched)
        native = spreading_trials(protocol, meg, trials=4, seed=3,
                                  backend="batched", rng_mode="native")
        again = spreading_trials(protocol, meg, trials=4, seed=3,
                                 backend="batched", rng_mode="native")
        assert_bit_identical(native, again)

    def test_reparameterised_subclass_is_exact(self):
        meg = EdgeMEG(20, 0.2, 0.4)
        serial = spreading_trials(TunedPFlood(), meg, trials=4, seed=7)
        batched = spreading_trials(TunedPFlood(), meg, trials=4, seed=7,
                                   backend="batched")
        assert_bit_identical(serial, batched)
        # ...and identical to the parent class at the same parameter:
        # same rules, same draws, different class is irrelevant.
        parent = spreading_trials(ProbabilisticFlooding(0.25), meg,
                                  trials=4, seed=7)
        np.testing.assert_array_equal(
            [r.time for r in serial], [r.time for r in parent])


class TestOneLaw:
    """A subclass overriding one rule gets it on every backend."""

    def test_overridden_activation_rule(self):
        meg = EdgeMEG(128, 0.02, 0.5)
        protocol = EveryoneFires()
        serial = spreading_trials(protocol, meg, trials=64, seed=3)
        replay = spreading_trials(protocol, meg, trials=64, seed=3,
                                  backend="batched", chunk_size=16)
        assert_bit_identical(serial, replay)
        # Every informed node fires: flooding on the coupled graphs.
        flooding = spreading_trials(ProbabilisticFlooding(1.0), meg,
                                    trials=64, seed=3)
        np.testing.assert_array_equal([r.time for r in serial],
                                      [r.time for r in flooding])
        native = spreading_trials(protocol, meg, trials=64, seed=3,
                                  backend="batched", rng_mode="native")
        assert 0.7 <= mean_time(native) / mean_time(serial) <= 1.4

    def test_overridden_stall_rule(self):
        meg = SparseEdgeMEG(40, 0.01, 0.8)  # too sparse for k=1 relaying
        protocol = NeverRetires(1)
        kwargs = dict(trials=16, seed=1, max_steps=48)
        serial = spreading_trials(protocol, meg, **kwargs)
        replay = spreading_trials(protocol, meg, backend="batched",
                                  chunk_size=5, **kwargs)
        assert_bit_identical(serial, replay)
        native = spreading_trials(protocol, meg, backend="batched",
                                  rng_mode="native", **kwargs)
        for results in (serial, native):
            stuck = [r for r in results if not r.completed]
            assert stuck, "fixture should stall"
            # No early retirement: every stuck run burns the budget.
            assert all(r.time == 48 for r in stuck)
        assert 0.7 <= mean_time(native) / mean_time(serial) <= 1.4
