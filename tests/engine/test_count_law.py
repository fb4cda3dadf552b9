"""The count-chain tier of native edge-MEG flooding.

Native flooding on a provider that declares a count law runs as a
Markov chain on two informed counts instead of through the churn
kernel.  These tests hold it to the exact law three ways: a closed form
at ``n = 2``, seeded two-sample chi-squared tests against the serial
replay and against the churn kernel it replaces, and the degenerate
rates where ``log(1 - p)`` is ``-inf``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from repro import obs
from repro.dynamics.batched import batched_dynamics_for
from repro.edgemeg.independent import IndependentDynamicGraph, IndependentMEG
from repro.edgemeg.meg import EdgeMEG
from repro.edgemeg.sparse import SparseEdgeMEG
from repro.engine import SimulationPlan, run_plan
from repro.engine.batch import _run_chunk_native, batched_protocol_for
from repro.geometric.meg import GeometricMEG
from repro.obs.sinks import MemorySink

#: Trials per sample in every two-sample test.
SAMPLE = 2000

#: Models (and sources) the count tier is tested on, dense and sparse.
CASES = [
    pytest.param(lambda: EdgeMEG(16, 0.3, 0.5), None, id="edge-dense"),
    pytest.param(lambda: EdgeMEG(48, 0.02, 0.5), None, id="edge-sparse"),
    pytest.param(lambda: SparseEdgeMEG(40, 0.03, 0.4), None,
                 id="sparse-edge"),
    pytest.param(lambda: IndependentMEG(40, 0.04), None, id="independent"),
    pytest.param(lambda: EdgeMEG(40, 0.02, 0.4), (0, 5, 11),
                 id="multi-source"),
]

#: One false-positive budget for every chi-squared test in this module
#: (two per case, the n = 2 closed form and the mask law), split evenly.
FALSE_POSITIVE_BUDGET = 0.01
ALPHA = FALSE_POSITIVE_BUDGET / (2 * len(CASES) + 2)


def pooled_bins(counts: np.ndarray, floor: float) -> list[slice]:
    """Adjacent bins merged left to right until each column total
    reaches *floor*; a short remainder joins the last bin."""
    bins, start, total = [], 0, 0.0
    for j, column in enumerate(counts):
        total += column
        if total >= floor:
            bins.append(slice(start, j + 1))
            start, total = j + 1, 0.0
    if start < len(counts):
        if bins:
            bins[-1] = slice(bins[-1].start, len(counts))
        else:
            bins.append(slice(0, len(counts)))
    return bins


def two_sample_p(a: np.ndarray, b: np.ndarray) -> float:
    """Chi-squared homogeneity p-value of two integer samples, with
    tail bins pooled so every expected count is at least 5."""
    width = int(max(a.max(), b.max())) + 1
    table = np.stack([np.bincount(a, minlength=width),
                      np.bincount(b, minlength=width)])
    floor = 5.0 * table.sum() / table.sum(axis=1).min()
    bins = pooled_bins(table.sum(axis=0), floor)
    if len(bins) < 2:
        return 1.0
    pooled = np.stack([table[:, s].sum(axis=1) for s in bins], axis=1)
    return stats.chi2_contingency(pooled, correction=False)[1]


def native_times(model, source=None, seed=0, trials=SAMPLE) -> np.ndarray:
    plan = SimulationPlan(model=model, trials=trials, seed=seed,
                          source=source, rng_mode="native")
    return run_plan(plan, backend="batched").times


def chunk_tiers(plan: SimulationPlan) -> set[str]:
    sink = MemorySink()
    previous = obs.configure(sink)
    try:
        run_plan(plan, backend="batched")
    finally:
        obs.configure(previous if previous.live else None)
    return {ev["attrs"]["tier"] for ev in sink.events
            if ev["kind"] == "span" and ev["name"] == "engine.chunk"}


class TestExactLaw:
    def test_two_nodes_match_the_closed_form(self):
        """n = 2: T = 1 iff the edge is present at time 0 (p_hat), else
        the absent edge is born after k - 2 failed births."""
        p, q = 0.3, 0.4
        p_hat = p / (p + q)
        times = native_times(EdgeMEG(2, p, q), seed=3, trials=20_000)
        width = int(times.max()) + 1
        law = np.array([0.0, p_hat] + [(1 - p_hat) * (1 - p) ** (k - 2) * p
                                       for k in range(2, width)])
        law[-1] += 1.0 - law.sum()  # the tail beyond the largest draw
        observed = np.bincount(times, minlength=width)
        expected = law * times.size
        bins = pooled_bins(expected, 5.0)
        p_value = stats.chisquare(
            [observed[s].sum() for s in bins],
            [expected[s].sum() for s in bins])[1]
        assert p_value > ALPHA

    def test_stay_log_matches_the_product_form(self):
        kernel = batched_dynamics_for(EdgeMEG(10, 0.2, 0.3))
        got = kernel.count_stay_log(np.array([0, 3, 2]), np.array([1, 2, 0]))
        want = [math.log(0.6), 3 * math.log(0.8) + 2 * math.log(0.6),
                2 * math.log(0.8)]
        np.testing.assert_allclose(got, want)


class TestDegenerateRates:
    def test_certain_birth_has_exact_limits(self):
        """p = 1: an edge absent last round is present now."""
        meg = EdgeMEG(12, 1.0, 0.5)
        kernel = batched_dynamics_for(meg)
        with np.errstate(all="raise"):
            got = kernel.count_stay_log(np.array([0, 0, 3]),
                                        np.array([0, 2, 1]))
        np.testing.assert_array_equal(
            got, [0.0, 2 * math.log1p(-meg.p_hat), -np.inf])
        times = native_times(meg, trials=200)
        assert set(np.unique(times)) <= {1, 2}

    def test_certain_presence_has_exact_limits(self):
        """p_hat = 1 (q = 0): the graph is complete at every step."""
        meg = EdgeMEG(12, 0.4, 0.0)
        kernel = batched_dynamics_for(meg)
        with np.errstate(all="raise"):
            got = kernel.count_stay_log(np.array([0, 2]), np.array([0, 1]))
        np.testing.assert_array_equal(got, [0.0, -np.inf])
        assert (native_times(meg, trials=200) == 1).all()


class TestMasks:
    @pytest.mark.parametrize("source", [None, (0, 7, 9)])
    def test_truncated_masks_hold_sources_and_final_count(self, source):
        plan = SimulationPlan(model=EdgeMEG(40, 0.01, 0.9), trials=64,
                              seed=1, source=source, max_steps=2,
                              rng_mode="native")
        ensemble = run_plan(plan, backend="batched")
        truncated = np.flatnonzero(~ensemble.completed)
        assert truncated.size
        for i in truncated:
            mask = ensemble.informed[i]
            assert mask[list(ensemble.sources[i])].all()
            assert mask.sum() == ensemble.histories[i][-1]
        assert ensemble.informed[ensemble.completed].all()

    def test_truncated_masks_are_uniform_outside_the_sources(self):
        plan = SimulationPlan(model=EdgeMEG(10, 0.05, 0.5), trials=4000,
                              seed=2, source=0, max_steps=1,
                              rng_mode="native")
        ensemble = run_plan(plan, backend="batched")
        extra = ensemble.informed[:, 1:].sum(axis=0)
        assert extra.sum() > 1000
        assert stats.chisquare(extra)[1] > ALPHA


class TestSelection:
    def test_edge_flooding_runs_the_count_chain(self):
        plan = SimulationPlan(model=EdgeMEG(20, 0.1, 0.4), trials=4,
                              seed=0, rng_mode="native")
        assert chunk_tiers(plan) == {"counts"}

    @pytest.mark.parametrize("plan, tier", [
        (SimulationPlan(model=EdgeMEG(20, 0.1, 0.4), trials=4, seed=0,
                        rng_mode="native", protocol="p-flood"), "kernel"),
        (SimulationPlan(model=GeometricMEG(20, move_radius=1.0, radius=3.0),
                        trials=4, seed=0, rng_mode="native"), "kernel"),
        (SimulationPlan(model=IndependentDynamicGraph(12, 0.2), trials=4,
                        seed=0, rng_mode="native"), "generic"),
        (SimulationPlan(model=EdgeMEG(20, 0.1, 0.4), trials=4, seed=0),
         "replay"),
    ], ids=["p-flood", "geometric", "unregistered", "replay"])
    def test_other_paths_keep_their_tier(self, plan, tier):
        assert chunk_tiers(plan) == {tier}

    def test_overridden_step_declines_the_count_law(self):
        class Lazy(EdgeMEG):
            def step(self):
                super().step()

        kernel = batched_dynamics_for(Lazy(10, 0.2, 0.3))
        assert not kernel.count_law and not kernel.native_capable


@pytest.mark.parametrize("factory, source", CASES)
class TestConformance:
    def test_matches_serial_replay(self, factory, source):
        replay = run_plan(SimulationPlan(model=factory(), trials=SAMPLE,
                                         seed=11, source=source),
                          backend="batched").times
        counts = native_times(factory(), source, seed=12)
        assert two_sample_p(replay, counts) > ALPHA

    def test_matches_churn_kernel(self, factory, source):
        plan = SimulationPlan(model=factory(), trials=SAMPLE, source=source,
                              rng_mode="native")
        kernel = batched_dynamics_for(plan.make_model())
        pk = batched_protocol_for(plan.protocol, kernel.num_nodes)
        churn = _run_chunk_native(plan, kernel, pk, np.random.default_rng(13),
                                  SAMPLE, 4 * kernel.num_nodes + 64).times
        counts = native_times(factory(), source, seed=14)
        assert two_sample_p(churn, counts) > ALPHA


def test_chi_squared_catches_a_biased_law():
    """Power: the same test at the same sample size rejects a birth
    rate 30% too low."""
    good = native_times(EdgeMEG(48, 0.02, 0.5), seed=15)
    biased = native_times(EdgeMEG(48, 0.014, 0.5), seed=16)
    assert two_sample_p(good, biased) < ALPHA
