"""Serial semantics of the protocol zoo.

Anchors of the subsystem: ``flood`` is ``spread(FLOODING, ...)``, the
probabilistic / expiring protocols keep their recorded realisations
draw for draw (golden pins), flooding dominates every protocol on a
coupled realisation, and the registry round-trips tokens.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.flooding import flood
from repro.dynamics.sequence import (
    StaticEvolvingGraph,
    complete_adjacency,
    cycle_adjacency,
)
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.edgemeg.meg import EdgeMEG
from repro.edgemeg.sparse import SparseEdgeMEG
from repro.geometric.meg import GeometricMEG
from repro.protocols import (
    FLOODING,
    ExpiringFlooding,
    Flooding,
    ProbabilisticFlooding,
    PullGossip,
    PushGossip,
    PushPullGossip,
    default_zoo,
    protocol_names,
    resolve_protocol,
    spread,
)
from repro.util.rng import spawn


def static(adj) -> StaticEvolvingGraph:
    return StaticEvolvingGraph(AdjacencySnapshot(adj))


ZOO = [
    pytest.param(ProbabilisticFlooding(0.5), id="p-flood"),
    pytest.param(ExpiringFlooding(3), id="expiring"),
    pytest.param(PushGossip(), id="push"),
    pytest.param(PullGossip(), id="pull"),
    pytest.param(PushPullGossip(), id="push-pull"),
]


def assert_same_result(a, b):
    assert a.source == b.source
    assert a.time == b.time
    assert a.completed == b.completed
    np.testing.assert_array_equal(a.informed_history, b.informed_history)
    np.testing.assert_array_equal(a.informed, b.informed)


class TestFloodingAnchor:
    @pytest.mark.parametrize("seed", [0, 1, 7, 13])
    def test_spread_is_bit_identical_to_flood(self, seed):
        meg = EdgeMEG(24, 0.3, 0.3)
        assert_same_result(flood(meg, 2, seed=seed),
                           spread(FLOODING, meg, 2, seed=seed))

    def test_multi_source(self):
        meg = GeometricMEG(30, move_radius=1.0, radius=3.0)
        assert_same_result(flood(meg, (0, 5, 11), seed=4),
                           spread(FLOODING, meg, (0, 5, 11), seed=4))

    def test_truncation(self):
        meg = EdgeMEG(40, 0.01, 0.9)
        a = flood(meg, 0, seed=3, max_steps=2)
        b = spread(FLOODING, meg, 0, seed=3, max_steps=2)
        assert not a.completed
        assert_same_result(a, b)

    def test_flooding_does_not_split_its_seed(self):
        """The seed is the graph seed, exactly like the legacy flood."""
        assert not Flooding.splits_seed


class TestSpreadLoop:
    """How the one loop touches its graph: member-set rounds ask the
    family's ``replay_neighborhood``, and the graph steps only between
    rounds."""

    @pytest.fixture
    def snapshot_calls(self, monkeypatch):
        calls = []
        original = SparseEdgeMEG.snapshot

        def counting(graph):
            calls.append(graph.time)
            return original(graph)

        monkeypatch.setattr(SparseEdgeMEG, "snapshot", counting)
        return calls

    @pytest.mark.parametrize("protocol", [
        pytest.param(FLOODING, id="flooding"),
        pytest.param(ProbabilisticFlooding(0.5), id="p-flood"),
        pytest.param(ExpiringFlooding(2), id="expiring"),
    ])
    def test_member_set_protocols_build_no_snapshot(self, protocol,
                                                    snapshot_calls):
        result = spread(protocol, SparseEdgeMEG(64, 0.05, 0.5), 0, seed=3)
        assert result.time >= 1
        assert snapshot_calls == []

    def test_sampling_protocols_build_one_snapshot_per_round(
            self, snapshot_calls):
        result = spread(PushGossip(), SparseEdgeMEG(64, 0.05, 0.5), 0, seed=3)
        assert result.completed and result.time >= 2
        assert snapshot_calls == list(range(result.time))

    @pytest.mark.parametrize("protocol", [
        pytest.param(FLOODING, id="flooding"),
        pytest.param(PushPullGossip(), id="push-pull"),
    ])
    def test_graph_left_at_last_snapshot(self, protocol):
        meg = SparseEdgeMEG(48, 0.05, 0.5)
        meg.reset(11)
        result = spread(protocol, meg, 0, seed=5, reset=False)
        assert result.completed and result.time >= 1
        assert meg.time == result.time - 1

    def test_truncated_run_left_at_last_snapshot(self):
        meg = EdgeMEG(40, 0.01, 0.9)
        result = spread(FLOODING, meg, 0, seed=3, max_steps=3)
        assert not result.completed and result.time == 3
        assert meg.time == 2

    def test_zero_round_run_does_not_step(self):
        graph = static(complete_adjacency(4))
        graph.reset(0)
        result = spread(FLOODING, graph, (0, 1, 2, 3), reset=False)
        assert result.time == 0 and result.completed
        assert graph.time == 0


def realisation_digest(result) -> str:
    """SHA-256 of a run's informed history and final informed mask."""
    digest = hashlib.sha256()
    digest.update(np.asarray(result.informed_history, dtype=np.int64).tobytes())
    digest.update(np.asarray(result.informed, dtype=bool).tobytes())
    return digest.hexdigest()


class TestGoldenRealisations:
    """Serial runs of p-flooding and expiring flooding from source 1 are
    pinned to their recorded realisations: ``(time, completed, digest)``
    with the digest of :func:`realisation_digest`.  They were recorded
    when these protocols still matched the per-node reference
    implementations they replaced draw for draw, so a change to a
    protocol's draw schedule or update order fails here and has to
    re-record them deliberately."""

    PROBABILISTIC = {
        (0.2, 0): (13, True, "9fd5c19ef82275292f56926711ae0decae9eff96ceacd677c8632b070b242465"),
        (0.2, 2): (7, True, "76778d23c434bb5b753e2d1b2c4fca422259f0d683d44e0994d49c5e1c9819da"),
        (0.2, 9): (17, True, "70ce26615102ea4ebbb73a6655f506b336209a982b8a1f9c3eb59730e925a73d"),
        (0.5, 0): (3, True, "ecf9ec636165eae73a07899a227689475316bc8230db1c3cfe7916f1b4dc96d3"),
        (0.5, 2): (2, True, "63455b4b21167c530af9efa39ba4324c739cd7a777d82a62b4fba0e43739c8df"),
        (0.5, 9): (2, True, "63455b4b21167c530af9efa39ba4324c739cd7a777d82a62b4fba0e43739c8df"),
        (1.0, 0): (3, True, "4c1cd3fa8ce77f94d8f27d2c240bda3650beed6020e423dee2a7589e7a47ec24"),
        (1.0, 2): (2, True, "63455b4b21167c530af9efa39ba4324c739cd7a777d82a62b4fba0e43739c8df"),
        (1.0, 9): (2, True, "63455b4b21167c530af9efa39ba4324c739cd7a777d82a62b4fba0e43739c8df"),
    }

    EXPIRING = {
        (1, 0): (4, True, "35437da9e9e58f780d42f76575782226de80f30e6779b724e6685c6bf571b02b"),
        (1, 2): (7, False, "a1b70af77a9346d18b9c389f4b63cf349dfd4503d056164de18df87d93281b7b"),
        (1, 9): (5, False, "e8bc6111795a34c760ff10c8f9008b6acf6031ac81213c2d3bf5edbca8ac6514"),
        (2, 0): (4, True, "4cf49ac0fccc89e7bf35185ce2ab43ed92b72bbf0ba36b66719f00e4d3954f01"),
        (2, 2): (6, True, "e92055f1bfa63dcb4b92304c6f536ef66278fa503d0a7517fee9cafff8fd1503"),
        (2, 9): (6, False, "a3d605e01c5a7cba8e1a8621b33f44840a85d0e4188430f86170a0082b0d14f6"),
        (5, 0): (4, True, "4cf49ac0fccc89e7bf35185ce2ab43ed92b72bbf0ba36b66719f00e4d3954f01"),
        (5, 2): (5, True, "99e94c8d2dc4b8d08c19a9ce5e3ca1b77e41af1cd5b701e3b3be916417c26aca"),
        (5, 9): (4, True, "a019d8d84bb6d597ece18633c6db3ac50149076e659d6405b536205e01d92df9"),
    }

    @pytest.mark.parametrize("p, seed", sorted(PROBABILISTIC))
    def test_probabilistic(self, p, seed):
        result = spread(ProbabilisticFlooding(p), EdgeMEG(24, 0.25, 0.4), 1,
                        seed=seed)
        assert ((result.time, result.completed, realisation_digest(result))
                == self.PROBABILISTIC[p, seed])

    @pytest.mark.parametrize("k, seed", sorted(EXPIRING))
    def test_expiring(self, k, seed):
        result = spread(ExpiringFlooding(k), EdgeMEG(24, 0.1, 0.6), 1,
                        seed=seed)
        assert ((result.time, result.completed, realisation_digest(result))
                == self.EXPIRING[k, seed])


def two_cliques() -> np.ndarray:
    """Two disjoint 4-cliques: nothing crosses from one to the other."""
    adj = np.zeros((8, 8), dtype=bool)
    adj[:4, :4] = True
    adj[4:, 4:] = True
    np.fill_diagonal(adj, False)
    return adj


def isolated_source() -> np.ndarray:
    """Three nodes where only 1 and 2 are joined: source 0 has no
    neighbour to push to."""
    adj = np.zeros((3, 3), dtype=bool)
    adj[1, 2] = adj[2, 1] = True
    return adj


GRAPHS = [
    pytest.param(lambda: EdgeMEG(24, 0.2, 0.4), id="edge-meg"),
    pytest.param(lambda: static(cycle_adjacency(14)), id="static-cycle"),
    pytest.param(lambda: static(complete_adjacency(16)), id="static-complete"),
]


class TestProtocolSemantics:
    @pytest.mark.parametrize("graph", GRAPHS)
    def test_p_one_equals_flooding_informed_sets(self, graph):
        """p-flood with p=1 is flooding on the coupled realisation."""
        g = graph()
        proto = spread(ProbabilisticFlooding(1.0), g, 0, seed=5)
        reference = flood(g, 0, seed=spawn(5, 2)[0])
        assert proto.time == reference.time
        np.testing.assert_array_equal(proto.informed, reference.informed)

    @pytest.mark.parametrize("protocol, adj, informed, max_steps, max_time", [
        # Transmitters expire: the run retires early instead of burning
        # the 4n + 64 = 96 step budget.
        pytest.param(ExpiringFlooding(2), two_cliques(), 4, None, 4,
                     id="expiring-two-cliques"),
        pytest.param(PushGossip(), isolated_source(), 1, 5, 5,
                     id="push-isolated-source"),
    ])
    def test_stalls_and_reports_truncation(self, protocol, adj, informed,
                                           max_steps, max_time):
        res = spread(protocol, static(adj), 0, seed=0, max_steps=max_steps)
        assert not res.completed
        assert res.num_informed == informed
        assert res.time <= max_time

    @pytest.mark.parametrize("graph", GRAPHS)
    @pytest.mark.parametrize("protocol", ZOO)
    def test_dominated_by_flooding(self, protocol, graph):
        """On the same coupled realisation, flooding's informed set
        contains the protocol's at the protocol's horizon (flooding
        transmits a superset of messages), so it completes no later."""
        g = graph()
        for seed in range(6):
            proto = spread(protocol, g, 0, seed=seed)
            reference = flood(g, 0, seed=spawn(seed, 2)[0],
                              max_steps=max(1, proto.time))
            assert not (proto.informed & ~reference.informed).any()
            if proto.completed:
                assert reference.completed

    @pytest.mark.parametrize("graph", GRAPHS)
    @pytest.mark.parametrize("protocol", ZOO)
    def test_histories_well_formed(self, protocol, graph):
        res = spread(protocol, graph(), 0, seed=3)
        assert res.informed_history[0] == 1
        assert (np.diff(res.informed_history) >= 0).all()
        assert res.informed_history[-1] == res.informed.sum()

    @pytest.mark.parametrize("protocol, adj, times", [
        # On a cycle push has at most two frontier nodes; flooding
        # needs exactly n/2 = 6.
        pytest.param(PushGossip(), cycle_adjacency(12), range(6, 113),
                     id="push-cycle"),
        pytest.param(PushGossip(), complete_adjacency(16), range(1, 129),
                     id="push-complete"),
        pytest.param(PullGossip(), complete_adjacency(32), range(1, 193),
                     id="pull-complete"),
        pytest.param(ExpiringFlooding(1), complete_adjacency(12), range(1, 2),
                     id="expiring-one-step-complete"),
        # Relaying far longer than the diameter is flooding.
        pytest.param(ExpiringFlooding(100), cycle_adjacency(12), range(6, 7),
                     id="expiring-long-cycle"),
    ])
    def test_completes_on_static_graphs(self, protocol, adj, times):
        res = spread(protocol, static(adj), 0, seed=0)
        assert res.completed
        assert res.time in times

    @pytest.mark.parametrize("fast, slow, n, slack", [
        pytest.param(ProbabilisticFlooding(1.0), ProbabilisticFlooding(0.1),
                     30, 0.0, id="p-flood-lower-p-is-slower"),
        pytest.param(PushPullGossip(), PushGossip(), 24, 1.0,
                     id="push-pull-vs-push"),
        # With one uninformed node on K_n, pull finishes next round
        # w.p. 1 while push needs a lucky hit: pull's endgame edge.
        pytest.param(PullGossip(), PushGossip(), 24, 0.0,
                     id="pull-endgame-vs-push"),
    ])
    def test_faster_on_average_on_complete_graph(self, fast, slow, n, slack):
        g = static(complete_adjacency(n))

        def mean_time(protocol):
            return np.mean([spread(protocol, g, 0, seed=s).time
                            for s in range(8)])

        assert mean_time(fast) <= mean_time(slow) + slack


class TestRegistryTokens:
    def test_round_trip(self):
        for protocol in default_zoo():
            assert resolve_protocol(protocol.token()) == protocol

    def test_cli_spellings(self):
        assert resolve_protocol("push-pull") == PushPullGossip()
        assert (resolve_protocol("p-flood:transmit_probability=0.3")
                == ProbabilisticFlooding(0.3))
        assert (resolve_protocol("expiring(active_steps=4)")
                == ExpiringFlooding(4))
        assert resolve_protocol("flooding") is FLOODING

    def test_instances_pass_through(self):
        proto = ExpiringFlooding(7)
        assert resolve_protocol(proto) is proto

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            resolve_protocol("carrier-pigeon")

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError, match="bad parameters"):
            resolve_protocol("push:wings=2")
        for p in ("0", "1.5"):
            with pytest.raises(ValueError):
                resolve_protocol(f"p-flood:transmit_probability={p}")
        with pytest.raises(ValueError):
            ProbabilisticFlooding(0.0)

    def test_repeated_parameter_rejected(self):
        with pytest.raises(ValueError, match="repeated protocol parameter"):
            resolve_protocol("p-flood:transmit_probability=0.5,"
                             "transmit_probability=0.2")
        with pytest.raises(ValueError, match="repeated protocol parameter"):
            resolve_protocol("expiring(active_steps=2, active_steps=3)")

    def test_names_registered(self):
        assert {"flooding", "p-flood", "expiring", "push", "pull",
                "push-pull"} <= set(protocol_names())

    def test_tokens_pin_parameters(self):
        assert (ProbabilisticFlooding(0.25).token()
                != ProbabilisticFlooding(0.5).token())
        assert ExpiringFlooding(2).token() == "expiring(active_steps=2)"
        assert FLOODING.token() == "flooding"
