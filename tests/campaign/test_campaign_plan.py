"""Tests for campaign planning and the cache-key contract."""

from __future__ import annotations

import pytest

from repro.analysis.sweep import parameter_grid
from repro.campaign.jobs import JobQueue
from repro.campaign.plan import CampaignPlan, plan_experiments, plan_sweep
from repro.campaign.store import ResultStore
from repro.experiments.common import ExperimentConfig
from repro.util.rng import derive_seed


def _double(point):
    return {"value": point["n"] * 2}


class TestExperimentPlans:
    def test_expansion(self):
        plan = plan_experiments(["E1", "E4"], ExperimentConfig(scale="quick"))
        assert [unit.label for unit in plan] == ["E1", "E4"]
        assert all(unit.kind == "experiment" for unit in plan)
        assert len(set(plan.keys())) == 2

    def test_ids_normalise(self):
        config = ExperimentConfig()
        assert (plan_experiments(["e04"], config).keys()
                == plan_experiments(["E4"], config).keys())

    def test_duplicates_collapse(self):
        config = ExperimentConfig()
        assert len(plan_experiments(["E1", "e1", "E1"], config)) == 1

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            plan_experiments(["E99"], ExperimentConfig())

    def test_spec_pins_the_work(self):
        base = plan_experiments(["E4"], ExperimentConfig()).keys()
        for other in (ExperimentConfig(scale="quick"),
                      ExperimentConfig(seed=1),
                      ExperimentConfig(trials=5)):
            assert plan_experiments(["E4"], other).keys() != base


class TestReplayContract:
    """serial/batched/parallel share keys; native never aliases them."""

    def test_replay_backends_share_keys(self):
        keys = {
            tuple(plan_experiments(["E8"], ExperimentConfig(backend=b)).keys())
            for b in ("serial", "batched", "parallel")
        }
        assert len(keys) == 1

    def test_native_gets_its_own_key(self):
        replay = plan_experiments(["E8"], ExperimentConfig()).keys()
        native = plan_experiments(
            ["E8"], ExperimentConfig(backend="native")).keys()
        assert replay != native

    def test_jobs_never_affect_keys(self):
        a = plan_experiments(["E8"], ExperimentConfig(backend="parallel",
                                                      jobs=2)).keys()
        b = plan_experiments(["E8"], ExperimentConfig(backend="parallel",
                                                      jobs=8)).keys()
        assert a == b

    def test_stream_contract_strings(self):
        assert ExperimentConfig().stream_contract() == "replay"
        assert ExperimentConfig(backend="parallel").stream_contract() == "replay"
        assert ExperimentConfig(backend="native").stream_contract() == "native/cs64"


class TestSweepPlans:
    def test_points_keep_run_sweep_seeds(self):
        grid = parameter_grid(n=[4, 8, 16])
        plan = plan_sweep(_double, grid, seed=11)
        assert [unit.spec["seed"] for unit in plan] == [
            derive_seed(11, i) for i in range(3)]

    def test_sweep_id_namespaces_keys(self):
        grid = parameter_grid(n=[4])
        a = plan_sweep(_double, grid, seed=1, sweep_id="a").keys()
        b = plan_sweep(_double, grid, seed=1, sweep_id="b").keys()
        assert a != b

    def test_default_sweep_id_is_the_function(self):
        plan = plan_sweep(_double, parameter_grid(n=[4]), seed=1)
        assert plan.units[0].spec["sweep"].endswith("._double")

    def test_lambda_requires_explicit_sweep_id(self):
        """Two lambdas share a qualname and would alias each other."""
        grid = parameter_grid(n=[4])
        with pytest.raises(ValueError, match="sweep_id"):
            plan_sweep(lambda pt: {}, grid, seed=1)
        plan = plan_sweep(lambda pt: {}, grid, seed=1, sweep_id="named")
        assert plan.units[0].spec["sweep"] == "named"

    def test_partial_requires_explicit_sweep_id(self):
        """functools.partial has no qualname to derive a namespace from."""
        import functools
        partial = functools.partial(_double)
        with pytest.raises(ValueError, match="sweep_id"):
            plan_sweep(partial, parameter_grid(n=[4]), seed=1)

    def test_pending_diffs_against_store(self, tmp_path):
        """Submission is the diff: a job is cached iff the store serves
        it, and *force* makes every unit pending again."""
        store = ResultStore(tmp_path / "s")
        queue = JobQueue(store)
        plan = plan_sweep(_double, parameter_grid(n=[4, 8]), seed=1)

        def pending(**kwargs):
            cid = queue.submit(plan, **kwargs).campaign_id
            return {job.key for job in queue.jobs(cid) if not job.cached}

        assert pending() == set(plan.keys())
        store.put(plan.units[0].spec, {"row": {}})
        assert pending() == {plan.units[1].key}
        assert pending(force=True) == set(plan.keys())

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            CampaignPlan(())


class TestKernelRefactorKeyStability:
    """The batched-kernel refactor must not invalidate stored results.

    Replay results are bit-identical by construction (the kernels'
    replay contract is enforced seed-for-seed in ``tests/engine/``), so
    the spec version ``v`` must **not** bump and replay keys must hash
    to exactly what they hashed to before the refactor.  Native mobility
    units key under ``native/cs<chunk>`` and never alias replay entries.
    """

    # unit_key of E11 at the default seed/scale, computed before the
    # kernels moved behind the BatchedDynamics registry.  If either hash
    # moves, previously stored campaign results silently recompute.
    E11_REPLAY_KEY = (
        "5a8cf45d4d4f6f6eaa77d00795d5d8e2ed9ed550de3b61009a3862ef79fc6660")
    E11_NATIVE_KEY = (
        "7ed379ddb5f20dc82f6e1751f75f26544a1d6f65c46cbd0a7db95e3734dcf823")

    def test_spec_version_unchanged(self):
        from repro.campaign.plan import _SPEC_VERSION
        assert _SPEC_VERSION == 1, (
            "the kernel refactor keeps replay results bit-identical; "
            "bump v only on semantic simulator changes")

    def test_mobility_replay_key_is_stable(self):
        for backend in ("serial", "batched", "parallel"):
            plan = plan_experiments(["E11"], ExperimentConfig(backend=backend))
            assert plan.keys() == [self.E11_REPLAY_KEY]

    def test_mobility_native_key_never_aliases_replay(self):
        plan = plan_experiments(["E11"], ExperimentConfig(backend="native"))
        assert plan.keys() == [self.E11_NATIVE_KEY]
        assert plan.units[0].spec["stream"] == "native/cs64"
        assert self.E11_NATIVE_KEY != self.E11_REPLAY_KEY

    def test_mobility_sweep_units_split_by_stream(self):
        """A mobility sweep run natively must never fetch replay entries."""
        replay = plan_experiments(["E11", "E12"], ExperimentConfig())
        native = plan_experiments(["E11", "E12"],
                                  ExperimentConfig(backend="native"))
        assert not set(replay.keys()) & set(native.keys())


class TestProtocolKeyStability:
    """The protocol subsystem must not invalidate pre-PR flooding stores.

    Flooding routed through the protocol registry is bit-identical to
    the pre-registry serial flood (enforced seed-for-seed in
    ``tests/protocols/``), so default-flooding work units must hash to
    **exactly** the keys they hashed to before the ``protocol`` spec
    field existed — the field is omitted for flooding, never written.
    Non-flooding protocols record their canonical token and get keys of
    their own that can never alias a flooding entry.
    """

    # unit_key values computed immediately before the protocol field
    # was added to the spec (PR 4).  If any hash moves, previously
    # stored campaign results silently recompute.  The two E14 keys
    # were re-pinned deliberately when E14 moved onto the registry
    # protocols and declared ``SPEC_REVISION = 2``: its gossip rows
    # changed, so its old entries must not be fetched.  The two E4 keys
    # were re-pinned the same way when E4 declared ``SPEC_REVISION = 1``
    # for its wider quick sweep.
    FLOODING_KEYS = {
        ("E4", "serial"):
            "be5dab846ccb7569995f29940f0fb7c33b76414132236dd6f9063ce522210deb",
        ("E4", "native"):
            "3a8d9356056fb59c92a9b5cbeb114ccc95e7278e1dde04efdff597dbddb3abe8",
        ("E8", "serial"):
            "0880fb475638bffcd88bcf46831717b9c97bb79be7120959cc2593111655f33b",
        ("E8", "native"):
            "a90eadadfd6c13a1800fba29b986cb2e407343ca75b968166512d11b96612d33",
        ("E14", "serial"):
            "52ce4281617838d9daf5e45fdf3bceaf7bb56bd46458108a658d0035f4633c50",
        ("E14", "native"):
            "043a5ed8d2443c4c193a7d87de66e9ca41d95523971413f8d511178b5d0e4e0c",
    }

    def test_spec_version_still_one(self):
        from repro.campaign.plan import _SPEC_VERSION
        assert _SPEC_VERSION == 1, (
            "flooding through the protocol registry is bit-identical; "
            "bump v only on semantic simulator changes")

    def test_default_flooding_keys_are_frozen(self):
        for (eid, backend), want in self.FLOODING_KEYS.items():
            plan = plan_experiments([eid], ExperimentConfig(backend=backend))
            assert plan.keys() == [want], (eid, backend)

    def test_spec_revision_is_written_only_where_declared(self):
        """An experiment module's ``SPEC_REVISION`` enters its key as
        ``revision``; modules without one write no field at all."""
        from repro.experiments.registry import all_ids, load_experiment
        for eid in all_ids():
            spec = plan_experiments([eid], ExperimentConfig()).units[0].spec
            revision = getattr(load_experiment(eid), "SPEC_REVISION", None)
            if revision is None:
                assert "revision" not in spec, eid
            else:
                assert spec["revision"] == revision, eid
        e14 = plan_experiments(["E14"], ExperimentConfig()).units[0].spec
        assert e14["revision"] == 2

    def test_flooding_never_writes_the_protocol_field(self):
        for backend in ("serial", "batched", "parallel", "native"):
            config = ExperimentConfig(backend=backend, protocol="flooding")
            spec = plan_experiments(["E8"], config).units[0].spec
            assert "protocol" not in spec

    def test_protocol_oblivious_experiments_ignore_the_protocol(self):
        """--protocol on an experiment that does not consume it must not
        relabel or recompute the cached flooding work."""
        base = plan_experiments(["E8"], ExperimentConfig())
        relabeled = plan_experiments(
            ["E8"], ExperimentConfig(protocol="push-pull"))
        assert relabeled.keys() == base.keys()
        assert "protocol" not in relabeled.units[0].spec
        assert relabeled.units[0].payload["config"]["protocol"] == "flooding"

    def test_non_flooding_protocols_get_their_own_keys(self):
        base = plan_experiments(["E16"], ExperimentConfig()).keys()
        seen = set(base)
        for token in ("push", "push-pull", "p-flood",
                      "p-flood:transmit_probability=0.3",
                      "expiring", "expiring:active_steps=5"):
            keys = plan_experiments(
                ["E16"], ExperimentConfig(protocol=token)).keys()
            assert keys != base
            assert not seen & set(keys), f"{token} aliases another protocol"
            seen |= set(keys)

    def test_protocol_tokens_are_canonical_in_the_spec(self):
        """Parameter defaults spelled or omitted must hash identically."""
        explicit = plan_experiments(
            ["E16"],
            ExperimentConfig(protocol="p-flood:transmit_probability=0.5"))
        implicit = plan_experiments(["E16"],
                                    ExperimentConfig(protocol="p-flood"))
        assert explicit.keys() == implicit.keys()
        spec = explicit.units[0].spec
        assert spec["protocol"] == "p-flood(transmit_probability=0.5)"

    def test_numeric_spellings_hash_identically(self):
        """int/float spellings of the same parameter are one token —
        one cache key, no silent store forking."""
        as_int = plan_experiments(
            ["E16"], ExperimentConfig(protocol="p-flood:transmit_probability=1"))
        as_float = plan_experiments(
            ["E16"],
            ExperimentConfig(protocol="p-flood:transmit_probability=1.0"))
        assert as_int.keys() == as_float.keys()
        expiring_float = plan_experiments(
            ["E16"], ExperimentConfig(protocol="expiring:active_steps=2.0"))
        expiring_default = plan_experiments(
            ["E16"], ExperimentConfig(protocol="expiring"))
        assert expiring_float.keys() == expiring_default.keys()

    def test_protocol_and_stream_key_independently(self):
        replay = plan_experiments(["E16"],
                                  ExperimentConfig(protocol="push-pull"))
        native = plan_experiments(
            ["E16"], ExperimentConfig(protocol="push-pull", backend="native"))
        assert replay.keys() != native.keys()

    def test_unknown_protocol_rejected_at_planning(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            plan_experiments(["E16"],
                             ExperimentConfig(protocol="smoke-signals"))
