"""Job queue lease state machine: submit, lease, heartbeat, complete."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro import obs
from repro.campaign.backend import SqliteWalBackend
from repro.campaign.jobs import (DEFAULT_LEASE_TTL, MAX_ATTEMPTS, Completion,
                                 JobQueue, LocalQueueClient, campaign_id_for)
from repro.campaign.plan import WorkUnit
from repro.campaign.store import ResultStore


def make_unit(i: int, *, picklable: bool = True) -> WorkUnit:
    payload = {"x": i}
    if not picklable:
        payload = {"x": i, "fn": len}  # a callable forces the pickle codec
    return WorkUnit(spec={"kind": "test", "i": i}, payload=payload,
                    label=f"unit-{i}")


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "results")


class FakeClock:
    """A settable clock for the queue: ``clock.now`` is the time."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def queue(store, clock):
    return JobQueue(store.backend, clock=clock)


class TestSubmit:
    def test_submit_creates_pending_jobs(self, queue, store):
        units = [make_unit(i) for i in range(3)]
        receipt = queue.submit(units, store, name="t")
        assert receipt.total == 3
        assert receipt.pending == 3
        assert receipt.cached == 0
        assert not receipt.complete

    def test_campaign_id_is_order_independent(self):
        keys = [make_unit(i).key for i in range(3)]
        assert campaign_id_for(keys) == campaign_id_for(reversed(keys))

    def test_stored_units_submit_as_done_cached(self, queue, store):
        unit = make_unit(0)
        store.put(unit.spec, {"answer": 1}, label=unit.label)
        receipt = queue.submit([unit], store)
        assert receipt.cached == 1
        assert receipt.done == 1
        assert receipt.complete

    def test_resubmit_is_idempotent(self, queue, store):
        units = [make_unit(i) for i in range(2)]
        first = queue.submit(units, store)
        second = queue.submit(units, store)
        assert first.campaign_id == second.campaign_id
        assert second.total == 2
        assert second.pending == 2  # no duplicate rows

    def test_resubmit_flips_computed_rows_to_cached(self, queue, store):
        """The acceptance criterion: resubmitting a computed campaign
        reports 100% cache hits."""
        unit = make_unit(0)
        receipt = queue.submit([unit], store)
        cid = receipt.campaign_id
        job = queue.lease("w1", campaign_id=cid)
        store.put(unit.spec, {"answer": 1}, label=unit.label)
        queue.complete(cid, job.key, "w1")
        assert queue.campaign_status(cid)["counts"]["cached"] == 0
        again = queue.submit([unit], store)
        assert again.cached == again.total == 1
        assert again.complete

    def test_resubmit_recomputes_when_object_vanished(self, queue, store):
        unit = make_unit(0)
        store.put(unit.spec, {"answer": 1}, label=unit.label)
        cid = queue.submit([unit], store).campaign_id
        store.delete(unit.key)
        receipt = queue.submit([unit], store)
        assert receipt.campaign_id == cid
        assert receipt.pending == 1
        assert receipt.cached == 0

    def test_force_resets_done_rows(self, queue, store):
        unit = make_unit(0)
        store.put(unit.spec, {"answer": 1}, label=unit.label)
        queue.submit([unit], store)
        receipt = queue.submit([unit], store, force=True)
        assert receipt.pending == 1

    def test_empty_campaign_rejected(self, queue, store):
        with pytest.raises(ValueError):
            queue.submit([], store)


class TestLease:
    def test_lease_claims_oldest_pending(self, queue, store):
        units = [make_unit(i) for i in range(2)]
        cid = queue.submit(units, store).campaign_id
        job = queue.lease("w1", campaign_id=cid)
        assert job.state == "leased"
        assert job.worker == "w1"
        assert job.attempts == 1
        assert job.payload == {"x": job.spec["i"]}

    def test_leased_job_not_handed_out_twice(self, queue, store):
        cid = queue.submit([make_unit(0)], store).campaign_id
        assert queue.lease("w1", campaign_id=cid) is not None
        assert queue.lease("w2", campaign_id=cid) is None

    def test_expired_lease_is_reclaimable(self, queue, store, clock):
        cid = queue.submit([make_unit(0)], store).campaign_id
        job = queue.lease("w1", campaign_id=cid, ttl=10.0)
        clock.now = job.lease_expires + 1.0
        reclaimed = queue.lease("w2", campaign_id=cid)
        assert reclaimed is not None
        assert reclaimed.worker == "w2"
        assert reclaimed.attempts == 2

    def test_codec_restriction_skips_pickle_jobs(self, queue, store):
        cid = queue.submit([make_unit(0, picklable=False)],
                           store).campaign_id
        # What the HTTP service passes: remote workers never get pickles.
        assert queue.lease("w1", campaign_id=cid, codecs=("json",)) is None
        assert queue.lease("w1", campaign_id=cid) is not None

    def test_retry_budget_exhaustion_fails_job(self, queue, store, clock):
        cid = queue.submit([make_unit(0)], store).campaign_id
        for attempt in range(MAX_ATTEMPTS):
            job = queue.lease("w1", campaign_id=cid, ttl=1.0)
            assert job is not None, f"attempt {attempt}"
            clock.now = job.lease_expires + 1.0
        assert queue.lease("w1", campaign_id=cid) is None
        (failed,) = queue.jobs(cid, state="failed")
        assert "retry budget" in failed.error

    def test_scoped_lease_ignores_other_campaigns(self, queue, store):
        queue.submit([make_unit(0)], store)
        assert queue.lease("w1", campaign_id="no-such-campaign") is None


class TestLifecycle:
    def test_heartbeat_extends_live_lease(self, queue, store):
        cid = queue.submit([make_unit(0)], store).campaign_id
        job = queue.lease("w1", campaign_id=cid)
        assert queue.heartbeat(cid, job.key, "w1") is True
        renewed = queue.job(cid, job.key)
        assert renewed.lease_expires >= job.lease_expires

    def test_heartbeat_reports_lost_lease(self, queue, store, clock):
        cid = queue.submit([make_unit(0)], store).campaign_id
        job = queue.lease("w1", campaign_id=cid, ttl=10.0)
        clock.now = job.lease_expires + 1.0
        queue.lease("w2", campaign_id=cid)
        assert queue.heartbeat(cid, job.key, "w1") is False

    def test_complete_marks_done(self, queue, store):
        cid = queue.submit([make_unit(0)], store).campaign_id
        job = queue.lease("w1", campaign_id=cid)
        assert queue.complete(cid, job.key, "w1") is True
        assert queue.drained(cid)
        assert queue.job(cid, job.key).state == "done"

    def test_second_completion_is_a_noop(self, queue, store):
        cid = queue.submit([make_unit(0)], store).campaign_id
        job = queue.lease("w1", campaign_id=cid)
        queue.complete(cid, job.key, "w1")
        assert queue.complete(cid, job.key, "w2") is False

    def test_fail_records_error(self, queue, store):
        cid = queue.submit([make_unit(0)], store).campaign_id
        job = queue.lease("w1", campaign_id=cid)
        assert queue.fail(cid, job.key, "w1", "boom") is True
        failed = queue.job(cid, job.key)
        assert failed.state == "failed"
        assert failed.error == "boom"
        assert queue.drained(cid)

    def test_stale_worker_cannot_fail_a_re_leased_job(self, queue, store,
                                                      clock):
        unit = make_unit(0)
        cid = queue.submit([unit], store).campaign_id
        stale = queue.lease("A", campaign_id=cid, ttl=1.0)
        clock.now += 60.0
        queue.lease("B", campaign_id=cid)  # A's lease expired long ago
        assert queue.fail(cid, stale.key, "A", "boom") is False
        job = queue.job(cid, stale.key)
        assert (job.state, job.worker, job.error) == ("leased", "B", None)
        assert not queue.drained(cid)
        store.put(unit.spec, {"answer": 1}, label=unit.label)
        assert queue.complete(cid, stale.key, "B") is True
        assert queue.drained(cid)
        assert queue.job(cid, stale.key).state == "done"

    def test_fail_after_completion_is_a_noop(self, queue, store):
        cid = queue.submit([make_unit(0)], store).campaign_id
        job = queue.lease("w1", campaign_id=cid)
        queue.complete(cid, job.key, "w1")
        assert queue.fail(cid, job.key, "w1", "late") is False
        assert queue.job(cid, job.key).state == "done"

    def test_reap_returns_expired_leases_to_pending(self, queue, store,
                                                    clock):
        cid = queue.submit([make_unit(0)], store).campaign_id
        job = queue.lease("w1", campaign_id=cid, ttl=5.0)
        clock.now = job.lease_expires - 1.0
        assert queue.reap() == []
        clock.now = job.lease_expires + 1.0
        (reaped,) = queue.reap()
        assert reaped.key == job.key
        assert queue.job(cid, job.key).state == "pending"


class TestLocalQueueClient:
    def test_complete_checkpoints_into_store(self, store):
        unit = make_unit(0)
        client = LocalQueueClient(store)
        cid = client.queue.submit([unit], store).campaign_id
        job = client.lease("w1", campaign_id=cid)
        done = client.complete(cid, job.key, "w1", spec=job.spec,
                               result={"answer": 7}, label=job.label,
                               elapsed=0.1)
        assert done == Completion(ok=True, job=None, drained=True)
        assert store.get_result(unit.key) == {"answer": 7}
        assert client.drained(cid)

    def test_complete_rejects_spec_key_mismatch(self, store):
        unit = make_unit(0)
        client = LocalQueueClient(store)
        cid = client.queue.submit([unit], store).campaign_id
        job = client.lease("w1", campaign_id=cid)
        with pytest.raises(ValueError, match="key mismatch"):
            client.complete(cid, job.key, "w1", spec={"kind": "other"},
                            result={}, label=job.label)

    def test_default_ttl_is_sane(self):
        assert DEFAULT_LEASE_TTL == 30.0


def _finish(client, job, **kwargs):
    """Complete *job* with a trivial result."""
    return client.complete(job.campaign_id, job.key, job.worker,
                           spec=job.spec, result={"x": job.spec["i"]},
                           label=job.label, **kwargs)


class TestCompleteLeasesNext:
    """``LocalQueueClient.complete(lease_next=True)``: the done flip, the
    next claim and the drained check in one transaction."""

    @pytest.fixture
    def client(self, store, queue):
        return LocalQueueClient(store, queue)

    def test_next_job_is_the_oldest_claimable(self, client, queue, store,
                                              clock):
        cid = queue.submit([make_unit(i) for i in range(3)],
                           store).campaign_id
        first = client.lease("w1", campaign_id=cid)
        [want, _] = queue.jobs(cid, state="pending")
        done = _finish(client, first, lease_next=True, scope=cid, ttl=5.0)
        assert done.ok is True and done.drained is False
        assert done.job.key == want.key
        assert (done.job.state, done.job.worker, done.job.attempts,
                done.job.lease_expires) == ("leased", "w1", 1, clock.now + 5)
        assert queue.job(cid, want.key) == done.job
        assert queue.job(cid, first.key).state == "done"

    def test_is_one_transaction(self, client, queue, store, monkeypatch):
        cid = queue.submit([make_unit(i) for i in range(2)],
                           store).campaign_id
        first = client.lease("w1", campaign_id=cid)
        calls = []
        real = vars(SqliteWalBackend)["transaction"]

        @contextmanager
        def counted(self, **kwargs):
            calls.append(kwargs)
            with real(self, **kwargs) as db:
                yield db

        monkeypatch.setattr(SqliteWalBackend, "transaction", counted)
        assert _finish(client, first, lease_next=True, scope=cid).job
        assert calls == [{"immediate": True}]

    def test_last_completion_reports_drained(self, client, queue, store):
        cid = queue.submit([make_unit(0)], store).campaign_id
        job = client.lease("w1", campaign_id=cid)
        assert _finish(client, job, lease_next=True, scope=cid) \
            == Completion(ok=True, job=None, drained=True)

    def test_a_peer_lease_keeps_the_scope_undrained(self, client, queue,
                                                    store):
        cid = queue.submit([make_unit(i) for i in range(2)],
                           store).campaign_id
        mine = client.lease("w1", campaign_id=cid)
        assert client.lease("w2", campaign_id=cid) is not None
        assert _finish(client, mine, lease_next=True, scope=cid) \
            == Completion(ok=True, job=None, drained=False)

    def test_without_lease_next_nothing_is_claimed(self, client, queue,
                                                   store):
        cid = queue.submit([make_unit(i) for i in range(2)],
                           store).campaign_id
        job = client.lease("w1", campaign_id=cid)
        assert _finish(client, job, scope=cid) \
            == Completion(ok=True, job=None, drained=False)
        assert len(queue.jobs(cid, state="pending")) == 1

    def test_scope_none_claims_from_any_campaign(self, client, queue,
                                                 store):
        first = queue.submit([make_unit(0)], store).campaign_id
        second = queue.submit([make_unit(1)], store).campaign_id
        job = client.lease("w1", campaign_id=first)
        assert _finish(client, job, lease_next=True, scope=first).drained
        other = client.lease("w2", campaign_id=second)
        assert queue.complete(second, other.key, "w2")
        third = queue.submit([make_unit(2), make_unit(3)],
                             store).campaign_id
        job = client.lease("w1", campaign_id=third)
        done = _finish(client, job, lease_next=True, scope=None)
        assert done.job.campaign_id == third

    def test_codec_filter_holds_back_pickles(self, client, queue, store):
        units = [make_unit(0), make_unit(1, picklable=False)]
        cid = queue.submit(units, store).campaign_id
        job = queue.lease("w1", campaign_id=cid, codecs=("json",))
        # Not drained: the pickle job is still pending for a local worker.
        assert _finish(client, job, lease_next=True, scope=cid,
                       codecs=("json",)) \
            == Completion(ok=True, job=None, drained=False)

    def test_retry_budget_still_applies(self, client, queue, store, clock):
        units = [make_unit(0), make_unit(1)]
        cid = queue.submit(units, store).campaign_id
        job = queue.lease("w1", campaign_id=cid, ttl=100.0)
        for _ in range(MAX_ATTEMPTS):  # the other unit, again and again
            doomed = queue.lease("w0", campaign_id=cid, ttl=1.0)
            clock.now = doomed.lease_expires + 1.0
        assert queue.job(cid, doomed.key).attempts == MAX_ATTEMPTS
        # The claim flips the spent unit to failed instead of leasing it.
        assert _finish(client, job, lease_next=True, scope=cid) \
            == Completion(ok=True, job=None, drained=True)
        assert "retry budget" in queue.job(cid, doomed.key).error

    def test_reclaim_is_announced_like_a_lease(self, client, queue, store,
                                               clock):
        sink = obs.MemorySink()
        previous = obs.configure(sink)
        try:
            cid = queue.submit([make_unit(i) for i in range(2)],
                               store).campaign_id
            mine = client.lease("w1", campaign_id=cid, ttl=10.0)
            dead = client.lease("dead", campaign_id=cid, ttl=1.0)
            clock.now = dead.lease_expires + 1.0
            done = _finish(client, mine, lease_next=True, scope=cid)
        finally:
            obs.configure(previous if previous.live else None)
        assert (done.job.key, done.job.attempts) == (dead.key, 2)
        seen = [(e["name"], e["status"], e["attrs"]["key"])
                for e in sink.events if e["kind"] == "event"]
        assert seen[-3:] == [
            ("campaign.unit", "checkpointed", mine.key),
            ("campaign.lease", "reclaimed", dead.key),
            ("campaign.unit", "leased", dead.key)]

    def test_a_repeated_completion_is_not_ok(self, client, queue, store):
        cid = queue.submit([make_unit(i) for i in range(3)],
                           store).campaign_id
        job = client.lease("w1", campaign_id=cid)
        lost = _finish(client, job, lease_next=True, scope=cid)
        again = _finish(client, job, lease_next=True, scope=cid)
        assert again.ok is False
        assert again.job.key != lost.job.key
        assert {j.key for j in queue.jobs(cid, state="leased")} \
            == {lost.job.key, again.job.key}
