"""The pull worker: its one lease-renewal thread (also the units'
``campaign.heartbeat`` liveness beat), the result section it hands
back, and worker-death recovery (a SIGKILLed worker's lease expires
and the unit is re-leased, with bit-identical final results)."""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import signal
import threading
import time
import weakref

import pytest

from repro import obs
from repro.campaign import scheduler
from repro.campaign.jobs import JobQueue
from repro.campaign.plan import CampaignPlan, WorkUnit, plan_experiments
from repro.campaign.scheduler import execute_unit, run_campaign
from repro.campaign.store import ResultStore, canonical_json
from repro.experiments.common import ExperimentConfig
from repro.experiments.registry import load_experiment
from repro.obs.sinks import MemorySink
from repro.service.worker import run_worker

QUICK = ExperimentConfig(scale="quick")
TTL = 1.5


class RecordingClient(JobQueue):
    """A local queue that logs the worker verbs it serves; the
    first *failing_beats* renewals raise, like a network blip."""

    def __init__(self, store: ResultStore, *, failing_beats: int = 0):
        super().__init__(store)
        self.failing_beats = failing_beats
        self.calls: list[tuple[str, str, float]] = []
        self.renewed: list[bool] = []

    def lease(self, worker, **kwargs):
        job = super().lease(worker, **kwargs)
        if job is not None:
            self.calls.append(("lease", job.key, time.monotonic()))
        return job

    def heartbeat(self, campaign_id, key, worker, *, ttl):
        self.calls.append(("heartbeat", key, time.monotonic()))
        if self.failing_beats > 0:
            self.failing_beats -= 1
            raise ConnectionError("renewal lost in transit")
        ok = super().heartbeat(campaign_id, key, worker, ttl=ttl)
        self.renewed.append(ok)
        return ok

    def complete(self, campaign_id, key, worker, **kwargs):
        self.calls.append(("complete", key, time.monotonic()))
        done = super().complete(campaign_id, key, worker, **kwargs)
        if done.job is not None:  # the next unit's lease rode along
            self.calls.append(("lease", done.job.key, time.monotonic()))
        return done


def _submit(store: ResultStore, count: int) -> str:
    units = [WorkUnit(spec={"kind": "test", "i": i}, payload={"x": i},
                      label=f"u{i}")
             for i in range(count)]
    return JobQueue(store).submit(units).campaign_id


class TestLeaseRenewal:
    def test_one_renewal_thread_serves_every_unit(self, tmp_path,
                                                  monkeypatch):
        store = ResultStore(tmp_path / "store")
        cid = _submit(store, 4)
        client = RecordingClient(store)
        started: list[threading.Thread] = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            real_start(thread)

        def slow_unit(payload):
            time.sleep(0.25)  # past two ttl/3 renewal periods
            return {"result": {"x": payload["x"]}, "elapsed": 0.25}

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        monkeypatch.setattr(scheduler, "execute_unit", slow_unit)
        stats = run_worker(client, campaign_id=cid, lease_ttl=0.3,
                           worker="w")
        monkeypatch.undo()

        assert stats.completed == 4
        assert len(started) == 1
        assert not started[0].is_alive()
        # Every unit was renewed, first one ttl/3 after its lease, and
        # never once its completion began.
        for key in stats.keys:
            calls = [(verb, at) for verb, k, at in client.calls if k == key]
            verbs = [verb for verb, _ in calls]
            assert verbs[:2] == ["lease", "heartbeat"]
            assert verbs[-1] == "complete" and verbs.count("complete") == 1
            assert calls[1][1] - calls[0][1] >= 0.09
        # The finished thread keeps nothing of the worker's queue alive.
        ref = weakref.ref(client)
        del client
        gc.collect()
        assert ref() is None

    def test_a_long_unit_keeps_its_lease(self, tmp_path, monkeypatch):
        """A unit running for 2.5 TTLs is renewed by the shared thread
        (whose first renewal raises): another worker cannot take it."""
        ttl = 0.9
        store = ResultStore(tmp_path / "store")
        cid = _submit(store, 1)
        client = RecordingClient(store, failing_beats=1)
        stolen = []

        def long_unit(payload):
            time.sleep(1.7 * ttl)
            stolen.append(JobQueue(store).lease(
                "thief", campaign_id=cid, ttl=ttl))
            time.sleep(0.8 * ttl)
            return {"result": {"x": payload["x"]}, "elapsed": 2.5 * ttl}

        monkeypatch.setattr(scheduler, "execute_unit", long_unit)
        stats = run_worker(client, campaign_id=cid, lease_ttl=ttl,
                           worker="owner")
        assert stats.completed == 1 and stats.lease_lost == 0
        assert stolen == [None]
        assert client.renewed.count(True) >= 2
        [key] = stats.keys
        job = JobQueue(store).job(cid, key)
        assert job.state == "done" and job.worker == "owner"
        assert job.attempts == 1


class TestMaxUnits:
    def test_a_capped_worker_leases_nothing_past_its_cap(self, tmp_path,
                                                        monkeypatch):
        """The last allowed completion asks for no next unit, so a
        capped worker leaves no lease behind to expire."""
        monkeypatch.setattr(scheduler, "execute_unit", lambda payload: {
            "result": {"x": payload["x"]}, "elapsed": 0.0})
        store = ResultStore(tmp_path / "store")
        cid = _submit(store, 4)
        stats = run_worker(JobQueue(store), campaign_id=cid,
                           max_units=2, worker="w")
        assert (stats.leased, stats.completed) == (2, 2)
        queue = JobQueue(store)
        assert queue.jobs(cid, state="leased") == []
        assert len(queue.jobs(cid, state="pending")) == 2


class _SilentSink(MemorySink):
    """Records whatever reaches it, but is not live: installing it
    turns tracing off."""

    live = False


@pytest.fixture()
def traced():
    """Install *sink* (a live :class:`MemorySink` by default) for the
    rest of the test."""
    installed = []

    def install(sink=None):
        sink = MemorySink() if sink is None else sink
        installed.append(obs.configure(sink))
        return sink

    yield install
    for previous in reversed(installed):
        obs.configure(previous if previous.live else None)


def _beats(sink) -> list[dict]:
    return [e for e in sink.events if e["name"] == "campaign.heartbeat"]


class TestHeartbeat:
    """The renewal thread is the units' liveness beat under tracing."""

    def test_a_traced_drain_starts_one_thread(self, tmp_path, traced,
                                              monkeypatch):
        units = [unit for seed in (0, 1) for unit in plan_experiments(
            ["E1", "E15"], ExperimentConfig(scale="quick", seed=seed))]
        store = ResultStore(tmp_path / "store")
        cid = JobQueue(store).submit(CampaignPlan(tuple(units))).campaign_id
        started: list[threading.Thread] = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            real_start(thread)

        sink = traced()
        monkeypatch.setattr(threading.Thread, "start", counting_start)
        stats = run_worker(JobQueue(store), campaign_id=cid,
                           worker="w")
        monkeypatch.undo()

        assert stats.completed == 4
        assert len(started) == 1
        assert {b["attrs"]["key"] for b in _beats(sink)} == set(stats.keys)

    def test_first_beat_precedes_the_unit_body(self, tmp_path, traced,
                                               monkeypatch):
        store = ResultStore(tmp_path / "store")
        cid = _submit(store, 2)
        sink = traced()
        seen: list[list[dict]] = []

        def unit(payload):
            seen.append(_beats(sink))
            return {"result": {"x": payload["x"]}, "elapsed": 0.0}

        monkeypatch.setattr(scheduler, "execute_unit", unit)
        stats = run_worker(JobQueue(store), campaign_id=cid,
                           lease_ttl=TTL, worker="w")
        # ttl/3 is far longer than these units: the synchronous beat is
        # the only one, and it was already there when the body began.
        assert [[b["attrs"]["key"] for b in beats] for beats in seen] \
            == [stats.keys[:1], stats.keys[:2]]
        for beat, key in zip(_beats(sink), stats.keys):
            assert beat["attrs"]["key"] == key
            assert beat["attrs"]["interval"] == TTL / 3
            assert beat["attrs"]["worker"] == "w"
            assert beat["attrs"]["label"].startswith("u")
            obs.validate_event(beat)

    def test_no_beat_follows_completion(self, tmp_path, traced,
                                        monkeypatch):
        store = ResultStore(tmp_path / "store")
        cid = _submit(store, 3)
        client = RecordingClient(store)
        sink = traced()
        real_complete = client.complete

        def marked_complete(campaign_id, key, worker, **kwargs):
            obs.event("test.complete", key=key)
            return real_complete(campaign_id, key, worker, **kwargs)

        def slow_unit(payload):
            time.sleep(0.25)  # past two ttl/3 renewal periods
            return {"result": {"x": payload["x"]}, "elapsed": 0.25}

        client.complete = marked_complete
        monkeypatch.setattr(scheduler, "execute_unit", slow_unit)
        stats = run_worker(client, campaign_id=cid, lease_ttl=0.3,
                           worker="w")
        assert stats.completed == 3
        for key in stats.keys:
            names = [e["name"] for e in sink.events
                     if e["attrs"].get("key") == key
                     and e["name"] in ("campaign.heartbeat",
                                       "test.complete")]
            # The synchronous beat plus at least one renewal, then done.
            assert names.count("campaign.heartbeat") >= 2
            assert names[-1] == "test.complete"
            assert names.count("test.complete") == 1

    def test_untraced_drain_emits_no_events(self, tmp_path, traced,
                                            monkeypatch):
        store = ResultStore(tmp_path / "store")
        cid = _submit(store, 2)
        sink = traced(_SilentSink())

        def slow_unit(payload):
            time.sleep(0.15)  # past one ttl/3 renewal period
            return {"result": {"x": payload["x"]}, "elapsed": 0.15}

        client = RecordingClient(store)
        monkeypatch.setattr(scheduler, "execute_unit", slow_unit)
        stats = run_worker(client, campaign_id=cid, lease_ttl=0.3,
                           worker="w")
        assert stats.completed == 2
        assert client.renewed  # the renewals ran, and stayed silent
        assert not sink.events


@pytest.mark.parametrize("experiment", ["E1", "E8", "E15"])
def test_result_section_is_the_decoded_to_json(experiment):
    """The C-encoded section is exactly what the records' own
    ``indent=2`` text decodes to."""
    [unit] = plan_experiments([experiment], QUICK)
    section = execute_unit(dict(unit.payload))["result"]
    expected = json.loads(load_experiment(experiment).run(QUICK).to_json())
    assert canonical_json(section) == canonical_json(expected)


def _lease_and_hang(root: str, campaign_id: str, marker: str) -> None:
    """Claim one job, report it, then hang (a worker about to die)."""
    store = ResultStore(root)
    job = JobQueue(store).lease("doomed", campaign_id=campaign_id,
                                        ttl=TTL)
    with open(marker, "w") as handle:
        handle.write(job.key if job is not None else "")
    time.sleep(300)


class TestSigkillRecovery:
    def test_killed_workers_unit_is_re_leased_bit_identical(self, tmp_path):
        plan = plan_experiments(["E1"], QUICK)

        # Reference: the same plan run uninterrupted.
        reference_store = ResultStore(tmp_path / "reference")
        run_campaign(plan, reference_store, jobs=1)

        # Victim run: a worker claims the unit, gets SIGKILLed while
        # holding the lease, and a survivor waits the TTL out.
        root = tmp_path / "victim"
        store = ResultStore(root)
        cid = JobQueue(store).submit(plan).campaign_id
        marker = tmp_path / "leased.marker"
        ctx = multiprocessing.get_context("fork")
        doomed = ctx.Process(target=_lease_and_hang,
                             args=(str(root), cid, str(marker)))
        doomed.start()
        deadline = time.monotonic() + 30
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert marker.exists(), "doomed worker never leased"
        leased_key = marker.read_text()
        assert leased_key, "nothing to lease"

        os.kill(doomed.pid, signal.SIGKILL)  # no heartbeat ever again
        doomed.join(timeout=10)

        queue = JobQueue(store)
        held = queue.job(cid, leased_key)
        assert held.state == "leased" and held.worker == "doomed"

        # The survivor polls, waits out the dead lease, reclaims, runs.
        stats = run_worker(JobQueue(store), campaign_id=cid,
                           lease_ttl=TTL, worker="survivor")
        assert stats.completed == len(plan)
        done = queue.job(cid, leased_key)
        assert done.state == "done"
        assert done.worker == "survivor"
        assert done.attempts == 2  # doomed's claim + the re-lease
        assert queue.drained(cid)

        # Bit-identity: the recovered store serves exactly the bytes
        # the uninterrupted run produced.
        for unit in plan:
            recovered = store.get(unit.key)
            reference = reference_store.get(unit.key)
            assert recovered["spec"] == reference["spec"]
            assert recovered["result"] == reference["result"]
