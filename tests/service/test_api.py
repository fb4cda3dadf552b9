"""The campaign service over real HTTP: submit, lease, complete, fetch."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.campaign import scheduler
from repro.campaign.jobs import JobQueue
from repro.campaign.plan import WorkUnit, plan_experiments
from repro.campaign.schema import SERVICE_SCHEMA, SERVICE_SCHEMA_VERSION
from repro.campaign.store import ResultStore
from repro.experiments.common import ExperimentConfig
from repro.service.api import serve
from repro.service.client import ServiceClient, ServiceError
from repro.service.worker import run_worker

QUICK = ExperimentConfig(scale="quick")


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "results")


@pytest.fixture
def server(store):
    with serve(store, port=0) as running:  # port 0: OS picks a free one
        yield running


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


class TestProtocol:
    def test_health(self, client, store):
        health = client.health()
        assert health["status"] == "ok"
        assert health["schema"] == SERVICE_SCHEMA
        assert health["schema_version"] == SERVICE_SCHEMA_VERSION
        assert health["store"] == str(store.root)

    def test_submit_then_status(self, client):
        plan = plan_experiments(["E1", "E13"], QUICK)
        receipt = client.submit_plan(plan, name="smoke")
        assert receipt["total"] == 2
        assert receipt["pending"] == 2
        status = client.status(receipt["campaign_id"])
        assert status["name"] == "smoke"
        assert status["counts"]["pending"] == 2
        assert len(status["units_detail"]) == 2
        (listed,) = client.campaigns()
        assert listed["campaign_id"] == receipt["campaign_id"]

    def test_unknown_campaign_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("deadbeef")
        assert err.value.status == 404

    def test_submit_key_mismatch_is_409(self, client, server):
        with pytest.raises(ServiceError) as err:
            ServiceClient(server.url)._request("POST", "/v1/campaigns", {
                "units": [{"spec": {"kind": "test", "i": 0},
                           "key": "0" * 64}]})
        assert err.value.status == 409

    def test_fetch_result_roundtrip_and_404(self, client, store):
        key = store.put({"kind": "test", "i": 1}, {"answer": 42}, label="u")
        payload = client.fetch_result(key)
        assert payload["result"] == {"answer": 42}
        assert payload["key"] == key
        assert client.fetch_result("f" * 64) is None

    def test_malformed_key_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/results/abc123")  # hex, wrong length
        assert err.value.status == 400

    def test_lease_on_empty_queue_is_204(self, client):
        assert client.lease("w1") is None

    def test_pickle_payloads_never_lease_over_http(self, client, store):
        """Sweep closures (pickle codec) stay local: the service only
        hands out JSON-codec jobs."""
        unit = WorkUnit(spec={"kind": "test", "i": 0},
                        payload={"x": 0, "fn": len}, label="closure")
        cid = JobQueue(store).submit([unit]).campaign_id
        assert client.lease("w1", campaign_id=cid) is None
        # The job is still there — pending, not failed.
        assert client.status(cid)["counts"]["pending"] == 1

    def test_client_rejects_pickle_payloads_before_sending(self, client):
        unit = WorkUnit(spec={"kind": "test", "i": 0},
                        payload={"fn": len}, label="closure")
        with pytest.raises(ValueError, match="local-only"):
            client.submit_plan([unit])

    def test_worker_lifecycle_over_http(self, client, store):
        """Lease over HTTP, complete over HTTP, watch the store fill."""
        unit = WorkUnit(spec={"kind": "test", "i": 7}, payload={"x": 7},
                        label="u7")
        cid = client.submit_plan([unit])["campaign_id"]
        job = client.lease("w1", campaign_id=cid)
        assert job.key == unit.key
        assert client.heartbeat(cid, job.key, "w1") is True
        done = client.complete(cid, job.key, "w1", spec=job.spec,
                               result={"value": 7}, label=job.label,
                               elapsed=0.01)
        assert done.ok is True and done.job is None and done.drained
        assert client.drained(cid)
        assert store.get_result(unit.key) == {"value": 7}
        detail = client.unit(unit.key)
        assert detail["stored"] is True
        assert detail["jobs"][0]["state"] == "done"

    def test_complete_key_mismatch_is_409(self, client):
        unit = WorkUnit(spec={"kind": "test", "i": 7}, payload={"x": 7},
                        label="u7")
        cid = client.submit_plan([unit])["campaign_id"]
        job = client.lease("w1", campaign_id=cid)
        with pytest.raises(ServiceError) as err:
            client.complete(cid, job.key, "w1", spec={"kind": "other"},
                            result={}, label=job.label)
        assert err.value.status == 409


    def test_complete_hands_out_the_next_unit(self, client):
        units = [WorkUnit(spec={"kind": "test", "i": i}, payload={"x": i},
                          label=f"u{i}") for i in range(2)]
        cid = client.submit_plan(units)["campaign_id"]
        first = client.lease("w1", campaign_id=cid)
        done = client.complete(cid, first.key, "w1", spec=first.spec,
                               result={"x": 0}, lease_next=True, scope=cid)
        assert done.ok is True and done.drained is False
        assert {first.key, done.job.key} == {unit.key for unit in units}
        assert (done.job.state, done.job.worker) == ("leased", "w1")
        assert done.job.payload == {"x": done.job.spec["i"]}
        last = client.complete(cid, done.job.key, "w1", spec=done.job.spec,
                               result={"x": 1}, lease_next=True, scope=cid)
        assert (last.ok, last.job, last.drained) == (True, None, True)

    def test_complete_never_hands_a_pickle_over_the_wire(self, client,
                                                          store):
        units = [WorkUnit(spec={"kind": "test", "i": 0}, payload={"x": 0},
                          label="json"),
                 WorkUnit(spec={"kind": "test", "i": 1},
                          payload={"x": 1, "fn": len}, label="pickle")]
        cid = JobQueue(store).submit(units).campaign_id
        job = client.lease("w1", campaign_id=cid)
        assert job.label == "json"
        done = client.complete(cid, job.key, "w1", spec=job.spec,
                               result={"x": 0}, lease_next=True, scope=cid)
        # The pickle unit stays pending for a local worker.
        assert (done.ok, done.job, done.drained) == (True, None, False)

    def test_unknown_campaign_drained_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.drained("deadbeef")
        assert err.value.status == 404

    def test_drained_is_one_transaction(self, client, store, server,
                                        monkeypatch):
        unit = WorkUnit(spec={"kind": "test", "i": 0}, payload={"x": 0},
                        label="u0")
        cid = client.submit_plan([unit])["campaign_id"]
        backend = server.service.queue.backend
        calls = []
        real = backend.transaction

        def counted(**kwargs):
            calls.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(backend, "transaction", counted)
        assert client.drained(cid) is False
        assert calls == [{}]


class TestServerHashing:
    def test_each_spec_is_hashed_once_per_submit_and_completion(
            self, client, monkeypatch):
        """The server hashes a unit's spec once when it is submitted and
        once when it is completed, however many layers it crosses."""
        from repro.campaign import jobs, plan, store as store_module
        from repro.service import api

        units = [WorkUnit(spec={"kind": "test", "i": i}, payload={"x": i},
                          label=f"u{i}") for i in range(3)]
        specs = [store_module.canonical_json(unit.spec) for unit in units]
        hashed = Counter()

        def counting(spec):
            hashed[store_module.canonical_json(spec)] += 1
            return store_module.unit_key(spec)

        for module in (api, jobs, plan):
            monkeypatch.setattr(module, "unit_key", counting)
        cid = client.submit_plan(units)["campaign_id"]
        assert [hashed[spec] for spec in specs] == [1, 1, 1]
        job = client.lease("w1", campaign_id=cid)
        while job is not None:
            job = client.complete(cid, job.key, "w1", spec=job.spec,
                                  result={"x": job.spec["i"]},
                                  lease_next=True, scope=cid).job
        assert [hashed[spec] for spec in specs] == [2, 2, 2]


class TestWait:
    def test_wait_polls_drained_and_fetches_status_once(
            self, client, server, monkeypatch):
        unit = WorkUnit(spec={"kind": "test", "i": 0}, payload={"x": 0},
                        label="u0")
        cid = client.submit_plan([unit])["campaign_id"]
        job = client.lease("w1", campaign_id=cid)
        requests = Counter()
        real = ServiceClient._request

        def counting(self, method, path, body=None):
            verb = path.rstrip("/").rsplit("/", 1)[-1]
            requests[verb] += 1
            if verb == "drained" and requests[verb] == 3:
                # The campaign drains between the second and third poll.
                server.service.queue.complete(
                    cid, job.key, "w1", spec=job.spec, result={"x": 0})
            return real(self, method, path, body)

        monkeypatch.setattr(ServiceClient, "_request", counting)
        final = client.wait(cid, timeout=30.0, poll=0.01)
        assert final["counts"]["done"] == 1
        assert requests == {"drained": 3, cid: 1}

    def test_timeout_reports_the_counts(self, client):
        unit = WorkUnit(spec={"kind": "test", "i": 0}, payload={"x": 0},
                        label="u0")
        cid = client.submit_plan([unit])["campaign_id"]
        with pytest.raises(TimeoutError, match="1 pending / 0 leased"):
            client.wait(cid, timeout=0.0)


class TestHttpCampaign:
    def test_a_drain_makes_one_lease_and_no_drained_request(
            self, client, store, monkeypatch):
        """The hot path: one lease, then one complete-and-lease-next per
        computed unit; the last completion reports the campaign drained."""
        monkeypatch.setattr(scheduler, "execute_unit", lambda payload: {
            "result": {"x": payload["x"]}, "elapsed": 0.0})
        units = [WorkUnit(spec={"kind": "test", "i": i}, payload={"x": i},
                          label=f"u{i}") for i in range(6)]
        for unit in units[:2]:
            store.put(unit.spec, {"x": unit.payload["x"]}, label=unit.label)
        cid = client.submit_plan(units)["campaign_id"]
        verbs = Counter()
        real = ServiceClient._request

        def counting(self, method, path, body=None):
            verbs[path.rstrip("/").rsplit("/", 1)[-1]] += 1
            return real(self, method, path, body)

        monkeypatch.setattr(ServiceClient, "_request", counting)
        stats = run_worker(client, campaign_id=cid)
        assert stats.completed == 4
        assert (verbs["lease"], verbs["complete"], verbs["drained"]) \
            == (1, 4, 0)

    def test_run_worker_drains_service_then_resubmit_is_all_cached(
            self, client, store):
        """The acceptance path: an HTTP pull worker computes the
        campaign; resubmitting the identical plan over HTTP reports
        every unit cached with nothing recomputed."""
        plan = plan_experiments(["E1"], QUICK)
        receipt = client.submit_plan(plan, name="cold")
        stats = run_worker(client, campaign_id=receipt["campaign_id"],
                           lease_ttl=10.0)
        assert stats.completed == len(plan)
        assert stats.failed == 0
        final = client.wait(receipt["campaign_id"], timeout=10.0)
        assert final["counts"]["done"] == len(plan)

        again = client.submit_plan(plan, name="warm")
        assert again["campaign_id"] == receipt["campaign_id"]
        assert again["cached"] == again["total"] == len(plan)
        assert again["pending"] == 0
        assert again["complete"] is True
        # Nothing left to execute: a worker joining now finds no work.
        idle = run_worker(client, campaign_id=again["campaign_id"])
        assert idle.leased == 0

        # And the stored bytes equal a local recompute of the same spec.
        for unit in plan:
            wire = client.fetch_result(unit.key)
            assert wire["spec"] == json.loads(json.dumps(dict(unit.spec)))
