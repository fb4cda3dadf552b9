"""The service transport: one kept-alive connection per client thread
and process, one write per response, and a server that stops serving
when it is stopped."""

from __future__ import annotations

import http.client
import multiprocessing
import pickle
import socket
import statistics
import sys
import threading
import time

import pytest

from repro.campaign import scheduler
from repro.campaign.jobs import JobQueue
from repro.campaign.plan import CampaignPlan, WorkUnit, plan_experiments
from repro.campaign.scheduler import execute_unit, run_campaign
from repro.campaign.store import ResultStore, canonical_json
from repro.experiments.common import ExperimentConfig
from repro.service.api import serve
from repro.service.client import ServiceClient
from repro.service.worker import run_worker


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "results")


@pytest.fixture
def server(store):
    with serve(store, port=0) as running:
        yield running


@pytest.fixture
def accepted(server):
    """Client addresses of the connections the server accepts from now
    on, one entry per TCP connection."""
    seen: list[tuple[str, int]] = []
    process_request = server.httpd.process_request

    def record(request, client_address):
        seen.append(client_address)
        process_request(request, client_address)

    server.httpd.process_request = record
    return seen


def _local_port(client: ServiceClient) -> int:
    return client._connection().sock.getsockname()[1]


def _handler_threads() -> int:
    return sum("process_request_thread" in thread.name
               for thread in threading.enumerate())


def _wait_for(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


def _child_requests(client: ServiceClient, parent_port: int) -> None:
    """Forked child: the inherited client must open its own socket."""
    ok = client.health()["status"] == "ok"
    raise SystemExit(0 if ok and _local_port(client) != parent_port else 1)


class TestKeepAlive:
    def test_keep_alive_request_latency_under_5ms(self, server):
        """Guards against the ~40 ms Nagle/delayed-ACK stall a split
        header/body response costs on a kept-alive connection."""
        with ServiceClient(server.url) as client:
            client.health()  # connect outside the timed requests
            samples = []
            for _ in range(20):
                start = time.perf_counter()
                client.health()
                samples.append(time.perf_counter() - start)
        assert statistics.median(samples) < 0.005, samples

    def test_sequential_requests_share_one_connection(self, server,
                                                      accepted):
        with ServiceClient(server.url) as client:
            for _ in range(10):
                assert client.health()["status"] == "ok"
            assert [port for _, port in accepted] == [_local_port(client)]

    def test_threads_share_a_client_not_a_connection(self, server, store,
                                                     accepted):
        keys = [store.put({"kind": "test", "i": i}, {"i": i}, label=str(i))
                for i in range(100)]
        client = ServiceClient(server.url)
        errors: list[BaseException] = []

        def fetch(part: list[str]) -> None:
            try:
                for key in part:
                    payload = client.fetch_result(key)
                    assert payload["key"] == key
                    assert payload["result"] == {"i": keys.index(key)}
            except BaseException as exc:
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=fetch, args=(keys[i::4],))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(accepted) == 4  # one connection per thread

    def test_forked_child_opens_its_own_connection(self, server):
        with ServiceClient(server.url) as client:
            client.health()
            parent_port = _local_port(client)
            child = multiprocessing.get_context("fork").Process(
                target=_child_requests, args=(client, parent_port))
            child.start()
            child.join(timeout=30)
            assert child.exitcode == 0
            assert client.health()["status"] == "ok"
            assert _local_port(client) == parent_port

    def test_pickled_client_opens_its_own_connection(self, server):
        with ServiceClient(server.url, timeout=7.0) as client:
            client.health()
            with pickle.loads(pickle.dumps(client)) as copy:
                assert copy.timeout == 7.0
                assert copy.health()["status"] == "ok"
                assert _local_port(copy) != _local_port(client)

    def test_unread_request_body_does_not_desync_the_connection(
            self, server, accepted):
        """A body the router never parses (no route matched) is still
        consumed, so the next request on the connection is read from
        its own first byte."""
        with ServiceClient(server.url) as client:
            status, _ = client._exchange(
                "POST", "/v1/nowhere", b'{"worker": "w"}')
            assert status == 404
            assert client.health()["status"] == "ok"
            assert len(accepted) == 1

    @pytest.mark.parametrize("length, status", [
        ("nope", 400), (str(64 * 1024 * 1024), 413)])
    def test_unskippable_body_closes_the_connection(self, server, length,
                                                    status):
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/v1/lease")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            response.read()
            assert response.status == status
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()


class TestRetry:
    def test_idle_connection_closed_by_server_is_retried_once(
            self, server, accepted):
        with ServiceClient(server.url) as client:
            client.health()
            first = _local_port(client)
            server.httpd.close_connections()  # the server drops it
            assert client.health()["status"] == "ok"
            assert _local_port(client) != first
            assert len(accepted) == 2

    def test_refused_fresh_connection_is_not_retried(self, monkeypatch):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]  # nothing listens once closed
        connects = []
        connect = http.client.HTTPConnection.connect
        monkeypatch.setattr(http.client.HTTPConnection, "connect",
                            lambda conn: (connects.append(1), connect(conn)))
        with pytest.raises(ConnectionRefusedError):
            ServiceClient(f"http://127.0.0.1:{port}").health()
        assert len(connects) == 1

    def test_fresh_connection_dropped_by_server_is_not_retried(self):
        accepts = []
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()

            def hang_up() -> None:
                while True:
                    try:
                        conn, _ = listener.accept()
                    except OSError:
                        return
                    accepts.append(1)
                    conn.recv(65536)
                    conn.close()

            threading.Thread(target=hang_up, daemon=True).start()
            url = "http://127.0.0.1:%d" % listener.getsockname()[1]
            with pytest.raises(http.client.RemoteDisconnected):
                ServiceClient(url).health()
        assert accepts == [1]


class TestLostCompletionReply:
    """A complete-and-lease-next reply lost after the server committed:
    the retry finds its unit done, and the lease the lost reply carried
    expires and is re-leased like a dead worker's."""

    TTL = 30.0

    def test_retry_is_not_ok_and_the_orphan_is_re_leased(
            self, tmp_path, monkeypatch):
        plan = CampaignPlan(tuple(
            unit for seed in (0, 1, 2) for unit in plan_experiments(
                ["E1"], ExperimentConfig(scale="quick", seed=seed))))
        reference = ResultStore(tmp_path / "reference")
        run_campaign(plan, reference, jobs=1)

        store = ResultStore(tmp_path / "results")
        now = [1000.0]
        with serve(store, port=0) as server:
            server.service.queue.clock = lambda: now[0]
            handler = server.httpd.RequestHandlerClass
            send_json = handler._send_json
            lost = []

            def lose_first_completion(self, status, payload):
                if lost or not self.path.endswith("/complete"):
                    return send_json(self, status, payload)
                lost.append(payload)  # committed, never answered
                self.close_connection = True
                self.connection.shutdown(socket.SHUT_RDWR)

            monkeypatch.setattr(handler, "_send_json",
                                lose_first_completion)
            with ServiceClient(server.url) as client:
                cid = client.submit_plan(plan)["campaign_id"]
                first = client.lease("w", campaign_id=cid, ttl=self.TTL)
                outcome = execute_unit(dict(first.payload))
                done = client.complete(
                    cid, first.key, "w", spec=first.spec,
                    result=outcome["result"], label=first.label,
                    lease_next=True, scope=cid, ttl=self.TTL)
                # One lost reply, whose claim the client never saw; the
                # single retry found the unit done and claimed another.
                [reply] = lost
                assert reply["ok"] is True
                orphan = reply["job"]["key"]
                assert done.ok is False
                assert done.job.key not in (first.key, orphan)

                outcome = execute_unit(dict(done.job.payload))
                last = client.complete(
                    cid, done.job.key, "w", spec=done.job.spec,
                    result=outcome["result"], label=done.job.label,
                    lease_next=True, scope=cid, ttl=self.TTL)
                assert (last.ok, last.job, last.drained) \
                    == (True, None, False)  # the orphan is still leased
                assert client.lease("w2", campaign_id=cid) is None

                now[0] += self.TTL + 1.0  # the orphan's lease runs out
                stats = run_worker(client, campaign_id=cid, worker="w2",
                                   lease_ttl=self.TTL)
                assert stats.keys == [orphan]
                job = server.service.queue.job(cid, orphan)
                assert (job.state, job.worker, job.attempts) \
                    == ("done", "w2", 2)
                assert client.drained(cid)

        for unit in plan:
            assert canonical_json(store.get(unit.key)["result"]) \
                == canonical_json(reference.get(unit.key)["result"])


class TestShutdown:
    def test_stopped_server_answers_no_kept_alive_connection(self, store):
        server = serve(store, port=0).start()
        client = ServiceClient(server.url)
        assert client.health()["status"] == "ok"
        server.stop()
        unit = WorkUnit(spec={"kind": "test", "i": 0}, payload={"x": 0},
                        label="u0")
        with pytest.raises((OSError, http.client.HTTPException)):
            client.submit_plan([unit])
        with pytest.raises((OSError, http.client.HTTPException)):
            client.health()
        assert JobQueue(store).campaigns() == []
        assert len(store) == 0

    def test_never_started_server_stops(self, store):
        server = serve(store, port=0)
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive(), "stop() hung on a server never started"

    def test_started_server_stops_well_under_the_default_poll(self, store):
        server = serve(store, port=0).start()
        assert ServiceClient(server.url).health()["status"] == "ok"
        began = time.perf_counter()
        server.stop()
        assert time.perf_counter() - began < 0.25

    def test_heartbeat_connections_close_when_their_threads_end(
            self, server, accepted, monkeypatch):
        """The worker's one lease-renewal thread opens its own
        connection; once the drain is over that thread has ended, and
        only the worker's own connection is left open."""

        def slow_unit(payload):
            time.sleep(0.35)  # long enough for three ttl/3 renewals
            return {"result": {"x": payload["x"]}, "elapsed": 0.35}

        monkeypatch.setattr(scheduler, "execute_unit", slow_unit)
        units = [WorkUnit(spec={"kind": "test", "i": i}, payload={"x": i},
                          label=f"u{i}")
                 for i in range(3)]
        with ServiceClient(server.url) as client:
            cid = client.submit_plan(units)["campaign_id"]
            stats = run_worker(client, campaign_id=cid, lease_ttl=0.3)
            assert stats.completed == 3
            assert len(accepted) >= 2  # heartbeats ran on connections
            assert _wait_for(lambda: _handler_threads() <= 2), \
                _handler_threads()
