"""Multi-process concurrency: one store, many writers and workers."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.campaign.jobs import JobQueue
from repro.campaign.plan import WorkUnit, plan_experiments
from repro.campaign.scheduler import run_campaign
from repro.campaign.store import ResultStore
from repro.experiments.common import ExperimentConfig

QUICK = ExperimentConfig(scale="quick")


def _writer_main(root: str, writer: int, count: int) -> None:
    store = ResultStore(root)
    for i in range(count):
        store.put({"kind": "test", "writer": writer, "i": i},
                  {"value": writer * 1000 + i}, label=f"w{writer}-{i}")


def _queue_worker_main(root: str, campaign_id: str, out_path: str) -> None:
    queue = JobQueue(ResultStore(root))
    executed = []
    while True:
        job = queue.lease(f"proc-{out_path[-5:]}", campaign_id=campaign_id,
                          ttl=60.0)
        if job is None:
            break
        queue.complete(job.campaign_id, job.key, job.worker, spec=job.spec,
                       result={"value": job.payload["x"]}, label=job.label)
        executed.append(job.key)
    with open(out_path, "w") as handle:
        json.dump(executed, handle)


@pytest.fixture
def mp():
    return multiprocessing.get_context("fork")


class TestConcurrentWriters:
    def test_two_writer_processes_share_one_store(self, tmp_path, mp):
        """WAL + busy timeout: interleaved writers corrupt nothing."""
        root = tmp_path / "store"
        ResultStore(root)  # migrate once up front
        count = 25
        procs = [mp.Process(target=_writer_main, args=(str(root), w, count))
                 for w in (1, 2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        store = ResultStore(root)
        assert len(store.keys()) == 2 * count
        assert len(store.rows()) == 2 * count
        assert store.reconcile() == (0, 0)  # index and objects agree

    def test_two_queue_workers_never_double_execute(self, tmp_path, mp):
        """The immediate-transaction lease claim: 20 jobs, 2 pulling
        processes, every job executed exactly once."""
        root = tmp_path / "store"
        store = ResultStore(root)
        units = [WorkUnit(spec={"kind": "test", "i": i}, payload={"x": i},
                          label=f"u{i}") for i in range(20)]
        cid = JobQueue(store).submit(units).campaign_id
        outs = [tmp_path / f"exec-{w}.json" for w in (1, 2)]
        procs = [mp.Process(target=_queue_worker_main,
                            args=(str(root), cid, str(out)))
                 for out in outs]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        executed = [set(json.loads(out.read_text())) for out in outs]
        assert executed[0] | executed[1] == {u.key for u in units}
        assert executed[0] & executed[1] == set()  # no double execution
        assert JobQueue(store).drained(cid)


class TestParallelBitIdentity:
    def test_concurrent_campaign_matches_serial(self, tmp_path):
        """jobs=2 (forked pull workers racing on the queue) produces the
        same bytes as jobs=1 — the acceptance bar for the queue being
        an execution detail, not a semantic one."""
        plan = plan_experiments(["E1", "E13"], QUICK)
        serial_store = ResultStore(tmp_path / "serial")
        parallel_store = ResultStore(tmp_path / "parallel")
        serial = run_campaign(plan, serial_store, jobs=1)
        parallel = run_campaign(plan, parallel_store, jobs=2)
        assert parallel.results == serial.results
        assert sorted(parallel.computed) == sorted(serial.computed)
        for unit in plan:
            a = serial_store.get(unit.key)
            b = parallel_store.get(unit.key)
            # meta (timings) legitimately differs; spec/result must not.
            assert a["spec"] == b["spec"]
            assert a["result"] == b["result"]
