"""Frozen campaign payload schemas, cross-checked against emissions."""

from __future__ import annotations

import json

from repro.campaign import schema
from repro.campaign.cli import main as campaign_main
from repro.campaign.jobs import JobQueue
from repro.campaign.plan import CampaignPlan, WorkUnit
from repro.campaign.scheduler import CampaignReport, write_manifest
from repro.campaign.store import ResultStore
from repro.service.api import CampaignService


def test_schema_fingerprint_pin():
    # Frozen: any field added to / renamed in / dropped from the
    # status, manifest, or service payloads fails here and forces a
    # deliberate schema_version bump alongside a re-pin.
    assert schema.schema_fingerprint() == (
        "f4a14ece2017acdea646fef55f5f47ac"
        "f303c5e64100596f73e9879470a14674")


def test_status_json_emits_declared_fields(tmp_path, capsys):
    ResultStore(tmp_path)  # empty store is a valid status target
    assert campaign_main(["status", "E1", "--results-dir", str(tmp_path),
                          "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == set(schema.STATUS_FIELDS)
    assert payload["schema"] == schema.STATUS_SCHEMA
    assert payload["schema_version"] == schema.STATUS_SCHEMA_VERSION
    for row in payload["rows"]:
        assert set(row) == set(schema.STATUS_ROW_FIELDS)


def test_manifest_emits_declared_fields(tmp_path):
    store = ResultStore(tmp_path)
    unit = WorkUnit(spec={"kind": "test", "i": 0}, payload={"x": 0},
                    label="unit-0")
    report = CampaignReport(plan=CampaignPlan(units=(unit,)),
                            results={unit.key: {"ok": True}},
                            computed=[unit.key], campaign_id="abc123")
    path = write_manifest(store, report)
    manifest = json.loads(path.read_text())
    assert set(manifest) == set(schema.MANIFEST_FIELDS)
    assert manifest["schema"] == schema.MANIFEST_SCHEMA
    assert manifest["schema_version"] == schema.MANIFEST_SCHEMA_VERSION
    assert manifest["campaign_id"] == "abc123"
    (entry,) = manifest["plan"]
    assert set(entry) == set(schema.MANIFEST_PLAN_FIELDS)


def test_job_status_row_matches_declared_fields(tmp_path):
    store = ResultStore(tmp_path)
    queue = JobQueue(store.backend)
    unit = WorkUnit(spec={"kind": "test", "i": 0}, payload={"x": 0},
                    label="unit-0")
    cid = queue.submit([unit], store).campaign_id
    (job,) = queue.jobs(cid)
    assert tuple(job.status_row()) == schema.JOB_ROW_FIELDS


def test_completion_reply_emits_declared_fields(tmp_path):
    store = ResultStore(tmp_path)
    service = CampaignService(store)
    unit = WorkUnit(spec={"kind": "test", "i": 0}, payload={"x": 0},
                    label="unit-0")
    cid = service.queue.submit([unit], store).campaign_id
    job = service.queue.lease("w1", campaign_id=cid)
    reply = service.complete(cid, {"worker": "w1", "key": job.key,
                                   "spec": dict(job.spec),
                                   "result": {"x": 0}, "lease_next": True,
                                   "scope": cid})
    assert set(reply) == {"schema", "schema_version",
                          *schema.COMPLETION_FIELDS}
    assert reply["schema_version"] == schema.SERVICE_SCHEMA_VERSION
