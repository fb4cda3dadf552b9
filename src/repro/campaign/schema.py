"""Frozen schemas for the campaign layer's machine-readable payloads.

``campaign status --json``, ``manifest.json``, and every HTTP response
of the campaign service embed ``schema`` / ``schema_version`` markers,
and their field layouts are declared *here* — then cross-checked
against the actually emitted payloads and pinned by a frozen
:func:`schema_fingerprint` test, the same discipline
:mod:`repro.bench.results` and :mod:`repro.obs.events` follow.  Adding,
renaming, or dropping a field fails the pin and forces a deliberate
version bump.
"""

from __future__ import annotations

import hashlib
import json

__all__ = [
    "STATUS_SCHEMA", "STATUS_SCHEMA_VERSION", "STATUS_FIELDS",
    "STATUS_ROW_FIELDS", "MANIFEST_SCHEMA", "MANIFEST_SCHEMA_VERSION",
    "MANIFEST_FIELDS", "MANIFEST_PLAN_FIELDS", "SERVICE_SCHEMA",
    "SERVICE_SCHEMA_VERSION", "JOB_ROW_FIELDS", "COMPLETION_FIELDS",
    "schema_fingerprint",
]

#: ``python -m repro.campaign status --json`` payload.
STATUS_SCHEMA = "repro.campaign.status"
STATUS_SCHEMA_VERSION = 1
STATUS_FIELDS = ("schema", "schema_version", "units", "cached", "missing",
                 "rows")
STATUS_ROW_FIELDS = ("unit", "kind", "key", "cached", "verdict",
                     "elapsed_s", "cpu_s", "rss_mb")

#: The store's ``manifest.json`` provenance record.
MANIFEST_SCHEMA = "repro.campaign.manifest"
MANIFEST_SCHEMA_VERSION = 1
MANIFEST_FIELDS = ("schema", "schema_version", "written_at", "git_rev",
                   "python", "argv", "elapsed", "machine", "trace",
                   "campaign_id", "units", "plan")
MANIFEST_PLAN_FIELDS = ("label", "key", "spec", "elapsed", "resources")

#: The HTTP service's response envelopes (see :mod:`repro.service.api`).
SERVICE_SCHEMA = "repro.service.api"
SERVICE_SCHEMA_VERSION = 2

#: The ``complete`` verb's reply body (besides the envelope markers):
#: whether this call finished the job, the worker's next lease (or
#: ``null``), and whether the lease scope is drained.
COMPLETION_FIELDS = ("ok", "job", "drained")

#: A job's status row as exposed by the queue and the service
#: (:meth:`repro.campaign.jobs.Job.status_row`).
JOB_ROW_FIELDS = ("campaign_id", "key", "label", "kind", "state", "cached",
                  "attempts", "worker", "lease_expires", "error",
                  "updated_at")


def schema_fingerprint() -> str:
    """SHA-256 over every declared field layout (names, not values).

    Pinned by a test: any change to any campaign-layer payload shape
    fails loudly and forces a deliberate version bump here.
    """
    layout = {
        "status": {"schema": STATUS_SCHEMA,
                   "schema_version": STATUS_SCHEMA_VERSION,
                   "fields": sorted(STATUS_FIELDS),
                   "row_fields": sorted(STATUS_ROW_FIELDS)},
        "manifest": {"schema": MANIFEST_SCHEMA,
                     "schema_version": MANIFEST_SCHEMA_VERSION,
                     "fields": sorted(MANIFEST_FIELDS),
                     "plan_fields": sorted(MANIFEST_PLAN_FIELDS)},
        "service": {"schema": SERVICE_SCHEMA,
                    "schema_version": SERVICE_SCHEMA_VERSION,
                    "job_row_fields": sorted(JOB_ROW_FIELDS),
                    "completion_fields": sorted(COMPLETION_FIELDS)},
    }
    canonical = json.dumps(layout, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
