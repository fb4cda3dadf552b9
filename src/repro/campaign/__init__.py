"""repro.campaign — persistent, resumable experiment campaigns.

The paper's claims are scaling laws, so the reproduction's real
workload is parameter sweeps; this package turns them from one-shot
scripts into incremental, cacheable, restartable jobs:

* :mod:`~repro.campaign.store` — a content-addressed result store
  (SQLite index + atomic JSON payload objects) keyed on the canonical
  hash of each work unit's spec.
* :mod:`~repro.campaign.plan` — expands experiment lists and
  ``parameter_grid`` sweeps into independent :class:`WorkUnit`\\ s with
  the derive-seed discipline.
* :mod:`~repro.campaign.backend` / :mod:`~repro.campaign.migrations` —
  the SQLite backend behind the store (WAL mode, a busy timeout) and
  the versioned migration chains that manage its schema and the perf
  history's.
* :mod:`~repro.campaign.jobs` — the worker-pull job queue (submit /
  lease / heartbeat / complete) that the scheduler, the forked local
  workers, and the HTTP service (:mod:`repro.service`) all share.
* :mod:`~repro.campaign.scheduler` — submits the plan to the queue,
  serves cached units from the store, and drains the rest through
  local pull workers, checkpointing each completion as it lands (kill
  it; re-running resumes).
* :mod:`~repro.campaign.query` — stored units back as
  :class:`~repro.analysis.records.ExperimentResult` objects and uniform
  row dicts, plus the provenance manifest.
* :mod:`~repro.campaign.schema` — the frozen field layouts of the
  machine-readable payloads (``status --json``, ``manifest.json``, the
  service envelopes).

CLI: ``python -m repro.campaign run all --results-dir results/``; the
experiment runner's ``--results-dir/--resume/--force`` flags and
``run_sweep(store=...)`` route through the same store.  ``run --serve``
and ``run --worker URL`` stretch the same campaign across machines.
"""

from repro.campaign.backend import SqliteWalBackend
from repro.campaign.jobs import (
    DEFAULT_LEASE_TTL,
    Completion,
    Job,
    JobQueue,
    SubmitReceipt,
)
from repro.campaign.migrations import SCHEMA_VERSION
from repro.campaign.plan import CampaignPlan, WorkUnit, plan_experiments, plan_sweep
from repro.campaign.query import (
    campaign_rows,
    campaign_status,
    fetch_result,
    fetch_row,
    read_manifest,
)
from repro.campaign.scheduler import (
    CampaignError,
    CampaignReport,
    execute_unit,
    run_campaign,
)
from repro.campaign.store import ResultStore, canonical_json, unit_key

__all__ = [
    "CampaignError",
    "CampaignPlan",
    "CampaignReport",
    "Completion",
    "DEFAULT_LEASE_TTL",
    "Job",
    "JobQueue",
    "ResultStore",
    "SCHEMA_VERSION",
    "SqliteWalBackend",
    "SubmitReceipt",
    "WorkUnit",
    "campaign_rows",
    "campaign_status",
    "canonical_json",
    "execute_unit",
    "fetch_result",
    "fetch_row",
    "plan_experiments",
    "plan_sweep",
    "read_manifest",
    "run_campaign",
    "unit_key",
]
