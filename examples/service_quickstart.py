#!/usr/bin/env python
"""Campaign service quickstart: submit over HTTP, execute with a pull
worker, resubmit for free.

Boots the campaign service in-process on a free port, submits a small
experiment plan through :class:`repro.ServiceClient`, drains it with
the same :func:`repro.run_worker` loop that ``python -m repro.campaign
run --worker URL`` uses, and then resubmits the identical plan to show
the 100% cache hit: the service answers from the content-addressed
store and nothing is recomputed.

In production the three roles run as three processes (possibly on
three machines)::

    python -m repro.campaign run E1 E13 --results-dir results/ --serve
    python -m repro.campaign run --worker http://HOST:8642     # xN
    python -m repro.campaign status E1 E13 --results-dir results/ --json

Run:  python examples/service_quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import ResultStore, ServiceClient, plan_experiments, run_worker
from repro.experiments.common import ExperimentConfig
from repro.service import serve

PLAN = plan_experiments(["E1", "E13"], ExperimentConfig(scale="quick"))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "results")
        # port=0: let the OS pick — server.url reports the bound port.
        with serve(store, port=0) as server, \
                ServiceClient(server.url) as client:
            print(f"service up at {server.url} "
                  f"(store schema v{client.health()['store_schema_version']})")

            receipt = client.submit_plan(PLAN, name="quickstart")
            print(f"submitted campaign {receipt['campaign_id']}: "
                  f"{receipt['pending']} pending of {receipt['total']}")

            # Pull and execute over HTTP until the queue drains.  Run
            # several of these concurrently (or on other machines) and
            # they share the work via leases.
            stats = run_worker(client, campaign_id=receipt["campaign_id"])
            print(f"worker {stats.worker}: {stats.completed} unit(s) "
                  f"computed in {stats.elapsed:.2f}s")

            # Identical plan, second submission: every unit is already
            # in the store, so the receipt comes back complete — no
            # worker needed, nothing recomputed.
            again = client.submit_plan(PLAN, name="quickstart")
            print(f"resubmitted: {again['cached']}/{again['total']} cached, "
                  f"{again['pending']} pending "
                  f"(complete={again['complete']})")
            assert again["cached"] == again["total"]

            # Results round-trip by content address.
            for unit in PLAN:
                payload = client.fetch_result(unit.key)
                print(f"  {unit.label}: {len(payload['result'])} result "
                      f"field(s) from {payload['key'][:12]}")


if __name__ == "__main__":
    main()
