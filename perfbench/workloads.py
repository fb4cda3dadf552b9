"""The benchmark's four workloads.

Each workload is a closed loop of queries driven by ``run.py``: a query
is issued only after the previous one returned.  A workload object
builds its inputs from the workload seed (``__init__``, part of set-up),
then per query

* ``prepare(i)`` does untimed preparation and returns the query context,
* ``run(i, ctx)`` is the timed call into the program,
* ``account(i, ctx, outcome)`` checks the outcome (a return value or the
  exception ``run`` raised) and returns a :class:`Tally`,

and ``check()`` returns the run-level output checks that failed.
Program calls go through ``repro.<name>`` attribute lookups so the
traced run's wrappers (``probe.install``) see them.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import repro
from repro.campaign import CampaignPlan, ResultStore, WorkUnit
from repro.campaign.store import canonical_json
from repro.experiments.common import ExperimentConfig
from repro.experiments.registry import load_experiment
from repro.service.api import CampaignService, ServiceServer

N = 1024
TRIALS = 32
EXPERIMENTS = ("E15", "E1")
REFERENCE = Path(__file__).with_name("reference.json")

#: Standard errors by which a run's mean flooding time may sit from the
#: reference mean before the run counts as wrong.
REFERENCE_SIGMAS = 4.0


@dataclass
class Tally:
    """What one query did, in work units (trials or campaign units)."""

    units: int
    failed: int
    rounds: int = 0  # sum of flooding times (flood workloads)
    hits: int = 0    # units served from the store (campaign workloads)


# ---------------------------------------------------------------------------
# flood-edge / flood-geometric
# ---------------------------------------------------------------------------

def edge_model() -> "repro.EdgeMEG":
    """E8's sparse law at Thm 4.3: p_hat = 2 ln n / n, q = 1/2."""
    p_hat, q = 2 * math.log(N) / N, 0.5
    return repro.EdgeMEG(N, p_hat * q / (1 - p_hat), q)


def geometric_model() -> "repro.GeometricMEG":
    """E4's radius law at Thm 3.4: move radius 1, R = 2 sqrt(ln n)."""
    return repro.GeometricMEG(N, 1.0, 2 * math.sqrt(math.log(N)))


class Flood:
    """``flooding_trials`` ensembles: 32 native batched trials per query,
    each from a random source."""

    units_per_query = TRIALS

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.name = name
        self.seed = seed
        self.model = edge_model() if name == "flood-edge" else geometric_model()
        self.times: list[int] = []
        self.incomplete = 0

    def prepare(self, i: int) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.seed, i])

    def run(self, i: int, ctx: np.random.SeedSequence) -> list:
        return repro.flooding_trials(self.model, trials=TRIALS, seed=ctx,
                                     backend="batched", rng_mode="native")

    def account(self, i: int, ctx: Any, outcome: Any) -> Tally:
        if isinstance(outcome, Exception):
            return Tally(TRIALS, TRIALS)
        times = [int(r.time) for r in outcome]
        incomplete = sum(not r.completed for r in outcome)
        self.times.extend(times)
        self.incomplete += incomplete
        return Tally(len(outcome), incomplete + TRIALS - len(outcome),
                     rounds=sum(times))

    def check(self) -> list[str]:
        problems = []
        if self.incomplete:
            problems.append(f"{self.incomplete} trial(s) hit the step budget")
        if len(self.times) < 2:
            return problems + ["too few trials to check the law"]
        ref = json.loads(REFERENCE.read_text())[self.name]
        mean = float(np.mean(self.times))
        # The run's standard error under the reference law: the run's own
        # sample deviation is 0 whenever flood-edge draws no 5-round trial.
        se = ref["se"] * math.sqrt(ref["trials"] / len(self.times))
        limit = REFERENCE_SIGMAS * math.hypot(se, ref["se"])
        if abs(mean - ref["mean"]) > limit:
            problems.append(
                f"mean flooding time {mean:.4f} is {abs(mean - ref['mean']):.4f}"
                f" from the reference {ref['mean']:.4f} (limit {limit:.4f})")
        return problems

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# campaign-local / service-http
# ---------------------------------------------------------------------------

def experiment_plan(seeds: list[int]) -> CampaignPlan:
    """{E15, E1} at quick scale, serial backend, for each seed."""
    units: list[WorkUnit] = []
    for seed in seeds:
        config = ExperimentConfig(scale="quick", seed=seed)
        units.extend(repro.plan_experiments(EXPERIMENTS, config))
    return CampaignPlan(tuple(units))


def failing_unit() -> WorkUnit:
    """A unit whose execution raises (the self-test's injected failure)."""
    return WorkUnit(spec={"kind": "experiment", "experiment": "injected"},
                    payload={"kind": "injected-failure"},
                    label="injected-failure")


class Expected:
    """Results of running each unit's experiment config directly -- what
    the replay contract says a campaign must return, byte for byte."""

    def __init__(self) -> None:
        self._by_key: dict[str, str | None] = {}

    def get(self, unit: WorkUnit) -> str | None:
        if unit.key not in self._by_key:
            payload = unit.payload
            if payload.get("kind") != "experiment":
                self._by_key[unit.key] = None
            else:
                config = ExperimentConfig(**payload["config"])
                result = load_experiment(payload["experiment"]).run(config)
                self._by_key[unit.key] = canonical_json(
                    json.loads(result.to_json()))
        return self._by_key[unit.key]

    def failures(self, plan: CampaignPlan,
                 results: dict[str, Any]) -> int:
        """Units of *plan* whose result is missing or differs."""
        failed = 0
        for unit in plan:
            got = results.get(unit.key)
            want = self.get(unit)
            if got is None or want is None or canonical_json(got) != want:
                failed += 1
        return failed


def _seed_base(seed: int) -> int:
    return 1000 * seed


def hit_ratio_problems(hits: int, units: int) -> list[str]:
    """The plans are built so that exactly half the units are cached."""
    if 2 * hits != units:
        return [f"cache hit ratio {hits}/{units} is not 1/2"]
    return []


class CampaignLocal:
    """``run_campaign(plan, store, jobs=1)`` over 8 units, half of them
    already in the store; every query starts from a copy of the same
    template store."""

    def __init__(self, name: str, seed: int, workdir: Path,
                 inject_failure: bool = False) -> None:
        base = _seed_base(seed)
        stored, new = [base, base + 1], [base + 2, base + 3]
        self.workdir = workdir
        self.template = workdir / "template"
        repro.run_campaign(experiment_plan(stored),
                           ResultStore(self.template), jobs=1)
        self.plan = experiment_plan(stored + new)
        if inject_failure:
            self.plan = CampaignPlan(self.plan.units + (failing_unit(),))
        self.units_per_query = len(self.plan)
        self.expected = Expected()
        self.hits = self.units = 0

    def prepare(self, i: int) -> ResultStore:
        path = self.workdir / f"query-{i}"
        shutil.copytree(self.template, path)
        return ResultStore(path)

    def run(self, i: int, store: ResultStore) -> Any:
        return repro.run_campaign(self.plan, store, jobs=1)

    def account(self, i: int, store: ResultStore, outcome: Any) -> Tally:
        if isinstance(outcome, Exception):
            # What did reach the store still counts; the rest failed.
            results = {}
            for unit in self.plan:
                payload = store.get(unit.key)
                if payload is not None:
                    results[unit.key] = payload["result"]
            hits = 0
        else:
            results, hits = outcome.results, len(outcome.fetched)
        self.hits += hits
        self.units += len(self.plan)
        failed = self.expected.failures(self.plan, results)
        shutil.rmtree(store.root)
        return Tally(len(self.plan), failed, hits=hits)

    def check(self) -> list[str]:
        return hit_ratio_problems(self.hits, self.units)

    def close(self) -> None:
        pass


class ServiceHttp:
    """The same plan shape over a loopback HTTP service: submit, drain
    with one ``run_worker`` over ``ServiceClient``, fetch every result.

    One server and store serve the whole run; each query brings two new
    seeds beside the two stored ones, so half its units are cached."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        base = _seed_base(seed)
        self.stored = [base, base + 1]
        self.next_seed = base + 2
        store = ResultStore(workdir / "service")
        repro.run_campaign(experiment_plan(self.stored), store, jobs=1)
        self.server = ServiceServer(CampaignService(store), port=0).start()
        self.client = repro.ServiceClient(self.server.url)
        self.units_per_query = 2 * len(EXPERIMENTS) * len(self.stored)
        self.expected = Expected()
        self.hits = self.units = 0

    def prepare(self, i: int) -> CampaignPlan:
        # Query i always gets the same two new seeds, whatever ran before.
        new = self.next_seed + 2 * i
        return experiment_plan(self.stored + [new, new + 1])

    def run(self, i: int, plan: CampaignPlan) -> Any:
        receipt = self.client.submit_plan(plan)
        repro.run_worker(self.client, campaign_id=receipt["campaign_id"])
        fetched = {unit.key: self.client.fetch_result(unit.key)
                   for unit in plan}
        return receipt, fetched

    def account(self, i: int, plan: CampaignPlan, outcome: Any) -> Tally:
        self.units += len(plan)
        if isinstance(outcome, Exception):
            return Tally(len(plan), len(plan))
        receipt, fetched = outcome
        results = {key: payload["result"] for key, payload in fetched.items()
                   if payload is not None}
        hits = int(receipt["cached"])
        self.hits += hits
        failed = self.expected.failures(plan, results)
        return Tally(len(plan), failed, hits=hits)

    def check(self) -> list[str]:
        return hit_ratio_problems(self.hits, self.units)

    def close(self) -> None:
        self.server.stop()


WORKLOADS = {
    "flood-edge": Flood,
    "flood-geometric": Flood,
    "campaign-local": CampaignLocal,
    "service-http": ServiceHttp,
}
