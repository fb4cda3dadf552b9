"""Campaign planning: expand experiments and sweeps into work units.

A campaign is a list of independent :class:`WorkUnit`\\ s.  Each unit
separates its **spec** — the canonical, backend-independent identity
that the store hashes into a content address — from its **payload**,
the concrete instructions a worker process needs to execute it.

Spec contract (what invalidates a cache key)
--------------------------------------------
``kind="experiment"`` units are keyed on::

    {v, kind, experiment, scale, seed, trials, stream[, protocol][, revision]}

* ``experiment``/``scale``/``seed``/``trials`` pin the work the paper's
  tables call for; changing any of them is different work.
* ``protocol`` is the canonical token of a **non-default** spreading
  protocol (:meth:`repro.experiments.common.ExperimentConfig.protocol_token`),
  recorded only for experiments whose module declares
  ``PROTOCOL_AWARE = True`` (they consume ``config.protocol``, so the
  token changes their bytes).  The default ``flooding`` — and any
  protocol handed to a protocol-oblivious experiment — is *omitted*,
  so every key computed before the protocol subsystem existed stays
  byte-identical (flooding through the protocol registry is
  bit-identical to the pre-registry flood, so those stored results
  remain exactly what a recompute would produce) and ``--protocol``
  never relabels or recomputes work it cannot affect.
* ``stream`` is :meth:`repro.experiments.common.ExperimentConfig.stream_contract`:
  ``"replay"`` for the serial/batched/parallel backends (bit-identical
  by the engine's seed-tree contract, so they *share* cache entries)
  and ``"native/cs<chunk>"`` for the fast native kernels (identical in
  distribution but different realisations, so they never alias).
* ``revision`` is the experiment module's optional ``SPEC_REVISION``
  constant, read the way ``PROTOCOL_AWARE`` is read.  An experiment
  whose results change on purpose (its own code, not the simulator)
  sets or raises it, which moves that experiment's keys and no other
  key; without the constant the field is omitted, so every key
  computed before it existed stays byte-identical.  E14 sets it to 2:
  its push/pull/push-pull rows moved from per-node Python gossip loops
  to the vectorised registry protocols, which draw differently.
* Deliberately **excluded**: the executing backend, worker counts,
  output directories — anything that cannot change the table bytes.

``kind="sweep-point"`` units are keyed on ``{v, kind, sweep, params,
seed}`` where ``seed`` is the point's derive-seed (master seed + grid
index), matching :func:`repro.analysis.sweep.run_sweep`'s discipline:
grid points keep their randomness when the grid around them changes.

Bumping ``_SPEC_VERSION`` invalidates every stored key at once; do that
whenever simulation semantics change incompatibly.  To invalidate one
experiment only, raise its ``SPEC_REVISION``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.sweep import SweepPoint
from repro.campaign.store import unit_key
from repro.experiments.common import ExperimentConfig
from repro.experiments.registry import load_experiment, normalize_id
from repro.util.rng import SeedLike, derive_seed
from repro.util.validation import require

__all__ = ["WorkUnit", "CampaignPlan", "plan_experiments", "plan_sweep"]

#: Bump to invalidate every key in every store (semantic changes only).
_SPEC_VERSION = 1


@dataclass(frozen=True)
class WorkUnit:
    """One independent, cacheable piece of campaign work."""

    spec: Mapping[str, Any]
    payload: Mapping[str, Any]
    label: str
    key: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.key:
            object.__setattr__(self, "key", unit_key(self.spec))

    @property
    def kind(self) -> str:
        return str(self.spec["kind"])


@dataclass(frozen=True)
class CampaignPlan:
    """An ordered collection of work units (order = report order)."""

    units: tuple[WorkUnit, ...]

    def __post_init__(self) -> None:
        require(len(self.units) > 0, "a campaign needs at least one unit")
        keys = [unit.key for unit in self.units]
        require(len(set(keys)) == len(keys),
                "campaign contains duplicate work units")

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self):
        return iter(self.units)

    def keys(self) -> list[str]:
        return [unit.key for unit in self.units]


def _experiment_unit(experiment_id: str, config: ExperimentConfig) -> WorkUnit:
    canonical = normalize_id(experiment_id)
    spec = {
        "v": _SPEC_VERSION,
        "kind": "experiment",
        "experiment": canonical,
        "scale": config.scale,
        "seed": int(config.seed),
        "trials": None if config.trials is None else int(config.trials),
        "stream": config.stream_contract(),
    }
    # The spreading protocol is part of the work's identity, but only
    # where it can change the result bytes: experiments that actually
    # consume ``config.protocol`` declare ``PROTOCOL_AWARE = True`` in
    # their module.  For everything else — and for the default
    # ``flooding`` everywhere — the key field is *omitted*, never
    # written, so default-flooding units hash to exactly what
    # pre-protocol stores hashed to (flooding through the registry is
    # bit-identical; enforced in tests/engine and tests/protocols) and
    # a protocol-oblivious experiment run under ``--protocol X`` is
    # correctly recognised as the same cached work, not relabelled.
    module = load_experiment(canonical)
    token = config.protocol_token()
    aware = (token != "flooding"
             and getattr(module, "PROTOCOL_AWARE", False))
    if aware:
        spec["protocol"] = token
    # Omitted, never written as None, when the module declares no
    # revision: keys of unrevised experiments stay byte-identical.
    revision = getattr(module, "SPEC_REVISION", None)
    if revision is not None:
        spec["revision"] = int(revision)
    # The payload keeps the *executing* knobs (backend, jobs) that the
    # spec deliberately ignores; output_dir stays with the caller — the
    # store is the campaign's persistence layer.  The payload protocol
    # mirrors the spec's identity: protocol-oblivious experiments run
    # (and record provenance) as flooding work.
    payload = {
        "kind": "experiment",
        "experiment": canonical,
        "config": {
            "seed": int(config.seed),
            "scale": config.scale,
            "trials": config.trials,
            "backend": config.backend,
            "jobs": config.jobs if config.backend == "parallel" else None,
            # The canonical token, not the raw CLI spelling: equal cache
            # keys must carry equal provenance.
            "protocol": token if aware else "flooding",
        },
    }
    return WorkUnit(spec=spec, payload=payload, label=canonical)


def plan_experiments(ids: Sequence[str],
                     config: ExperimentConfig) -> CampaignPlan:
    """Expand experiment *ids* into one work unit each (duplicates are
    collapsed — the same id twice is the same content-addressed work)."""
    seen: dict[str, WorkUnit] = {}
    for experiment_id in ids:
        unit = _experiment_unit(experiment_id, config)
        seen.setdefault(unit.key, unit)
    return CampaignPlan(tuple(seen.values()))


def plan_sweep(
    func: Callable[[SweepPoint], Mapping[str, Any]],
    grid: Sequence[Mapping[str, Any]],
    *,
    seed: SeedLike = None,
    sweep_id: str | None = None,
) -> CampaignPlan:
    """Expand a parameter grid into per-point work units.

    Each point gets the same stable seed :func:`run_sweep` would give it
    (``derive_seed(seed, index)``), so a swept grid and a campaign over
    the same grid share cache entries.  *sweep_id* names the sweep in
    the cache key (default: the function's qualified name); keep it
    stable across code moves if you want old entries to stay valid, and
    change it when *func*'s semantics change.

    *func* must be picklable (module-level, or ``functools.partial`` of
    one) for multi-process dispatch.
    """
    require(len(grid) > 0, "grid must be non-empty")
    if sweep_id is None:
        # Lambdas share a "<lambda>" qualname (two different lambdas
        # would alias each other's cache entries) and partial objects
        # have no qualname at all — neither yields a stable namespace.
        module = getattr(func, "__module__", None)
        qualname = getattr(func, "__qualname__", None)
        require(bool(module) and bool(qualname) and "<lambda>" not in qualname,
                f"cannot derive a stable sweep_id from {func!r}; "
                "pass sweep_id= explicitly")
        sweep_id = f"{module}.{qualname}"
    units = []
    for index, params in enumerate(grid):
        point_seed = derive_seed(seed, index)
        spec = {
            "v": _SPEC_VERSION,
            "kind": "sweep-point",
            "sweep": sweep_id,
            "params": dict(params),
            "seed": point_seed,
        }
        payload = {
            "kind": "sweep-point",
            "func": func,
            "params": dict(params),
            "seed": point_seed,
            "index": index,
        }
        units.append(WorkUnit(spec=spec, payload=payload,
                              label=f"{sweep_id.rsplit('.', 1)[-1]}[{index}]"))
    return CampaignPlan(tuple(units))
