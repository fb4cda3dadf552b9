"""Schema-versioned benchmark result artifacts (``BENCH_<suite>.json``).

One :class:`SuiteResult` is one run of one suite on one machine at one
commit.  The JSON encoding is the machine-readable perf trajectory the
repository was missing: CI emits it as an artifact on every push, and
``repro.bench compare`` gates merges against the checked-in baselines
under ``benchmarks/baselines/``.

The schema is frozen by :func:`schema_fingerprint` (pinned in
``tests/bench``): adding, renaming, or dropping a field must bump
:data:`SCHEMA_VERSION`, so every historical artifact stays parseable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping

from repro.obs.events import git_sha, machine_fingerprint
from repro.util.validation import require

__all__ = ["SCHEMA_NAME", "SCHEMA_VERSION", "CaseResult", "SuiteResult",
           "machine_fingerprint", "git_sha", "schema_fingerprint",
           "result_filename", "load_result"]

SCHEMA_NAME = "repro.bench/result"
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CaseResult:
    """Measured statistics of one case.

    Times are seconds.  ``speedup`` is ``ref_best / best`` when the case
    declares a serial reference, else ``None``; ``floor`` and
    ``tolerance`` travel with the result so ``compare`` can gate an
    artifact without importing the registry that produced it.
    """

    name: str
    scale: str
    rounds: int
    best_s: float
    median_s: float
    iqr_s: float
    ref: str | None = None
    speedup: float | None = None
    floor: float | None = None
    tolerance: float = 4.0


@dataclass(frozen=True)
class SuiteResult:
    """One suite run: provenance header plus per-case statistics."""

    suite: str
    schema: str
    schema_version: int
    created_at: str
    git_sha: str | None
    machine: dict[str, Any]
    config: dict[str, Any]
    cases: tuple[CaseResult, ...]

    def __post_init__(self) -> None:
        require(self.schema == SCHEMA_NAME,
                f"not a bench result (schema {self.schema!r})")
        require(self.schema_version == SCHEMA_VERSION,
                f"unsupported schema version {self.schema_version} "
                f"(this build reads v{SCHEMA_VERSION})")
        names = [case.name for case in self.cases]
        require(len(names) == len(set(names)),
                "duplicate case names in suite result")

    def case(self, name: str) -> CaseResult | None:
        for case in self.cases:
            if case.name == name:
                return case
        return None

    def to_json(self) -> str:
        payload = asdict(self)
        payload["cases"] = [asdict(case) for case in self.cases]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SuiteResult":
        payload = json.loads(text)
        require(isinstance(payload, dict), "bench result must be an object")
        known = {f.name for f in fields(CaseResult)}
        cases = tuple(
            CaseResult(**{k: v for k, v in case.items() if k in known})
            for case in payload.pop("cases", []))
        top = {f.name for f in fields(cls)} - {"cases"}
        return cls(cases=cases,
                   **{k: v for k, v in payload.items() if k in top})

    @classmethod
    def build(cls, suite: str, cases: tuple[CaseResult, ...], *,
              config: Mapping[str, Any] | None = None) -> "SuiteResult":
        """Assemble a result with fresh provenance (time, SHA, machine)."""
        return cls(
            suite=suite,
            schema=SCHEMA_NAME,
            schema_version=SCHEMA_VERSION,
            created_at=datetime.now(timezone.utc).isoformat(
                timespec="seconds"),
            git_sha=git_sha(),
            machine=machine_fingerprint(),
            config=dict(config or {}),
            cases=cases,
        )


def schema_fingerprint() -> str:
    """SHA-256 over the schema's field layout (names, not values).

    Pinned by a test: any change to the artifact shape fails loudly and
    forces a deliberate :data:`SCHEMA_VERSION` bump.
    """
    import hashlib
    layout = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "suite_fields": sorted(f.name for f in fields(SuiteResult)),
        "case_fields": sorted(f.name for f in fields(CaseResult)),
        # Derived from the one dict machine_fingerprint() builds, so a
        # new fingerprint key cannot drift past the frozen hash.
        "machine_fields": sorted(machine_fingerprint()),
    }
    canonical = json.dumps(layout, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def result_filename(suite: str) -> str:
    """The conventional artifact name for *suite*."""
    return f"BENCH_{suite}.json"


def load_result(path: str | Path) -> SuiteResult:
    """Read and validate a ``BENCH_<suite>.json`` file."""
    return SuiteResult.from_json(Path(path).read_text())
