"""Append-only perf history + drift detection (``repro.bench history``).

The bench harness gates each run against a *static* baseline with a
generous per-run tolerance (4x absolute medians — machine variance
demands it).  That gate is blind to slow drift: ten consecutive +10%
regressions all pass individually while the case quietly doubles.
This module is the longitudinal memory that catches exactly that.

:class:`HistoryStore` is an SQLite database (a
:class:`~repro.campaign.backend.SqliteWalBackend` migrated by
:data:`HISTORY_CHAIN`) ingesting every ``BENCH_<suite>.json``
artifact, keyed by **(git SHA, machine fingerprint, suite, case)**.
It is append-only by design: rows are
never updated or deleted, and re-recording an artifact the store has
already seen (same suite/SHA/machine/timestamp) is a no-op, so CI can
re-run idempotently.  Machines are identified by
:func:`machine_id` — a short hash of the canonical fingerprint dict —
because absolute times only form a meaningful series on one machine.

Drift rule (:func:`check_drift`): for each case, take the last
``window`` recorded medians on the same machine, compute their
**rolling median** (robust center) and **MAD** (robust scale,
Gaussian-consistent via 1.4826, floored at ``scale_floor`` of the
center so a perfectly quiet history cannot make noise look
infinitely significant), and flag the current run when *both*

* the robust z-score ``(current - center) / scale`` exceeds
  ``z_threshold``, and
* the relative excess ``current / center - 1`` exceeds ``min_rel``

— the two-condition form means a statistically loud but tiny wobble
passes, and a large but noisy-history excursion passes, while a
sustained creep (e.g. three monotonic runs summing to ~25%, every one
of them inside the per-run tolerance) fails.  Cases with fewer than
``min_runs`` recorded runs report ``insufficient`` and never fail —
a fresh history warms up instead of blocking CI.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.campaign.backend import SqliteWalBackend

__all__ = ["HISTORY_CHAIN", "HistoryStore", "machine_id",
           "check_drift", "DriftReport", "CaseDrift", "render_trend",
           "MAD_CONSISTENCY", "DEFAULT_WINDOW", "DEFAULT_MIN_RUNS",
           "DEFAULT_Z_THRESHOLD", "DEFAULT_MIN_REL"]

#: The history database's migration chain (``obs/migrations/``).
HISTORY_CHAIN = Path(__file__).resolve().parent / "migrations"

#: Gaussian consistency constant: MAD * 1.4826 estimates sigma.
MAD_CONSISTENCY = 1.4826

DEFAULT_WINDOW = 10
DEFAULT_MIN_RUNS = 4
DEFAULT_Z_THRESHOLD = 4.0
DEFAULT_MIN_REL = 0.15
#: Robust-scale floor, as a fraction of the rolling median: a dead-flat
#: history (MAD 0) must not turn measurement noise into infinite z.
DEFAULT_SCALE_FLOOR = 0.02

def machine_id(fingerprint: Mapping[str, Any]) -> str:
    """Short stable id of one machine fingerprint dict."""
    canonical = json.dumps(dict(fingerprint), sort_keys=True,
                           separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


class HistoryStore:
    """The append-only SQLite perf-history database."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.backend = SqliteWalBackend(self.path, chain=HISTORY_CHAIN)

    def close(self) -> None:
        """Close the connections; the last close removes the WAL."""
        self.backend.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _query(self, sql: str, args: Sequence[Any] = ()
               ) -> list[dict[str, Any]]:
        with self.backend.transaction() as db:
            db.row_factory = sqlite3.Row
            return [dict(row) for row in db.execute(sql, args)]

    # -- ingest -------------------------------------------------------

    def record(self, result) -> tuple[int, bool]:
        """Ingest one ``SuiteResult``; returns ``(run_id, inserted)``.

        Append-only and idempotent: an artifact the store has already
        seen (same suite / git SHA / machine / created_at) returns its
        existing run id with ``inserted=False``.  The lookup and the
        insert share one immediate transaction, so two concurrent
        records of one artifact cannot both insert it.
        """
        mid = machine_id(result.machine)
        with self.backend.transaction(immediate=True) as db:
            row = db.execute(
                "SELECT id FROM runs WHERE suite = ? AND git_sha IS ? "
                "AND machine_id = ? AND created_at = ?",
                (result.suite, result.git_sha, mid,
                 result.created_at)).fetchone()
            if row is not None:
                return int(row[0]), False
            cursor = db.execute(
                "INSERT INTO runs (suite, git_sha, machine_id, machine, "
                "created_at, schema_version) VALUES (?, ?, ?, ?, ?, ?)",
                (result.suite, result.git_sha, mid,
                 json.dumps(dict(result.machine), sort_keys=True,
                            default=str),
                 result.created_at, result.schema_version))
            run_id = int(cursor.lastrowid)
            db.executemany(
                "INSERT INTO cases (run_id, name, scale, rounds, best_s, "
                "median_s, iqr_s, speedup, floor, tolerance) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [(run_id, c.name, c.scale, c.rounds, c.best_s, c.median_s,
                  c.iqr_s, c.speedup, c.floor, c.tolerance)
                 for c in result.cases])
        return run_id, True

    # -- queries ------------------------------------------------------

    def machine_ids(self, suite: str | None = None) -> list[str]:
        sql = "SELECT DISTINCT machine_id FROM runs"
        args: tuple = ()
        if suite is not None:
            sql += " WHERE suite = ?"
            args = (suite,)
        return [r["machine_id"] for r in self._query(sql, args)]

    def runs(self, suite: str, *, machine_id: str | None = None
             ) -> list[dict[str, Any]]:
        """Run headers for *suite*, oldest first (recording order)."""
        sql = ("SELECT id, suite, git_sha, machine_id, created_at "
               "FROM runs WHERE suite = ?")
        args: list[Any] = [suite]
        if machine_id is not None:
            sql += " AND machine_id = ?"
            args.append(machine_id)
        sql += " ORDER BY id"
        return self._query(sql, args)

    def case_names(self, suite: str) -> list[str]:
        rows = self._query(
            "SELECT DISTINCT c.name FROM cases c JOIN runs r "
            "ON c.run_id = r.id WHERE r.suite = ? ORDER BY c.name",
            (suite,))
        return [r["name"] for r in rows]

    def series(self, suite: str, case: str, *,
               machine_id: str | None = None,
               exclude_run_ids: Iterable[int] = (),
               limit: int | None = None) -> list[dict[str, Any]]:
        """One case's trajectory, oldest first.

        Each point carries the run header (id, git SHA, created_at)
        plus the measured statistics.  *limit* keeps the most recent
        points; *exclude_run_ids* drops e.g. the run being checked.
        """
        sql = ("SELECT r.id AS run_id, r.git_sha, r.created_at, "
               "c.best_s, c.median_s, c.iqr_s, c.speedup "
               "FROM cases c JOIN runs r ON c.run_id = r.id "
               "WHERE r.suite = ? AND c.name = ?")
        args: list[Any] = [suite, case]
        if machine_id is not None:
            sql += " AND r.machine_id = ?"
            args.append(machine_id)
        excluded = list(exclude_run_ids)
        if excluded:
            sql += (" AND r.id NOT IN ("
                    + ",".join("?" * len(excluded)) + ")")
            args.extend(excluded)
        sql += " ORDER BY r.id"
        points = self._query(sql, args)
        if limit is not None and len(points) > limit:
            points = points[-limit:]
        return points


# -- drift detection ------------------------------------------------


@dataclass(frozen=True)
class CaseDrift:
    """One case's longitudinal verdict."""

    name: str
    status: str  # "ok" | "drift" | "improved" | "insufficient"
    current_s: float
    center_s: float | None = None
    scale_s: float | None = None
    z: float | None = None
    rel: float | None = None
    n_history: int = 0
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "drift"


@dataclass(frozen=True)
class DriftReport:
    """All case verdicts for one artifact against its history."""

    suite: str
    machine_id: str
    comparisons: tuple[CaseDrift, ...]

    @property
    def failures(self) -> tuple[CaseDrift, ...]:
        return tuple(c for c in self.comparisons if c.failed)

    @property
    def ok(self) -> bool:
        return not self.failures

    def rows(self) -> list[dict[str, Any]]:
        """Table rows for :func:`repro.analysis.tables.render_table`."""
        rows = []
        for c in self.comparisons:
            rows.append({
                "case": c.name,
                "cur_ms": round(c.current_s * 1e3, 3),
                "hist_ms": round(c.center_s * 1e3, 3)
                if c.center_s is not None else "",
                "z": round(c.z, 1) if c.z is not None else "",
                "rel": f"{c.rel:+.0%}" if c.rel is not None else "",
                "runs": c.n_history,
                "status": c.status + (f"  ({c.note})" if c.note else ""),
            })
        return rows


def robust_center_scale(values: list[float], *,
                        scale_floor: float = DEFAULT_SCALE_FLOOR
                        ) -> tuple[float, float]:
    """Rolling median + Gaussian-consistent MAD, scale floored."""
    center = statistics.median(values)
    mad = statistics.median([abs(v - center) for v in values])
    scale = max(MAD_CONSISTENCY * mad, scale_floor * abs(center))
    return center, scale


def check_drift(store: HistoryStore, result, *,
                window: int = DEFAULT_WINDOW,
                min_runs: int = DEFAULT_MIN_RUNS,
                z_threshold: float = DEFAULT_Z_THRESHOLD,
                min_rel: float = DEFAULT_MIN_REL,
                scale_floor: float = DEFAULT_SCALE_FLOOR) -> DriftReport:
    """Gate *result* (a ``SuiteResult``) against its recorded history.

    Only runs from the same machine fingerprint enter the reference
    window, and a recording of *result itself* (matching git SHA +
    created_at) is excluded, so record-then-check and check-then-record
    orders agree.  See the module docstring for the drift rule.
    """
    mid = machine_id(result.machine)
    self_ids = [run["id"] for run in store.runs(result.suite,
                                                machine_id=mid)
                if run["git_sha"] == result.git_sha
                and run["created_at"] == result.created_at]
    comparisons: list[CaseDrift] = []
    for case in result.cases:
        points = store.series(result.suite, case.name, machine_id=mid,
                              exclude_run_ids=self_ids, limit=window)
        medians = [p["median_s"] for p in points]
        current = case.median_s
        if len(medians) < min_runs:
            comparisons.append(CaseDrift(
                name=case.name, status="insufficient", current_s=current,
                n_history=len(medians),
                note=f"{len(medians)} run(s) recorded, need {min_runs}"))
            continue
        center, scale = robust_center_scale(medians,
                                            scale_floor=scale_floor)
        z = (current - center) / scale if scale > 0 else 0.0
        rel = current / center - 1.0 if center > 0 else 0.0
        common = dict(name=case.name, current_s=current, center_s=center,
                      scale_s=scale, z=z, rel=rel,
                      n_history=len(medians))
        if rel > min_rel and z > z_threshold:
            comparisons.append(CaseDrift(
                status="drift",
                note=(f"median {current * 1e3:.3f}ms is {rel:+.0%} vs "
                      f"rolling median {center * 1e3:.3f}ms "
                      f"(z={z:.1f} over {len(medians)} runs)"), **common))
        elif rel < -min_rel and z < -z_threshold:
            comparisons.append(CaseDrift(status="improved", **common))
        else:
            comparisons.append(CaseDrift(status="ok", **common))
    return DriftReport(suite=result.suite, machine_id=mid,
                       comparisons=tuple(comparisons))


# -- trend rendering -------------------------------------------------

#: Ink ramp, lightest first.  The lowest level must still be visible:
#: a run sitting at the window minimum is a data point, not a gap.
_SPARK_LEVELS = ".:-=+*#%@"


def _sparkline(values: list[float]) -> str:
    """One character per run, deepest ink = slowest median."""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_LEVELS[0] * len(values)
    steps = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[round((v - lo) / (hi - lo) * steps)] for v in values)


def render_trend(store: HistoryStore, suite: str, *,
                 machine_id: str | None = None,
                 pattern: str | None = None,
                 limit: int | None = None,
                 canvas_limit: int = 4) -> str:
    """ASCII trend of *suite*'s recorded history.

    A per-case table (runs, first/last median, net change, sparkline)
    always renders; when *pattern* narrows the selection to at most
    *canvas_limit* cases, a full :func:`repro.analysis.asciiplot`
    canvas of median-vs-run-index follows.
    """
    import fnmatch

    from repro.analysis.asciiplot import ascii_plot
    from repro.analysis.tables import render_table

    names = store.case_names(suite)
    if pattern is not None:
        names = [n for n in names if fnmatch.fnmatch(n, pattern)]
    if not names:
        return f"no recorded history for suite {suite!r}" + \
            (f" matching {pattern!r}" if pattern else "")

    rows = []
    plotted: dict[str, tuple[list[float], list[float]]] = {}
    for name in names:
        points = store.series(suite, name, machine_id=machine_id,
                              limit=limit)
        if not points:
            continue
        medians = [p["median_s"] for p in points]
        rows.append({
            "case": name,
            "runs": len(medians),
            "first_ms": round(medians[0] * 1e3, 3),
            "last_ms": round(medians[-1] * 1e3, 3),
            "net": f"{medians[-1] / medians[0] - 1:+.0%}"
            if medians[0] > 0 else "",
            "trend": _sparkline(medians),
        })
        plotted[name] = (list(range(1, len(medians) + 1)),
                         [m * 1e3 for m in medians])

    if not rows:
        return f"no recorded history for suite {suite!r}"
    parts = [render_table(rows)]
    canvas_worthy = {name: series for name, series in plotted.items()
                     if len(series[0]) > 1}
    if canvas_worthy and len(canvas_worthy) <= canvas_limit:
        parts.append(ascii_plot(
            canvas_worthy, title=f"median ms per recorded run — {suite}",
            height=12))
    return "\n\n".join(parts)
