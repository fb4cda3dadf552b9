"""Content-addressed result store: SQLite index + JSON payload objects.

A :class:`ResultStore` lives under one ``--results-dir``::

    results/
        index.sqlite          fast key index (kind, spec, elapsed, ...)
        objects/ab/abcdef....json   one complete work-unit payload each
        manifest.json         provenance of the latest campaign run

The **object files are the source of truth**; the SQLite file is a
rebuildable index over them.  Every object is written to a temporary
file and atomically renamed into place, so a store that survives a
``SIGKILL`` contains only complete payloads — :meth:`ResultStore.reconcile`
then heals the index in both directions (rows whose file vanished are
dropped, files the index missed are re-registered) and a resumed
campaign simply recomputes whatever keys are absent.

Keys are content addresses: the SHA-256 of the canonical JSON encoding
of a work unit's *spec* (see :mod:`repro.campaign.plan` for what goes
into a spec).  Identical work is therefore fetched, never recomputed,
no matter which CLI, sweep, scheduler, or HTTP service produced it
first.

The index lives in a :class:`~repro.campaign.backend.SqliteWalBackend`
(WAL-mode SQLite with a busy timeout), schema-managed by the versioned
migration chain in :mod:`repro.campaign.migrations`, so many reader
and writer processes — campaign schedulers, pull workers, the HTTP
service's request threads — can hit one store at once.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sqlite3
import tempfile
import time
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro import obs
from repro.analysis.records import _jsonable
from repro.campaign.backend import SqliteWalBackend
from repro.util.logging import get_logger
from repro.util.validation import require

__all__ = ["ResultStore", "canonical_json", "unit_key"]

_log = get_logger("campaign.store")

#: A store key: 64 lower-case hex digits (a SHA-256 hexdigest).
_KEY = re.compile(r"[0-9a-f]{64}")


def _canonical_value(value: Any) -> Any:
    """Recursively coerce *value* into its canonical JSON form.

    The concrete types are tested before the abstract ``Mapping``:
    decoded JSON holds only ``dict`` and ``list``, and those checks
    are the cheap ones.
    """
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, (dict, Mapping)):
        return {str(k): _canonical_value(v) for k, v in value.items()}
    return _jsonable(value)


def canonical_json(spec: Mapping[str, Any]) -> str:
    """The canonical (sorted-key, minimal-separator) encoding of *spec*.

    Two specs hash identically iff their canonical encodings are equal,
    so key order, tuple-vs-list, and numpy scalar wrappers never affect
    the content address.
    """
    return json.dumps(_canonical_value(spec), sort_keys=True,
                      separators=(",", ":"))


def unit_key(spec: Mapping[str, Any]) -> str:
    """SHA-256 content address of a work-unit *spec*."""
    return hashlib.sha256(canonical_json(spec).encode("utf-8")).hexdigest()


def _register(db: sqlite3.Connection, row: tuple) -> None:
    """Insert one ``(key, kind, label, created_at, elapsed)`` index row
    inside the caller's transaction."""
    db.execute("INSERT OR REPLACE INTO units VALUES (?, ?, ?, ?, ?)", row)


class ResultStore:
    """Durable, content-addressed storage for completed work units.

    *root* is the results directory (created on first use).  Its
    ``index.sqlite`` holds the index and the job queue's tables in a
    :class:`~repro.campaign.backend.SqliteWalBackend`; opening applies
    the migration chain, so stores written by older builds upgrade in
    place before the first query.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(exist_ok=True)
        self.backend = SqliteWalBackend(self.root / "index.sqlite")

    # -- low-level plumbing -------------------------------------------------

    def object_path(self, key: str) -> Path:
        """Where the payload object for *key* lives (two-level fan-out)."""
        require(_KEY.fullmatch(key) is not None,
                f"malformed store key: {key!r}")
        return self.objects_dir / key[:2] / f"{key}.json"

    # -- writes -------------------------------------------------------------

    def put(self, spec: Mapping[str, Any], result: Mapping[str, Any], *,
            label: str = "", elapsed: float | None = None,
            resources: Mapping[str, float] | None = None) -> str:
        """Store a completed unit; returns its key.

        *result* is the deterministic payload (it must round-trip through
        JSON); provenance that legitimately differs between reruns —
        wall-clock, timestamps, *resources* (the executing process's
        CPU seconds / peak RSS, see :mod:`repro.obs.resources`) — goes
        into the ``meta`` section so two stores of the same work are
        byte-comparable on ``spec``/``result``.
        """
        key = unit_key(spec)
        with obs.span("store.put", key=key[:12], label=label):
            row = self._publish(key, spec, result, label=label,
                                elapsed=elapsed, resources=resources)
            with self.backend.transaction() as db:
                _register(db, row)
            return key

    def _publish(self, key: str, spec: Mapping[str, Any],
                 result: Mapping[str, Any], *, label: str,
                 elapsed: float | None,
                 resources: Mapping[str, float] | None) -> tuple:
        """Atomically write *key*'s object file; returns its index row.

        The index insert is the caller's (:func:`_register`, in its own
        transaction): a crash between the two leaves an object that
        :meth:`reconcile` re-registers.
        """
        payload = {
            "key": key,
            "spec": _canonical_value(spec),
            "result": _canonical_value(result),
            "meta": {"created_at": time.time(), "elapsed": elapsed,
                     "resources": None if resources is None
                     else dict(resources)},
        }
        path = self.object_path(key)
        path.parent.mkdir(exist_ok=True)
        # Atomic publish: a crash mid-write leaves no partial object.
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=1)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        _log.debug("store.put %s (%s)", key[:12], label or "unlabelled")
        return (key, str(payload["spec"].get("kind", "unknown")), label,
                payload["meta"]["created_at"], elapsed)

    def delete(self, key: str) -> bool:
        """Remove a stored unit (used by ``--force`` and tests)."""
        path = self.object_path(key)
        existed = path.exists()
        if existed:
            path.unlink()
        with self.backend.transaction() as db:
            db.execute("DELETE FROM units WHERE key = ?", (key,))
        return existed

    # -- reads --------------------------------------------------------------

    def get(self, key: str) -> dict[str, Any] | None:
        """The full stored payload for *key*, or ``None``.

        Reads the object file (the source of truth); a dangling index row
        therefore never serves a phantom result.
        """
        with obs.span("store.get", key=key[:12]) as sp:
            path = self.object_path(key)
            if not path.exists():
                sp.set(hit=False)
                return None
            payload = json.loads(path.read_text())
            require(payload.get("key") == key,
                    f"corrupt store object {path}: key mismatch")
            sp.set(hit=True)
            return payload

    def get_result(self, key: str) -> dict[str, Any] | None:
        """Just the deterministic ``result`` section for *key*."""
        payload = self.get(key)
        return None if payload is None else payload["result"]

    def __contains__(self, key: str) -> bool:
        return self.object_path(key).exists()

    def keys(self) -> set[str]:
        """Keys of every complete object on disk."""
        return {path.stem for path in self.objects_dir.glob("*/*.json")}

    def __len__(self) -> int:
        return len(self.keys())

    def rows(self) -> list[dict[str, Any]]:
        """Index rows (key, kind, label, created_at, elapsed), newest last."""
        with self.backend.transaction() as db:
            cursor = db.execute(
                "SELECT key, kind, label, created_at, elapsed FROM units "
                "ORDER BY created_at")
            return [dict(zip(("key", "kind", "label", "created_at", "elapsed"),
                             row)) for row in cursor.fetchall()]

    # -- crash recovery -----------------------------------------------------

    def reconcile(self) -> tuple[int, int]:
        """Heal the index against the object files.

        Returns ``(recovered, dropped)``: files the index was missing
        (e.g. a crash between object publish and index insert) are
        re-registered, and rows whose object vanished are removed.
        """
        on_disk = self.keys()
        with self.backend.transaction() as db:
            indexed = {row[0] for row in
                       db.execute("SELECT key FROM units").fetchall()}
            recovered = on_disk - indexed
            dropped = indexed - on_disk
            for key in recovered:
                payload = self.get(key)
                meta = payload.get("meta", {})
                kind = str(payload["spec"].get("kind", "unknown"))
                _register(db, (key, kind, "", meta.get("created_at", 0.0),
                               meta.get("elapsed")))
            for key in dropped:
                db.execute("DELETE FROM units WHERE key = ?", (key,))
        if recovered or dropped:
            # A non-empty heal means the previous run died between an
            # object publish and its index insert (or lost objects):
            # the signal operators grep for after a crash-resume.
            _log.warning(
                "store %s healed after crash: %d object(s) re-registered, "
                "%d dangling index row(s) dropped",
                self.root, len(recovered), len(dropped))
            obs.event("store.reconcile", status="healed",
                      recovered=len(recovered), dropped=len(dropped))
        return len(recovered), len(dropped)
