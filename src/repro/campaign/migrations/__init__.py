"""Versioned SQL migration chains for the repo's SQLite databases.

A chain is a directory of ordered ``NNNN_*.sql`` files; every
:class:`~repro.campaign.backend.SqliteWalBackend` open applies one.
This package is the campaign store's chain (the default); the perf
history has its own (:data:`repro.obs.history.HISTORY_CHAIN`).  The
applied version is pinned in ``PRAGMA user_version``; a backend only
runs the scripts whose number exceeds it, so opening is cheap and
idempotent.

Chain policy (enforced by frozen-fingerprint tests):

* **Append-only.**  A schema change is a new ``NNNN_*.sql`` file with
  the next number — never an edit to an applied migration.  Editing a
  shipped file changes :func:`chain_fingerprint` and fails the pin.
* **Re-runnable.**  Every script must survive being applied twice
  (``IF NOT EXISTS`` discipline): a crash between a script and its
  ``user_version`` bump replays the script on the next open.
* **Backwards-open.**  Migration 0001 recreates the pre-chain schema
  verbatim, so databases written before the chain existed upgrade in
  place without losing a row.
"""

from __future__ import annotations

import hashlib
import re
import sqlite3
from pathlib import Path

from repro.util.validation import require

__all__ = ["CAMPAIGN_CHAIN", "SCHEMA_VERSION", "migration_files",
           "apply_migrations", "chain_fingerprint"]

#: The campaign store's chain: this package's own directory.
CAMPAIGN_CHAIN = Path(__file__).resolve().parent
_NAME_RE = re.compile(r"^(\d{4})_[a-z0-9_]+\.sql$")


def migration_files(chain: Path = CAMPAIGN_CHAIN) -> list[tuple[int, Path]]:
    """The ordered *chain*: ``[(version, path), ...]``, 1-based and
    gapless."""
    found = []
    for path in sorted(chain.glob("*.sql")):
        match = _NAME_RE.match(path.name)
        require(match is not None,
                f"malformed migration filename: {path.name!r} "
                "(want NNNN_snake_case.sql)")
        found.append((int(match.group(1)), path))
    require(len(found) > 0, f"no migration files found in {chain}")
    versions = [version for version, _ in found]
    require(versions == list(range(1, len(found) + 1)),
            f"migration chain must be 1-based and gapless, got {versions}")
    return found


#: The schema version a fully migrated campaign store reports
#: (``PRAGMA user_version``); always the chain's highest migration.
SCHEMA_VERSION = migration_files()[-1][0]


def apply_migrations(connection: sqlite3.Connection,
                     chain: Path = CAMPAIGN_CHAIN) -> int:
    """Bring *connection*'s database up to *chain*'s last version.

    Returns the number of migrations applied (0 when already current).
    Each script runs via ``executescript`` and then bumps
    ``user_version``; scripts are re-runnable, so a crash between the
    two simply replays the script on the next open.  A database newer
    than the chain is refused.
    """
    files = migration_files(chain)
    current = connection.execute("PRAGMA user_version").fetchone()[0]
    require(current <= files[-1][0],
            f"database schema v{current} is newer than this build "
            f"(reads up to v{files[-1][0]}); refusing to open")
    applied = 0
    for version, path in files:
        if version <= current:
            continue
        connection.executescript(path.read_text())
        connection.execute(f"PRAGMA user_version = {version}")
        applied += 1
    return applied


def chain_fingerprint(chain: Path = CAMPAIGN_CHAIN) -> str:
    """SHA-256 over *chain*'s filenames and exact script bytes.

    Pinned by a test: editing an applied migration (instead of
    appending a new one) fails loudly, and appending forces a
    deliberate re-pin alongside the new file.
    """
    digest = hashlib.sha256()
    for version, path in migration_files(chain):
        digest.update(f"{version:04d}:{path.name}\n".encode("utf-8"))
        digest.update(path.read_bytes())
        digest.update(b"\n--\n")
    return digest.hexdigest()
