"""The one way this repo opens SQLite.

:class:`SqliteWalBackend` holds the campaign store's index and job
queue (the default chain, :mod:`repro.campaign.migrations`) and the
perf history (:data:`repro.obs.history.HISTORY_CHAIN`):

* :meth:`~SqliteWalBackend.transaction` yields a connection inside one
  transaction: commit on clean exit, rollback on exception.  With
  ``immediate=True`` the write lock is taken *up front*, so
  read-modify-write sequences (the queue's lease claim, a history
  record) are atomic against every other writer.
* Opening applies the chain; a database newer than it is refused.
* WAL gives snapshot-isolated readers that never block the single
  writer, and the busy timeout makes writer contention a wait, not an
  error, so many processes can share one file.
* Commits do not fsync (``synchronous=NORMAL``): the WAL is synced
  only at checkpoints.  A commit stays atomic under SIGKILL and an OS
  crash; a power loss can roll back the last few commits, which the
  campaign store tolerates by design (see DESIGN.md, "Durability and
  resume").
"""

from __future__ import annotations

import os
import sqlite3
import threading
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.campaign.migrations import CAMPAIGN_CHAIN, apply_migrations
from repro.util.validation import require

__all__ = ["SqliteWalBackend", "DEFAULT_BUSY_TIMEOUT_S"]

#: How long a writer waits on a locked database before failing.  Large
#: enough to ride out another process's checkpoint burst; finite so a
#: genuinely wedged holder surfaces as an error instead of a hang.
DEFAULT_BUSY_TIMEOUT_S = 30.0


#: Connections a forked child inherited from its parent's pools.  The
#: parent still owns them: the child must neither use nor close them
#: (a close can checkpoint and delete the parent's WAL), and holding a
#: reference here keeps them from ever being finalized in the child.
_INHERITED: list[sqlite3.Connection] = []


class _Pool:
    """Idle connections of one backend, owned by the process that
    opened them."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.lock = threading.Lock()
        self.idle: list[sqlite3.Connection] = []

    def _own(self) -> None:
        """On first use after a fork, park the parent's connections and
        start empty (the lock too may have been held at the fork)."""
        if self.pid != os.getpid():
            _INHERITED.extend(self.idle)
            self.idle, self.lock, self.pid = [], threading.Lock(), os.getpid()

    def checkout(self) -> sqlite3.Connection | None:
        self._own()
        with self.lock:
            return self.idle.pop() if self.idle else None

    def checkin(self, connection: sqlite3.Connection) -> None:
        if self.pid != os.getpid():
            _INHERITED.append(connection)
        elif connection.in_transaction:
            connection.close()  # a failed rollback: never reuse it
        else:
            with self.lock:
                self.idle.append(connection)

    def close(self) -> None:
        self._own()
        with self.lock:
            idle, self.idle = self.idle, []
        for connection in idle:
            connection.close()


class SqliteWalBackend:
    """SQLite in WAL mode with a busy timeout, migrated by *chain*.

    Connections are pooled per backend and per process: a transaction
    checks one out (opening it only when none is idle, e.g. for a
    nested transaction or a concurrent request thread), commits or
    rolls back, and checks it back in.  Connections are opened with
    ``check_same_thread=False`` but used by one thread at a time, which
    keeps the backend safe inside the threaded HTTP service.  A forked
    child never touches a connection it inherited; it opens its own.
    :meth:`close`, or dropping the backend, closes the idle connections
    (a ``sqlite3.Connection`` sits in a reference cycle with its
    statement cache, so without this only the cycle collector would
    close it, at an arbitrary later time).  WAL mode is a property of
    the database file, set once at open; the busy timeout and
    ``synchronous=NORMAL`` are per connection.
    """

    def __init__(self, path: str | Path, *,
                 busy_timeout_s: float = DEFAULT_BUSY_TIMEOUT_S,
                 chain: Path = CAMPAIGN_CHAIN) -> None:
        require(busy_timeout_s > 0, "busy_timeout_s must be > 0")
        self.path = Path(path)
        self.busy_timeout_s = float(busy_timeout_s)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._pool = _Pool()
        weakref.finalize(self, self._pool.close)
        # The migration connection becomes the pool's first.
        connection = self._connect()
        try:
            # WAL persists in the file; an existing rollback-journal
            # store is converted in place on first open.
            connection.execute("PRAGMA journal_mode=WAL")
            apply_migrations(connection, chain)
            connection.commit()
        except BaseException:
            connection.close()
            raise
        self._pool.checkin(connection)

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(self.path, timeout=self.busy_timeout_s,
                                     check_same_thread=False)
        connection.execute(
            f"PRAGMA busy_timeout = {int(self.busy_timeout_s * 1000)}")
        connection.execute("PRAGMA synchronous=NORMAL")
        return connection

    @contextmanager
    def transaction(self, *, immediate: bool = False
                    ) -> Iterator[sqlite3.Connection]:
        """One transaction: commit on exit, rollback on exception.

        ``immediate=True`` acquires the write lock before yielding, so
        the caller's read-then-update sequence cannot interleave with
        another writer's.
        """
        connection = self._pool.checkout() or self._connect()
        try:
            if immediate:
                connection.execute("BEGIN IMMEDIATE")
            yield connection
            connection.commit()
        except BaseException:
            connection.rollback()
            raise
        finally:
            self._pool.checkin(connection)

    def schema_version(self) -> int:
        """The migration version the open database is at."""
        with self.transaction() as db:
            return int(db.execute("PRAGMA user_version").fetchone()[0])

    def close(self) -> None:
        """Close the idle pooled connections; the backend stays usable
        and reconnects on its next transaction."""
        self._pool.close()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"SqliteWalBackend({str(self.path)!r})"

