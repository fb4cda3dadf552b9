"""Pluggable SQL backends for the campaign store index and job queue.

The :class:`StoreBackend` contract is deliberately small — *open a
migrated database, hand out transactions* — so the store, the job
queue, and the HTTP service all speak to the same interface and a
concurrent backend (client/server SQL, a hosted queue) can drop in
without touching them.

Contract
--------
* :meth:`~StoreBackend.transaction` yields a DB-API connection inside
  one transaction: commit on clean exit, rollback on exception.  With
  ``immediate=True`` the write lock is taken *up front*, so
  read-modify-write sequences (the queue's lease claim) are atomic
  against every other writer.
* The backend applies the migration chain
  (:mod:`repro.campaign.migrations`) before the first transaction and
  reports the result via :meth:`~StoreBackend.schema_version`.
* Backends must be **multi-process safe**: many readers and writers on
  the same database, from different processes, at once.  Blocking
  briefly is fine; corrupting or erroring on contention is not.
* Backends must be cheap to construct and **fork-safe**: state
  inherited over ``fork`` (pooled connections) is never used or closed
  by the child, and worker processes build their own instance from
  :attr:`~StoreBackend.location`.

:class:`SqliteWalBackend` is the first concurrent implementation:
WAL-mode SQLite with a busy timeout.  WAL gives snapshot-isolated
readers that never block the single writer; the busy timeout makes
writer contention a wait, not an error.  It pools its connections, so
a transaction costs a checkout instead of an open, and a close (which
checkpoints and deletes the WAL when it is the file's last connection)
happens once per backend instead of once per transaction.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import weakref
from abc import ABC, abstractmethod
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.campaign.migrations import SCHEMA_VERSION, apply_migrations
from repro.util.validation import require

__all__ = ["StoreBackend", "SqliteWalBackend", "open_backend",
           "DEFAULT_BUSY_TIMEOUT_S", "SCHEMA_VERSION"]

#: How long a writer waits on a locked database before failing.  Large
#: enough to ride out another process's checkpoint burst; finite so a
#: genuinely wedged holder surfaces as an error instead of a hang.
DEFAULT_BUSY_TIMEOUT_S = 30.0


class StoreBackend(ABC):
    """Where the store index and job queue keep their tables."""

    #: URL-ish scheme naming the implementation (diagnostics only).
    scheme: str = "abstract"

    @property
    @abstractmethod
    def location(self) -> str:
        """A string a *different process* can reopen the backend from."""

    @abstractmethod
    @contextmanager
    def transaction(self, *, immediate: bool = False
                    ) -> Iterator[sqlite3.Connection]:
        """One transaction: commit on exit, rollback on exception.

        ``immediate=True`` acquires the write lock before yielding, so
        the caller's read-then-update sequence cannot interleave with
        another writer's.
        """

    @abstractmethod
    def schema_version(self) -> int:
        """The migration version the open database is at."""

    def close(self) -> None:
        """Release held resources (idle pooled connections); the backend
        stays usable and reconnects on its next transaction."""


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


class SqliteWalBackend(StoreBackend):
    """SQLite in WAL mode with a busy timeout — the concurrent default.

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
    the database file, set once at open; the busy timeout is per
    connection.
    """

    scheme = "sqlite+wal"

    def __init__(self, path: str | Path, *,
                 busy_timeout_s: float = DEFAULT_BUSY_TIMEOUT_S) -> None:
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
            apply_migrations(connection)
            connection.commit()
        except BaseException:
            connection.close()
            raise
        self._pool.checkin(connection)

    @property
    def location(self) -> str:
        return str(self.path)

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(self.path, timeout=self.busy_timeout_s,
                                     check_same_thread=False)
        connection.execute(
            f"PRAGMA busy_timeout = {int(self.busy_timeout_s * 1000)}")
        return connection

    @contextmanager
    def transaction(self, *, immediate: bool = False
                    ) -> Iterator[sqlite3.Connection]:
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
        with self.transaction() as db:
            return int(db.execute("PRAGMA user_version").fetchone()[0])

    def close(self) -> None:
        self._pool.close()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"SqliteWalBackend({str(self.path)!r})"


def open_backend(location: str | Path) -> StoreBackend:
    """Open the backend for *location* (today: always SQLite-WAL).

    The single seam a second implementation plugs into; callers that
    persist ``backend.location`` can reopen it here from any process.
    """
    return SqliteWalBackend(location)
