"""StoreBackend contract: WAL mode, busy timeout, migration chain,
and the per-process connection pool."""

from __future__ import annotations

import gc
import os
import sqlite3
import threading

import pytest

from repro.campaign.backend import (DEFAULT_BUSY_TIMEOUT_S, SqliteWalBackend,
                                    open_backend)
from repro.campaign.migrations import (SCHEMA_VERSION, apply_migrations,
                                       chain_fingerprint, migration_files)
from repro.campaign.store import ResultStore


class TestSqliteWalBackend:
    def test_opens_in_wal_mode(self, tmp_path):
        backend = SqliteWalBackend(tmp_path / "index.sqlite")
        with backend.transaction() as db:
            (mode,) = db.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"

    def test_schema_version_is_current(self, tmp_path):
        backend = SqliteWalBackend(tmp_path / "index.sqlite")
        assert backend.schema_version() == SCHEMA_VERSION

    def test_transactions_commit(self, tmp_path):
        backend = SqliteWalBackend(tmp_path / "index.sqlite")
        with backend.transaction() as db:
            db.execute("INSERT INTO units VALUES ('k', 'x', 'l', 0.0, NULL)")
        with backend.transaction() as db:
            rows = db.execute("SELECT key FROM units").fetchall()
        assert rows == [("k",)]

    def test_transactions_roll_back_on_error(self, tmp_path):
        backend = SqliteWalBackend(tmp_path / "index.sqlite")
        with pytest.raises(RuntimeError):
            with backend.transaction() as db:
                db.execute(
                    "INSERT INTO units VALUES ('k', 'x', 'l', 0.0, NULL)")
                raise RuntimeError("boom")
        with backend.transaction() as db:
            assert db.execute("SELECT COUNT(*) FROM units").fetchone()[0] == 0

    def test_busy_timeout_is_set_per_connection(self, tmp_path):
        backend = SqliteWalBackend(tmp_path / "index.sqlite",
                                   busy_timeout_s=1.5)
        with backend.transaction() as db:
            (ms,) = db.execute("PRAGMA busy_timeout").fetchone()
        assert ms == 1500

    def test_default_busy_timeout_rides_out_contention(self, tmp_path):
        assert DEFAULT_BUSY_TIMEOUT_S >= 5.0

    def test_immediate_blocks_second_writer(self, tmp_path):
        """A held immediate transaction makes a second writer wait (and
        fail fast with a tiny timeout) instead of interleaving."""
        path = tmp_path / "index.sqlite"
        a = SqliteWalBackend(path)
        b = SqliteWalBackend(path, busy_timeout_s=0.05)
        with a.transaction(immediate=True) as db_a:
            db_a.execute("INSERT INTO units VALUES ('k', 'x', '', 0.0, NULL)")
            with pytest.raises(sqlite3.OperationalError):
                with b.transaction(immediate=True):
                    pass

    def test_location_reopens_elsewhere(self, tmp_path):
        backend = SqliteWalBackend(tmp_path / "index.sqlite")
        again = open_backend(backend.location)
        assert again.schema_version() == SCHEMA_VERSION


def _open_index_fds(path) -> list[str]:
    """This process's file descriptors on *path* and its WAL/SHM files."""
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, already closed
            continue
        if target.startswith(str(path)):
            found.append(target)
    return found


needs_proc_fd = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                   reason="needs /proc/self/fd")


class TestConnectionPool:
    def test_sequential_transactions_reuse_one_connection(
            self, tmp_path, monkeypatch):
        opened = []
        real_connect = sqlite3.connect

        def counting_connect(*args, **kwargs):
            opened.append(args)
            return real_connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", counting_connect)
        backend = SqliteWalBackend(tmp_path / "index.sqlite")
        for i in range(50):
            with backend.transaction(immediate=i % 2 == 0) as db:
                db.execute("SELECT COUNT(*) FROM units").fetchone()
        assert len(opened) == 1
        backend.close()

    def test_nested_transaction_gets_a_second_connection(self, tmp_path):
        backend = SqliteWalBackend(tmp_path / "index.sqlite")
        with backend.transaction() as outer:
            with backend.transaction() as inner:
                assert inner is not outer
        with backend.transaction() as again:
            assert again in (outer, inner)
        backend.close()

    def test_threads_increment_exactly(self, tmp_path):
        backend = SqliteWalBackend(tmp_path / "index.sqlite")
        with backend.transaction() as db:
            db.execute("CREATE TABLE counter (n INTEGER NOT NULL)")
            db.execute("INSERT INTO counter VALUES (0)")
        errors = []

        def bump() -> None:
            try:
                for _ in range(50):
                    with backend.transaction(immediate=True) as db:
                        (n,) = db.execute(
                            "SELECT n FROM counter").fetchone()
                        db.execute("UPDATE counter SET n = ?", (n + 1,))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        with backend.transaction() as db:
            assert db.execute("SELECT n FROM counter").fetchone() == (400,)
        backend.close()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_never_touches_inherited_connections(
            self, tmp_path):
        backend = SqliteWalBackend(tmp_path / "index.sqlite")
        log = tmp_path / "statements.log"

        def record(statement: str) -> None:
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {statement}\n")

        with backend.transaction() as pooled:
            pooled.set_trace_callback(record)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                for i in range(5):
                    with backend.transaction(immediate=True) as db:
                        assert db is not pooled
                        db.execute("INSERT INTO units VALUES "
                                   "(?, 'x', 'child', 0.0, NULL)",
                                   (f"k{i}",))
                backend.close()
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        with backend.transaction() as db:
            assert db is pooled
            assert db.execute("SELECT COUNT(*) FROM units").fetchone() == (5,)
        pids = {line.split()[0] for line in log.read_text().splitlines()}
        assert pids == {str(os.getpid())}
        backend.close()

    @needs_proc_fd
    def test_close_releases_every_descriptor(self, tmp_path):
        path = tmp_path / "index.sqlite"
        backend = SqliteWalBackend(path)
        with backend.transaction() as outer, backend.transaction() as inner:
            outer.execute("SELECT 1")
            inner.execute("SELECT 1")
        assert _open_index_fds(path)
        backend.close()
        assert _open_index_fds(path) == []
        # Still usable: the next transaction reconnects.
        assert backend.schema_version() == SCHEMA_VERSION
        backend.close()
        assert _open_index_fds(path) == []

    @needs_proc_fd
    def test_dropping_the_backend_releases_every_descriptor(self, tmp_path):
        path = tmp_path / "index.sqlite"
        gc.disable()
        try:
            backend = SqliteWalBackend(path)
            with backend.transaction() as db:
                db.execute("INSERT INTO units VALUES "
                           "('k', 'x', '', 0.0, NULL)")
            assert _open_index_fds(path)
            del backend, db
            assert _open_index_fds(path) == []
        finally:
            gc.enable()
        # The last close checkpointed the file and removed its WAL.
        assert not (tmp_path / "index.sqlite-wal").exists()


class TestMigrationChain:
    def test_chain_is_gapless_and_one_based(self):
        versions = [version for version, _ in migration_files()]
        assert versions == list(range(1, len(versions) + 1))

    def test_schema_version_pin(self):
        # Deliberate bump only: adding migrations/0003_*.sql must come
        # with a re-pin here.
        assert SCHEMA_VERSION == 2

    def test_chain_fingerprint_pin(self):
        # Frozen: editing an APPLIED migration file (instead of
        # appending a new one) fails this pin — append-only is the
        # whole policy.
        assert chain_fingerprint() == (
            "91eea940937654611819fe9d85fd6f5091"
            "f2a16814fc0e6718d54e5253d7e2d4")

    def test_migrations_are_rerunnable(self, tmp_path):
        db = sqlite3.connect(tmp_path / "x.sqlite")
        assert apply_migrations(db) == SCHEMA_VERSION
        # A crash between executescript and the user_version bump
        # replays the script: simulate by rolling the version back.
        db.execute("PRAGMA user_version = 0")
        assert apply_migrations(db) == SCHEMA_VERSION

    def test_refuses_newer_store(self, tmp_path):
        db = sqlite3.connect(tmp_path / "x.sqlite")
        db.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        with pytest.raises(ValueError, match="newer than this build"):
            apply_migrations(db)

    def test_legacy_store_upgrades_in_place(self, tmp_path):
        """A pre-chain store (user_version 0, hand-made units table,
        rollback journal) opens, keeps its rows, and gains the queue
        tables."""
        root = tmp_path / "store"
        root.mkdir()
        db = sqlite3.connect(root / "index.sqlite")
        db.execute("""
            CREATE TABLE IF NOT EXISTS units (
                key        TEXT PRIMARY KEY,
                kind       TEXT NOT NULL,
                label      TEXT NOT NULL,
                created_at REAL NOT NULL,
                elapsed    REAL
            )""")
        db.execute("INSERT INTO units VALUES ('old', 'experiment', 'E1', "
                   "1.0, 2.0)")
        db.commit()
        db.close()

        store = ResultStore(root)
        assert store.backend.schema_version() == SCHEMA_VERSION
        assert [row["key"] for row in store.rows()] == ["old"]
        with store.backend.transaction() as conn:
            tables = {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'")}
        assert {"units", "jobs", "campaigns"} <= tables
